"""Tests of the benchmark itself: span arithmetic, wrapper removal, the
oracles' failed-op accounting, seeded inputs and the BENCHMARK.json contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ span arithmetic

def _spans(rows):
    """rows: (layer id, parent index, start, end) in start order."""
    cols = list(zip(*rows))
    return array("i", cols[0]), array("i", cols[1]), array("d", cols[2]), array("d", cols[3])


def test_self_time_subtracts_child_spans():
    # A[0,10] -> B[1,4] -> C[2,3];  A -> B[5,9];  D[11,12] at top level
    layers, parents, starts, ends = _spans(
        [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 1, 2.0, 3.0), (1, 0, 5.0, 9.0), (3, -1, 11.0, 12.0)]
    )
    per = tracer.summarize_spans(layers, parents, starts, ends)
    assert per[0] == (1, pytest.approx(3.0))  # 10 - 3 - 4
    assert per[1] == (2, pytest.approx(2.0 + 4.0))  # (3 - 1) + 4
    assert per[2] == (1, pytest.approx(1.0))
    assert per[3] == (1, pytest.approx(1.0))
    total_self = sum(s for _, s in per.values())
    assert total_self == pytest.approx(10.0 + 1.0)  # self times tile the top-level spans


def test_inclusive_time_counts_nested_repeats_once():
    t = tracer.Tracer()
    t.layer_ids.update({"outer": 0, "inner": 1})
    layers, parents, starts, ends = _spans(
        [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (0, 1, 2.0, 3.0), (0, -1, 20.0, 21.0)]
    )
    t.span_layer, t.span_parent, t.span_start, t.span_end = layers, parents, starts, ends
    assert t.inclusive_s("outer") == pytest.approx(11.0)
    assert t.inclusive_s("inner") == pytest.approx(3.0)
    assert t.inclusive_s("absent") == 0.0


def test_wrapper_records_nested_spans():
    t = tracer.Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = t.wrap(leaf, "leaf")

    def node(x):
        return wrapped_leaf(x) * wrapped_leaf(x)

    assert t.wrap(node, "node")(2) == 9
    assert list(t.span_parent) == [-1, 0, 0]
    summary = t.summarize()
    assert summary["node"]["calls"] == 1 and summary["leaf"]["calls"] == 2
    assert summary["node"]["self_s"] >= 0.0


# -------------------------------------------------------------- wrap / unwrap

def _holders():
    """Every (owner, name) -> object for the targets, across loaded modules."""
    import deformzeros.cli  # noqa: F401  (loads every module)

    mods = [m for n, m in sys.modules.items() if n.startswith("deformzeros")]
    out = {}
    for _, mod_name, attr in tracer.TARGETS:
        owner_name, _, fn = attr.rpartition(".")
        mod = sys.modules[mod_name]
        if owner_name:
            owner = getattr(mod, owner_name)
            out[(owner, fn)] = vars(owner)[fn]
            continue
        original = getattr(mod, fn)
        for m in mods:
            for name, value in vars(m).items():
                if value is original:
                    out[(m, name)] = value
    return out


def test_uninstall_restores_original_objects():
    before = _holders()
    import deformzeros.cli as cli
    import deformzeros.deformation as deformation
    from deformzeros.analytic import FunctionSpec

    t = tracer.Tracer()
    t.install()
    try:
        assert not t.missing
        # a name imported into other modules is patched in each of them
        assert hasattr(cli.scan_line_zeros, "__perfbench_original__")
        assert hasattr(deformation.scan_line_zeros, "__perfbench_original__")
        assert hasattr(vars(FunctionSpec)["__call__"], "__perfbench_original__")
        for (owner, name), original in before.items():
            assert getattr(owner, name) is not original, (owner, name)
        from deformzeros.analytic import zeta_spec

        zeta_spec()(0.5 + 14j)
    finally:
        t.uninstall()
    for (owner, name), original in before.items():
        assert vars(owner)[name] is original, (owner, name)
    summary = t.summarize()
    assert summary["analytic.spec_eval"]["calls"] == 1
    assert summary["analytic.hurwitz_zeta"]["calls"] == 1
    assert summary["analytic.zeta_reg"]["calls"] == 1
    assert t.counters["endpoint_evals"] == 1


def test_missing_target_is_reported_not_fatal():
    t = tracer.Tracer()
    t.install([("x.gone", "deformzeros.analytic", "no_such_function")])
    t.uninstall()
    assert t.missing == ["deformzeros.analytic.no_such_function"]


# ------------------------------------------------------------------ oracles

GOOD_REPORT = {
    "claims": dict(workloads.REPORT_CLAIMS),
    "pairing": {"completed": 10, "lost": 1, "lost_detail": [{"last_tau": 0.9264856577}]},
}
TAU_STAR = 0.926485681002150
TRACK_STDOUT = "# deform-zeros v1\nfamily,q=7,kappa=1\ncompleted,7\nmerged,0\nlost,0\nfiles,6\n"
TRACK_CSV = "# deform-zeros v1\ntrajectory_id,tau,t,abs_phi\n0,0,3.93,1e-10\n0,0.015625,3.94,2e-10\n"


def test_report_oracle_accepts_seed_like_report_and_reads_digits():
    files = {"report.json": json.dumps(GOOD_REPORT).encode()}
    digits = workloads.check_report_q5(1, "", files, TAU_STAR)
    assert digits == pytest.approx(7.63, abs=0.01)


def test_track_oracle_accepts_good_rows():
    files = {"track/trajectories.csv": TRACK_CSV.encode()}
    worst = 2e-10
    assert workloads.check_track_odd7(0, TRACK_STDOUT, files, None) == pytest.approx(math.log10(1e-7 / worst))


@pytest.mark.parametrize(
    "code,report",
    [
        (1, {**GOOD_REPORT, "pairing": {**GOOD_REPORT["pairing"], "lost": 0}}),
        (0, GOOD_REPORT),
        (1, {**GOOD_REPORT, "pairing": {**GOOD_REPORT["pairing"], "lost_detail": [{"last_tau": 0.9265}]}}),
        (1, {**GOOD_REPORT, "claims": {**GOOD_REPORT["claims"], "all_trajectories_complete": "PASS"}}),
    ],
)
def test_report_oracle_rejects_doctored_report(code, report):
    with pytest.raises(workloads.OracleFailure):
        workloads.check_report_q5(code, "", {"report.json": json.dumps(report).encode()}, TAU_STAR)


def test_track_oracle_rejects_large_abs_phi():
    bad = TRACK_CSV + "0,0.03125,3.95,1e-06\n"
    with pytest.raises(workloads.OracleFailure):
        workloads.check_track_odd7(0, TRACK_STDOUT, {"track/trajectories.csv": bad.encode()}, None)


def test_sweep_oracles_check_verdict_and_counts():
    assert workloads.check_verify_fe(0, "verdict,PASS\nmax_residual,1e-13\n", {}, None) == pytest.approx(5.0)
    with pytest.raises(workloads.OracleFailure):
        workloads.check_verify_fe(1, "verdict,FAIL\nmax_residual,1e-7\n", {}, None)
    workloads.check_zeros_verify(0, "winding_count,11\nline_count,11\nverdict,PASS\n", {}, None)
    with pytest.raises(workloads.OracleFailure):
        workloads.check_zeros_verify(0, "winding_count,12\nline_count,11\nverdict,PASS\n", {}, None)


FAKE_CLI = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    def main(argv):
        if argv[0] not in ("report", "track"):
            raise RuntimeError("unexpected command")
        out = argv[argv.index("--out") + 1]
        if argv[0] == "report":
            rep = {REPORT}
            rep["pairing"]["lost"] = 0
            Path(out).write_text(json.dumps(rep))
            return 1
        if argv[0] == "track":
            Path(out).mkdir(parents=True, exist_ok=True)
            Path(out, "trajectories.csv").write_text({CSV!r} + "0,0.03125,3.95,1e-06\\n")
            print({STDOUT!r})
            return 0
    """
)


def test_worker_counts_doctored_outputs_as_failed_ops(tmp_path):
    pkg = tmp_path / "src" / "deformzeros"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        FAKE_CLI.replace("{REPORT}", repr(GOOD_REPORT))
        .replace("{CSV!r}", repr(TRACK_CSV))
        .replace("{STDOUT!r}", repr(TRACK_STDOUT))
    )
    ops = (
        workloads.make_ops("report-q5", 1)
        + workloads.make_ops("track-odd7", 1)
        + [{"argv": ["chars"], "check": "verify_fe"}]  # raises inside main
    )
    spec = {"src": str(tmp_path / "src"), "scratch": str(tmp_path), "ops": ops, "tau_star": TAU_STAR}
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True, env=dict(env, PYTHONPATH=str(tmp_path / "src")),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [op["ok"] for op in res["ops"]] == [False, False, False]
    assert "lost 0" in res["ops"][0]["error"]
    assert "abs_phi 1e-06" in res["ops"][1]["error"]
    assert "RuntimeError" in res["ops"][2]["error"]
    assert list(tmp_path.glob("pass-*")) == []


# ------------------------------------------------------------- seeded inputs

def test_same_seed_gives_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make_ops(name, 7) == workloads.make_ops(name, 7)
    assert workloads.sweep_taus(1) != workloads.sweep_taus(2)
    assert workloads.track_t_max(1) != workloads.track_t_max(2)
    taus = workloads.sweep_taus(3)
    assert taus[0] == 0.0 and taus[-1] == 1.0 and len(taus) == 2 + workloads.SWEEP_INTERIOR_TAUS
    assert all(0.0 < t < 1.0 for t in taus[1:-1])
    lo, hi = workloads.TRACK_T_RANGE
    assert all(lo <= workloads.track_t_max(s) <= hi for s in range(50))


def test_inputs_do_not_depend_on_hash_seed():
    code = "import workloads; print(workloads.make_ops('sweep-q8', 5), workloads.make_ops('track-odd7', 5))"
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONHASHSEED=h),
        ).stdout
        for h in ("1", "2")
    }
    assert len(outs) == 1 and "--tau" in outs.pop()


# ------------------------------------------------------------------ contract

def test_benchmark_json_lists_the_metrics_run_py_prints():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep-q8", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
