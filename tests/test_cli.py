"""Exit codes, output shapes, config handling, and determinism of the CLI."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformzeros.characters import catalog_modulus
from deformzeros import cli
from deformzeros.cli import COMMANDS, _FLAG_RULES, SIGMA_LIMITS, _validate, build_parser, main
from deformzeros.deformation import (
    REPORT_T_MAX,
    LineSamples,
    pair_zeros,
    run_claim_report,
    standard_family,
)
from deformzeros.errors import DomainError
from deformzeros.zerofind import SCAN_STEP, count_zeros_box, scan_line_zeros, verify_on_line

ZETA_ZEROS = [14.1347251417346938, 21.0220396387715550, 25.0108575801456888]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    lines = text.splitlines()
    assert lines[0] == "# deform-zeros v1"
    return lines[2:]


# ------------------------------------------------------------------- chars

def test_chars_even_catalog(capsys):
    code, out, _ = run(["chars", "--parity", "even", "--qmax", "21"], capsys)
    assert code == 0
    rows = data_rows(out)
    qs = {int(r.split(",")[0]) for r in rows}
    assert qs == {5, 8, 10, 12, 13, 15, 17, 21}
    five = next(r.split(",") for r in rows if r.startswith("5,"))
    assert five[1] == "2"  # label
    assert five[4] == "yes"  # primitive
    assert abs(float(five[5]) - 1.0) < 1e-9  # epsilon = +1
    assert abs(float(five[6])) < 1e-9
    ten = next(r.split(",") for r in rows if r.startswith("10,"))
    assert ten[3] == "5"  # induced from the conductor-5 character
    assert ten[4] == "no"


def test_chars_odd_catalog(capsys):
    code, out, _ = run(["chars", "--parity", "odd", "--qmax", "19"], capsys)
    assert code == 0
    qs = {int(r.split(",")[0]) for r in data_rows(out)}
    assert qs >= {3, 4, 6, 7, 11, 12, 14, 15, 19}


def test_chars_below_first_modulus_is_empty(capsys):
    code, out, _ = run(["chars", "--qmax", "2"], capsys)
    assert code == 0
    assert data_rows(out) == []


def test_chars_rejects_bad_qmax(capsys):
    code, _, err = run(["chars", "--qmax", "0"], capsys)
    assert code == 2
    assert "usage error" in err


def test_chars_json(capsys):
    code, out, _ = run(["chars", "--qmax", "8", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [d["q"] for d in payload] == [5, 8]
    assert payload[0]["primitive"] is True
    assert abs(payload[0]["epsilon"][0] - 1.0) < 1e-9


# sha256 of the whole q <= 200 catalog, CSV and JSON: membership and the
# measured epsilon columns, rounding noise included, are pinned byte for byte
CHARS_200_SHA256 = {
    ("even", False): "5bab14e772f93977054bd0fc5e088b2de498e59d5edcf5c17e904c6c340158ea",
    ("odd", False): "227fcf8cfceada7d4abd3f4eda38fc872070ead14e00931a9bfb22e51657a1bc",
    ("even", True): "0b23a179187dc676d55f37e0eb3b8680a46de0bab5a37460ba336eb86982f8bf",
    ("odd", True): "1e3b87cfca5b348dec274cf4476cca8329714dead9ec48e9f6f5653cf8946bad",
}


@pytest.mark.parametrize("parity,as_json", sorted(CHARS_200_SHA256))
def test_chars_qmax_200_output_is_pinned(parity, as_json, capsys):
    argv = ["chars", "--parity", parity, "--qmax", "200"] + ["--json"] * as_json
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CHARS_200_SHA256[parity, as_json]


# --------------------------------------------------------------- verify-fe

def test_verify_fe_family_member_passes(capsys):
    code, out, _ = run(["verify-fe", "--family", "q5", "--tau", "0.5"], capsys)
    assert code == 0
    assert "function,phi(tau=0.5)" in out
    assert "verdict,PASS" in out
    worst = float(next(ln for ln in out.splitlines() if ln.startswith("max_residual")).split(",")[1])
    assert worst < 1e-8


def test_verify_fe_detects_wrong_equation(capsys):
    code, out, _ = run(["verify-fe", "--f", "zeta", "--fe", "q8"], capsys)
    assert code == 1
    assert "verdict,FAIL" in out


def test_verify_fe_rejects_tau_outside_unit_interval(capsys):
    code, _, err = run(["verify-fe", "--family", "q5", "--tau", "1.5"], capsys)
    assert code == 2
    assert "usage error" in err


def test_verify_fe_zeta_natural_equation(capsys):
    code, out, _ = run(["verify-fe", "--f", "zeta"], capsys)
    assert code == 0
    assert "verdict,PASS" in out


def test_verify_fe_lists_skipped_pole_points(capsys):
    # the grid corner sits exactly on the pole of zeta; the sweep must skip
    # and list it rather than fail
    code, out, _ = run(["verify-fe", "--f", "zeta", "--sigma", "1:2", "--t", "0:29"], capsys)
    assert code == 0
    assert "skipped,1" in out
    assert any(ln.startswith("skipped_point,1,0,") for ln in out.splitlines())


def test_verify_fe_lists_w_factor_poles(capsys):
    # W(s) has poles at s = 3 and 5 for kappa = 0; a sweep that shares W
    # across its functions hands each one the PoleError to raise
    argv = ["verify-fe", "--family", "q5", "--tau", "0.5", "--sigma", "3:5", "--t", "0:1"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-4:] == [
        "skipped,2",
        "skipped_point,3,0,W factor pole at s = 3 (kappa = 0)",
        "skipped_point,5,0,W factor pole at s = 5 (kappa = 0)",
        "verdict,PASS",
    ]


def test_verify_fe_with_every_point_skipped_is_a_numerical_failure(capsys):
    # all 400 grid points lie within 1e-8 of zeta's pole at s = 1: the sweep
    # has no residual to report, a numerical failure with one message
    argv = ["verify-fe", "--f", "zeta", "--sigma", "0.999999999:1.000000001", "--t", "0:1e-9"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err == "numerical failure: every grid point was skipped; nothing to report\n"


# ------------------------------------------------------------------- zeros

def test_zeros_scan_zeta(capsys):
    code, out, _ = run(["zeros", "scan", "--f", "zeta", "--t", "1:30"], capsys)
    assert code == 0
    rows = data_rows(out)
    assert len(rows) == 3
    for row, want in zip(rows, ZETA_ZEROS):
        assert abs(float(row.split(",")[0]) - want) < 1e-6


def test_zeros_scan_pinned_ordinate(capsys):
    code, out, _ = run(["zeros", "scan", "--f", "f0", "--q", "5", "--t", "0:2"], capsys)
    assert code == 0
    rows = data_rows(out)
    assert len(rows) == 1
    t, _, kind, _ = rows[0].split(",")
    assert abs(float(t) - math.pi / math.log(5)) < 1e-6
    assert kind == "trivial_factor"


def test_zeros_scan_family_endpoint(capsys):
    code, out, _ = run(["zeros", "scan", "--family", "q5", "--tau", "1", "--t", "1:12"], capsys)
    assert code == 0
    got = [float(r.split(",")[0]) for r in data_rows(out)]
    want = [6.64845334472771472, 9.83144443288666962, 11.9588456260835145]
    assert len(got) == 3
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-6


@pytest.mark.parametrize("command", [["zeros", "scan", "--t", "1:20"], ["verify-fe"]], ids=" ".join)
def test_f0_follows_parity(command, capsys):
    # --f f0 is the tau = 0 member of the family of its --q and --parity
    f0 = run(command + ["--f", "f0", "--q", "7", "--parity", "odd"], capsys)
    member = run(command + ["--family", "q7", "--parity", "odd", "--tau", "0"], capsys)
    assert f0 == member and f0[0] == 0
    # the even f0 needs no catalog entry, and mod 7 there is none
    assert catalog_modulus(7, 0) == []
    code, out, _ = run(command + ["--f", "f0", "--q", "7"], capsys)
    assert code == 0 and out != f0[1]


def test_zeros_count_box(capsys):
    code, out, _ = run(["zeros", "count", "--f", "zeta", "--box", "-1:2:1:30"], capsys)
    assert code == 0
    assert "winding_count,3" in out
    assert "line_count,3" in out


@pytest.mark.parametrize(
    "argv, lines",
    [
        # the right edge at sigma = 2 is certified: 1 - B(2) of f0
        (["--family", "q7", "--parity", "odd", "--tau", "0", "--box", "-1:2:1:30"],
         ["box,-1,2,1,30", "winding_count,12", "line_count,12",
          "boundary_min_modulus,1.05613808957", "certified_margin,0.676969092291"]),
        # no edge reaches Re s > 1, so none is certified and the line is empty
        (["--f", "zeta", "--box", "0:1:1:30"],
         ["box,0,1,1,30", "winding_count,3", "line_count,3",
          "boundary_min_modulus,0.326242513305", "certified_margin,"]),
    ],
    ids=["certified", "uncertified"],
)
def test_zeros_count_prints_the_certified_margin(argv, lines, capsys):
    code, out, _ = run(["zeros", "count", *argv], capsys)
    assert code == 0
    assert out.splitlines() == ["# deform-zeros v1", *lines]


def test_zeros_verify_family(capsys):
    code, out, _ = run(
        ["zeros", "verify", "--family", "q5", "--tau", "0.25", "--box", "-1:2:1:30"],
        capsys,
    )
    assert code == 0
    assert "verdict,PASS" in out
    assert "winding_count,11" in out
    assert "line_count,11" in out


VERIFY_Q7_ODD_FAIL = """# deform-zeros v1
box,-1,2,1,40
winding_count,18
line_count,16
verdict,FAIL
discrepancy,-1,2,31.544921875,31.62109375,2,0
"""


def test_fail_localisation_counts_each_box_once(monkeypatch, capsys):
    from deformzeros import zerofind

    boxes = []
    count = zerofind.count_zeros_box

    def counted(f, rect, step):
        boxes.append(rect)
        return count(f, rect, step)

    monkeypatch.setattr(zerofind, "count_zeros_box", counted)
    argv = ["zeros", "verify", "--family", "q7", "--parity", "odd", "--tau", "0.3", "--box", "-1:2:1:40"]
    assert run(argv, capsys) == (1, VERIFY_Q7_ODD_FAIL, "")
    # the top box and both halves of each of the 9 boxes split
    assert len(boxes) == 19 == len(set(boxes))


# each box holds a trivial zero on the real axis, which the winding counts
# and no line count can; the last has s = -1 on its corner, where the
# perturbed retry pulls it inside
_TRIVIAL_ZERO_BOXES = [
    (["--f", "L", "--q", "5", "--box", "-1:2:-1:10"], 0),  # L(0, chi) = 0
    (["--family", "q7", "--parity", "odd", "--tau", "0.5", "--box", "-2:3:-1:10"], -1),
    (["--f", "zeta", "--box", "-2.5:0.9:-1:5"], -2),
    (["--family", "q3", "--parity", "odd", "--tau", "0.5", "--box", "-1:2:0:5"], -1),
]


@pytest.mark.parametrize("argv, zero", _TRIVIAL_ZERO_BOXES,
                         ids=["L5", "q7-odd", "zeta", "q3-odd-corner"])
def test_verify_rejects_a_box_holding_a_trivial_zero(argv, zero, monkeypatch, capsys):
    from deformzeros import zerofind

    def no_contour(*args, **kwargs):
        raise AssertionError("a contour was wound")

    monkeypatch.setattr(zerofind, "count_zeros_box", no_contour)
    code, out, err = run(["zeros", "verify", *argv], capsys)
    assert (code, out) == (2, "")
    assert f"trivial zero s = {zero} of" in err


@pytest.mark.parametrize("argv", [["--f", "L", "--q", "5", "--box", "0.1:0.9:-10:10"],
                                  ["--family", "q5", "--tau", "0.5", "--box", "-0.5:0.9:-1:5"]],
                         ids=" ".join)
def test_verify_passes_a_box_clear_of_trivial_zeros(argv, capsys):
    # L(chi 5) has its trivial zero s = 0 left of the first box; phi_0.5 has
    # the zeta pole, so its nearest trivial zero is s = -2, not s = 0
    code, out, _ = run(["zeros", "verify", *argv], capsys)
    assert code == 0
    assert "verdict,PASS" in out


def test_zeros_t_range_is_bounded(capsys):
    code, _, err = run(["zeros", "scan", "--f", "zeta", "--t", "0:65"], capsys)
    assert code == 2
    assert "|t| <= 60" in err


def test_zeros_scan_needs_t(capsys):
    code, _, err = run(["zeros", "scan", "--f", "zeta"], capsys)
    assert code == 2
    assert "needs --t" in err


def test_zeros_count_needs_box(capsys):
    code, _, err = run(["zeros", "count", "--f", "zeta"], capsys)
    assert code == 2
    assert "needs --box" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan", "--t", "1:15", "--box", "nonsense"],
         "box must look like sigma1:sigma2:t1:t2, got 'nonsense'"),
        (["count", "--box=-1:2:1:15", "--t", "5:1"], "t range needs t1 < t2, got '5:1'"),
    ],
    ids=["scan_box", "count_t"],
)
def test_zeros_checks_the_flag_its_action_does_not_read(argv, message, capsys):
    assert run(["zeros", *argv, "--f", "zeta"], capsys) == (2, "", f"usage error: {message}\n")


# ------------------------------------------------------------------- track

@pytest.mark.parametrize(
    "box, message",
    [
        ("0:2:-1:1", "pole of zeta at (1+0j) on or inside the contour "
                     "Rect(sigma1=0.0, sigma2=2.0, t1=-1.0, t2=1.0)"),
        ("2:0:1:5", "need sigma1 < sigma2, got [2.0, 0.0]"),
    ],
    ids=["pole_inside", "sigmas_reversed"],
)
def test_box_usage_errors_print_the_record(box, message, capsys):
    # the two usage errors whose text shows a Rect or its checked fields
    argv = ["zeros", "count", "--f", "zeta", "--box", box]
    assert run(argv, capsys) == (2, "", f"usage error: {message}\n")


def test_track_writes_figure_data(tmp_path, capsys):
    code, out, _ = run(["track", "--family", "q5", "--t", "0:30", "--out", str(tmp_path)], capsys)
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "trajectories.csv",
        "zeros_tau0.25.csv",
        "zeros_tau0.5.csv",
        "zeros_tau0.75.csv",
        "zeros_tau0.csv",
        "zeros_tau1.csv",
    ]
    assert "n0,12" in out
    assert "n1,11" in out
    assert "pairs,10" in out
    assert "lost,1" in out
    tau0 = (tmp_path / "zeros_tau0.csv").read_text().splitlines()
    tau1 = (tmp_path / "zeros_tau1.csv").read_text().splitlines()
    assert len(tau0) - 2 == 11
    assert len(tau1) - 2 == 11
    traj = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert traj[0] == "# deform-zeros v1"
    assert traj[1] == "trajectory_id,tau,t,abs_phi"
    ids = {int(r.split(",")[0]) for r in traj[2:]}
    assert ids == set(range(11))


def test_track_below_first_zero_is_empty(tmp_path, capsys):
    code, out, _ = run(["track", "--family", "q5", "--t", "0:0.5", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "n0,0" in out
    assert "pairs,0" in out
    for name in ("zeros_tau0.csv", "trajectories.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 2  # headers only


def test_track_ends_where_the_report_ends(tmp_path, capsys):
    # both read each branch on the same scan grid, so every completed
    # trajectory of track ends on the report's end zero, digit for digit
    code, _, _ = run(["track", "--family", "q5", "--t", "1:30", "--out", str(tmp_path)], capsys)
    assert code == 0
    first, last = {}, {}
    for row in (tmp_path / "trajectories.csv").read_text().splitlines()[2:]:
        tid, tau, t, _ = row.split(",")
        first.setdefault(tid, t)
        last[tid] = (tau, t)
    track_ends = {first[tid]: t for tid, (tau, t) in last.items() if tau == "1"}
    code, _, _ = run(["report", "--q", "5", "--out", str(tmp_path / "q5.json")], capsys)
    assert code == 1
    endpoints = json.loads((tmp_path / "q5.json").read_text())["pairing"]["endpoints"]
    assert len(endpoints) == len(track_ends) == 10
    assert track_ends == {f"{a:.12g}": f"{b:.12g}" for a, b in endpoints}


def test_track_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["track", "--family", "q5", "--t", "10:20", "--out", str(a)], capsys)
    run(["track", "--family", "q5", "--t", "10:20", "--out", str(b)], capsys)
    for p in sorted(a.iterdir()):
        assert p.read_bytes() == (b / p.name).read_bytes()


# ------------------------------------------------------------------ report

def test_report_documents_failures_and_exits_one(tmp_path, capsys):
    out_file = tmp_path / "q5.json"
    code, out, _ = run(["report", "--q", "5", "--out", str(out_file)], capsys)
    assert code == 1  # measured claim failures; the report is still complete
    rep = json.loads(out_file.read_text())
    assert rep["chi_label"] == catalog_modulus(5, 0)[0].character.label
    assert rep["claims"]["all_trajectories_complete"] == "FAIL"
    assert rep["claims"]["preserved_trivial_zeros"] == "FAIL"
    assert rep["claims"]["shared_fe"] == "PASS"
    assert rep["claims"]["all_zeros_on_line"] == "PASS"
    assert rep["claims"]["count_gap_at_most_one"] == "PASS"
    assert rep["pairing"]["lost_detail"][0]["last_t"] < 1e-2
    assert out == ""  # --out given, nothing on stdout


def test_report_stdout_and_determinism(capsys):
    code, out, _ = run(["report", "--q", "3", "--parity", "odd", "--tmax", "20"], capsys)
    assert code == 1  # the watched ordinates carry no zeros of L
    rep = json.loads(out)
    assert rep["chi_label"] == catalog_modulus(3, 1)[0].character.label
    assert rep["fe"]["kappa"] == 1
    assert rep["family"]["degenerate"] is True
    code2, out2, _ = run(["report", "--q", "3", "--parity", "odd", "--tmax", "20"], capsys)
    assert out2 == out


def test_report_builds_one_catalog_of_modulus_q_only(tmp_path, monkeypatch, capsys):
    import deformzeros.characters as characters
    import deformzeros.cli as cli
    import deformzeros.deformation as deformation

    moduli, builds = [], []
    enumerate_characters = characters.enumerate_characters

    def recording(q):
        moduli.append(q)
        return enumerate_characters(q)

    def counting(q, parity):
        builds.append((q, parity))
        return catalog_modulus(q, parity)

    monkeypatch.setattr(characters, "enumerate_characters", recording)
    monkeypatch.setattr(deformation, "catalog_modulus", counting)
    out_file = tmp_path / "q8.json"
    code, _, _ = run(["report", "--q", "8", "--out", str(out_file)], capsys)
    assert code == 1  # a lost trajectory, as for q = 5
    rep = json.loads(out_file.read_text())
    assert rep["q"] == 8
    assert builds == [(8, 0)]
    assert moduli and set(moduli) == {8}
    assert rep["chi_label"] == catalog_modulus(8, 0)[0].character.label


def test_report_rejects_modulus_without_characters(capsys):
    code, _, err = run(["report", "--q", "1"], capsys)
    assert code == 2
    assert "usage error" in err


def test_report_rejects_oversized_tmax(capsys):
    code, _, err = run(["report", "--q", "5", "--tmax", "61"], capsys)
    assert code == 2
    assert "usage error" in err


# ---------------------------------------------------------------- verdicts

def _verdicts(out):
    """Every verdict a command printed: its verdict lines, or a report's
    on_line verdicts, preserved-zeros verdict and claims."""
    if out.startswith("{"):
        rep = json.loads(out)
        return [*(v["verdict"] for v in rep["on_line"].values()),
                rep["watch"]["preserved_zeros_verdict"], *rep["claims"].values()]
    return [ln.split(",")[1] for ln in out.splitlines() if ln.startswith("verdict,")]


VERIFY_FE_Q5 = ["verify-fe", "--family", "q5", "--tau", "0.5"]
VERIFY_Q5 = ["zeros", "verify", "--family", "q5", "--tau", "0.25", "--box", "-1:2:14:14.5"]
REPORT_Q5 = ["report", "--q", "5", "--tmax", "10"]


@pytest.mark.parametrize("argv", [VERIFY_FE_Q5, VERIFY_Q5, REPORT_Q5], ids=lambda a: a[0])
def test_every_verdict_comes_from_the_one_rule(argv, monkeypatch, capsys):
    from deformzeros import zerofind

    assert "PASS" in _verdicts(run(argv, capsys)[1])
    # rebind the rule, wherever the package imported it, to one that always fails
    rule = zerofind.verdict_of
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "deformzeros" and getattr(module, "verdict_of", None) is rule:
            monkeypatch.setattr(module, "verdict_of", lambda parts: "FAIL")
    code, out, _ = run(argv, capsys)
    assert code == 1
    verdicts = _verdicts(out)
    assert verdicts and set(verdicts) == {"FAIL"}


EXIT_CODES = [
    (VERIFY_FE_Q5, 0),
    ([*VERIFY_FE_Q5, "--tol", "1e-20"], 1),
    (VERIFY_Q5, 0),
    (["zeros", "verify", "--family", "q7", "--parity", "odd", "--tau", "0.3",
      "--box", "-1:2:31.5:31.7"], 1),
    (REPORT_Q5, 1),
    (["zeros", "count", "--family", "q7", "--parity", "odd", "--tau", "0.3",
      "--box", "-1:2:31.5:31.7"], 0),
    (["zeros", "scan", "--f", "zeta", "--t", "1:15"], 0),
    (["chars", "--qmax", "8"], 0),
]


@pytest.mark.parametrize("argv, code", EXIT_CODES, ids=[" ".join(a) for a, _ in EXIT_CODES])
def test_exit_code_is_one_only_for_a_fail_verdict(argv, code, capsys):
    got, out, err = run(argv, capsys)
    assert (got, err) == (code, "")
    assert code == ("FAIL" in _verdicts(out))


def test_q7_odd_tau_c_lies_between_two_verify_runs(capsys):
    # R of the odd q = 7 family has an interior extremum (t_c, tau_c) near
    # t = 31.586, where an off-line pair lands on the line; on a 0.001 grid
    # the box sees the pair off the line just below tau_c and on it just above
    box = ["--family", "q7", "--parity", "odd", "--box", "-1:2:31.5:31.7", "--step", "0.001"]
    head = "# deform-zeros v1\nbox,-1,2,31.5,31.7\nwinding_count,2\n"
    assert run(["zeros", "verify", "--tau", "0.3430", *box], capsys) == (
        1, head + "line_count,0\nverdict,FAIL\ndiscrepancy,-1,2,31.55,31.6,2,0\n", "")
    assert run(["zeros", "verify", "--tau", "0.3431", *box], capsys) == (
        0, head + "line_count,2\nverdict,PASS\n", "")
    # the pairing of `report --q 7 --parity odd --tmax 40`
    ((t_c, tau_c),) = pair_zeros(standard_family(7, 1), (1.0, 40.0)).r_extrema
    assert abs(t_c - 31.586135) < 1e-6
    assert 0.3430 < tau_c < 0.3431


def test_a_walk_does_not_skip_the_turn_of_a_close_pair(capsys):
    # the q = 7 odd pair sits just above the top edge at 0.5 +- 0.005 +
    # 31.5861i: the box holds no zero; the whole boundary counted 1 here,
    # the two right halves of the mirror identity count 0
    argv = ["zeros", "count", "--family", "q7", "--parity", "odd", "--tau", "0.343",
            "--box", "-1.013:2.5:31:31.583"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "winding_count,0" in out.splitlines()


def test_a_finer_walk_counts_no_zero_below_the_close_pair(capsys):
    # the box of the test above, walked at a 0.01 step, winds 0 times
    argv = ["zeros", "count", "--family", "q7", "--parity", "odd", "--tau", "0.343",
            "--box", "-1.013:2.5:31:31.583", "--step", "0.01"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "winding_count,0" in out.splitlines()


# a known defect, pinned by the output it should give; its fix must flip
# the xfail (ROADMAP item 10)

@pytest.mark.xfail(strict=True, reason="a 0.05 line cell hides a pair (ROADMAP item 10)")
def test_verify_sees_a_pair_inside_one_line_cell(capsys):
    # both zeros lie on the line, at t ~ 31.578 and 31.594, inside one 0.05
    # cell; `--step 0.001` gives PASS today
    argv = ["zeros", "verify", "--family", "q7", "--parity", "odd", "--tau", "0.3431",
            "--box", "-1:2:31.5:31.7"]
    head = "# deform-zeros v1\nbox,-1,2,31.5,31.7\nwinding_count,2\n"
    assert run(argv, capsys) == (0, head + "line_count,2\nverdict,PASS\n", "")


# ------------------------------------------------------------------ config

def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep settings\ntau = 0.25\n")
    code, out, _ = run(["verify-fe", "--family", "q5", "--config", str(cfg)], capsys)
    assert code == 0
    assert "function,phi(tau=0.25)" in out


def test_config_takes_its_path_joined_or_apart(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 0.25\n")
    apart = run(["verify-fe", "--family", "q5", "--config", str(cfg)], capsys)
    joined = run(["verify-fe", "--family", "q5", f"--config={cfg}"], capsys)
    assert joined == apart and apart[0] == 0


@pytest.mark.parametrize("last", ["--config", "--config="])
def test_config_without_a_path_is_a_usage_error(last, capsys):
    code, out, err = run(["verify-fe", "--family", "q5", last], capsys)
    assert (code, out) == (2, "")
    assert err == "usage error: --config needs a file path\n"


def test_explicit_flags_beat_the_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 1.5\n")
    code, out, _ = run(
        ["verify-fe", "--family", "q5", "--config", str(cfg), "--tau", "0.5"], capsys
    )
    assert code == 0
    assert "function,phi(tau=0.5)" in out
    # without the override the config value is used and rejected
    code, _, err = run(["verify-fe", "--family", "q5", "--config", str(cfg)], capsys)
    assert code == 2
    assert "tau" in err


def test_config_rejects_malformed_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no separator here\n")
    code, _, err = run(["verify-fe", "--family", "q5", "--config", str(cfg)], capsys)
    assert code == 2
    assert "key=value" in err


def test_config_missing_file(capsys):
    code, _, err = run(["verify-fe", "--family", "q5", "--config", "/nonexistent.cfg"], capsys)
    assert code == 2
    assert "cannot read config file" in err


@pytest.mark.parametrize("second", [["--config", "{cfg}"], ["--config={cfg}"]], ids=["apart", "joined"])
@pytest.mark.parametrize("first", [["--config", "{cfg}"], ["--config={cfg}"]], ids=["apart", "joined"])
def test_config_given_twice_is_a_usage_error(first, second, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 0.25\n")
    flags = [tok.format(cfg=cfg) for tok in first + second]
    code, out, err = run(["verify-fe", "--family", "q5", *flags], capsys)
    assert (code, out, err) == (2, "", "usage error: --config may be given once\n")


def test_config_file_that_sets_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"config = {cfg}\n")
    code, out, err = run(["verify-fe", "--family", "q5", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == f"usage error: --config may be given once, and {cfg} gives it again: 'config = {cfg}'\n"


def test_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe")
    code, out, err = run(["verify-fe", "--family", "q8", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: cannot read config file") and err.count("\n") == 1, err


# ------------------------------------------------------------------- parser

# per command: argument lists it parses, asks help for, or rejects (a bad
# type, choice or flag, a missing value, positional or required flag)
_PARSE_CASES = {
    "chars": [[], ["--parity", "odd", "--qmax", "30", "--json"], ["--help"], ["--qmax", "x"],
              ["--parity", "neither"], ["--bogus"], ["extra"]],
    "verify-fe": [["--family", "q8", "--tau", "0.37"],
                  ["--f", "L", "--q", "5", "--sigma=-1:2", "--t", "1:5", "--tol", "1e-9", "--fe", "q5"],
                  ["-h"], ["--tau", "x"], ["--f", "xi"], ["--tau"], ["--steps", "4"]],
    "zeros": [["scan", "--f", "zeta", "--t", "1:20"],
              ["verify", "--family", "q8", "--box=-1:2:1:30", "--step", "0.1"],
              ["--help"], [], ["dance"], ["count", "--step", "x"], ["scan", "--bogus"]],
    "track": [["--family", "q5"], ["--family", "q7", "--parity", "odd", "--t", "1:20", "--out", "x"],
              ["--help"], [], ["--family", "q5", "--step", "x"], ["--family", "q5", "--steps", "64"]],
    "report": [["--q", "5"], ["--q", "7", "--parity", "odd", "--tmax", "40", "--out", "r.json"],
               ["--help"], [], ["--q", "5.5"], ["--q", "5", "--tau", "0"]],
}


def _parse_outcome(parser, argv, capsys):
    """What parser makes of argv: its Namespace, its usage error, or the
    exit code and the text of its help."""
    try:
        return vars(parser.parse_args(argv))
    except DomainError as exc:
        return str(exc)
    except SystemExit as exc:
        return exc.code, capsys.readouterr().out


def test_parse_cases_cover_every_command():
    assert sorted(_PARSE_CASES) == sorted(COMMANDS)


@pytest.mark.parametrize("command", sorted(_PARSE_CASES))
def test_a_command_parsed_alone_parses_as_among_all(command, capsys):
    kinds = set()
    for argv in _PARSE_CASES[command]:
        argv = [command, *argv]
        alone = _parse_outcome(build_parser(command), argv, capsys)
        assert alone == _parse_outcome(build_parser(), argv, capsys), argv
        kinds.add(type(alone))
    assert kinds == {dict, str, tuple}


@pytest.mark.parametrize("argv", [["verify-fe", "--family", "q5", "--tau", "x"], ["zeros", "-h"],
                                  ["--help"], ["-h", "chars"], ["bogus"], [], ["--q", "5"]],
                         ids=" ".join)
def test_main_builds_the_named_command_alone(argv, monkeypatch, capsys):
    # a leading command builds its own subparser; anything else builds all
    # five, with the full parser's help and rejections
    built = []

    def spy(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    code, out, err = run(argv, capsys)
    want = argv[0] if argv and argv[0] in COMMANDS else None
    assert built == [want]
    full = _parse_outcome(build_parser(), argv, capsys)
    if isinstance(full, tuple):
        assert (code, out, err) == (*full, "")
    else:
        assert (code, out, err) == (2, "", f"usage error: {full}\n")


# ------------------------------------------------------------------- misc

def test_unknown_command_is_usage_error(capsys):
    assert run(["bogus"], capsys)[0] == 2
    assert run([], capsys)[0] == 2


def test_function_selector_is_required(capsys):
    code, _, err = run(["verify-fe"], capsys)
    assert code == 2
    assert "--family" in err or "--f" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["zeros", "scan", "--f", "L", "--q", "10", "--t", "1:10"],
        ["report", "--q", "10"],
        ["verify-fe", "--family", "q10", "--tau", "0"],
        ["verify-fe", "--family", "q10", "--tau", "1"],
    ],
    ids=" ".join,
)
def test_modulus_without_a_primitive_entry_is_a_usage_error(argv, capsys):
    # the only even entry mod 10 is induced from conductor 5; the family's
    # even f0 needs no entry, yet the family does
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "no primitive real character mod 10" in err


# --------------------------------------------------------- input contract

# everything a command could start computing with
_ENTRY_POINTS = (
    "catalog_self_dual", "named_function", "standard_family",
    "residual_sweep",
    "scan_line_zeros", "count_zeros_box", "verify_on_line", "pair_zeros", "run_claim_report",
)


def _computed(*args, **kwargs):
    raise AssertionError("computation started before the flags were checked")


BAD_NUMERIC_FLAGS = [
    ["zeros", "scan", "--family", "q5", "--t", "1:30", "--step", "nan"],
    ["zeros", "scan", "--family", "q5", "--t", "1:30", "--step", "inf"],
    ["zeros", "scan", "--family", "q5", "--t", "1:30", "--step", "0.0001"],
    ["zeros", "count", "--f", "zeta", "--box", "-1:2:1:30", "--step", "nan"],
    ["zeros", "verify", "--f", "zeta", "--box", "-1:2:1:30", "--step", "nan"],
    ["zeros", "scan", "--family", "q5", "--t", "nan:30"],
    ["zeros", "count", "--f", "zeta", "--box", "-1:2:1:inf"],
    ["zeros", "scan", "--family", "q500", "--t", "1:30"],
    # a modulus-0 family, turned away before any character is built
    ["zeros", "scan", "--family", "q0", "--t", "1:30"],
    ["track", "--family", "q0"],
    # an empty t range, and a report whose boxes and scans over (1, tmax) are empty
    ["zeros", "scan", "--f", "zeta", "--t", "5:1"],
    ["track", "--family", "q5", "--t", "5:1"],
    ["report", "--q", "5", "--tmax", "1"],
    ["verify-fe", "--family", "q5", "--tol", "nan"],
    ["verify-fe", "--family", "q5", "--tol", "0"],
    ["verify-fe", "--family", "q5", "--tau", "nan"],
    # zeros checks the flag its action does not read too
    ["zeros", "scan", "--f", "zeta", "--t", "1:15", "--box", "nonsense"],
    ["zeros", "count", "--f", "zeta", "--box", "-1:2:1:15", "--t", "5:1"],
    ["zeros", "verify", "--f", "zeta", "--box", "-1:2:1:15", "--t", "1:61"],
    ["verify-fe", "--family", "q5", "--sigma", "nan:1"],
    # a reversed and an empty sigma range
    ["verify-fe", "--family", "q5", "--tau", "0.5", "--sigma=2:-1"],
    ["verify-fe", "--family", "q5", "--tau", "0.5", "--sigma", "0.5:0.5"],
    # sigma outside SIGMA_LIMITS, and a verify box that misses the line
    ["verify-fe", "--family", "q5", "--sigma=-6:7"],
    ["verify-fe", "--f", "zeta", "--sigma=1e300:1e301"],
    ["verify-fe", "--family", "q5", "--tau", "0.5", "--sigma=-200:2"],
    ["zeros", "count", "--f", "zeta", "--box=-1e5:2:1:30"],
    ["zeros", "count", "--f", "zeta", "--box=0.6:1e7:1:30"],
    ["zeros", "count", "--family", "q8", "--tau", "0.5", "--box=-10:11:1:30"],
    ["zeros", "verify", "--family", "q5", "--box=0.6:2:1:30"],
    ["track", "--family", "q5", "--step", "nan"],
    ["track", "--family", "q5", "--t", "1:nan"],
    ["track", "--family", "q5", "--t", "1:1e5"],
    # track reads its branches on the --step grid: an infinite step, and one finer than MIN_STEP
    ["track", "--family", "q5", "--step", "inf"],
    ["track", "--family", "q5", "--step", "0.0001"],
    ["report", "--q", "5", "--step", "nan"],
    ["report", "--q", "5", "--step", "inf"],
    ["report", "--q", "5", "--tmax", "nan"],
    ["report", "--q", "1000000"],
    ["chars", "--qmax", "1000000"],
    # argparse's own rejections: an unknown flag, a non-integer --q and an
    # unknown command
    ["track", "--family", "q5", "--steps", "64"],
    ["report", "--q", "5.5"],
    ["bogus"],
]


@pytest.mark.parametrize("argv", BAD_NUMERIC_FLAGS, ids=" ".join)
def test_bad_numeric_flag_is_rejected_before_any_computation(argv, tmp_path, monkeypatch, capsys):
    import deformzeros.cli as cli

    for name in _ENTRY_POINTS:
        monkeypatch.setattr(cli, name, _computed)
    if argv[0] == "track":
        argv = argv + ["--out", str(tmp_path / "out")]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["report", "--help"]], ids=" ".join)
def test_help_exits_zero(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0
    assert out.startswith("usage: deform-zeros") and err == ""


def test_sigma_window_ends_are_accepted(capsys):
    # symmetric about 1/2, so every reflection 1 - sigma stays inside
    assert SIGMA_LIMITS == (-5.0, 6.0) and sum(SIGMA_LIMITS) == 1.0
    code, out, _ = run(["verify-fe", "--f", "zeta", "--sigma=-5:6"], capsys)
    assert code == 0
    assert "verdict,PASS" in out
    code, out, _ = run(["zeros", "count", "--f", "zeta", "--box=-5:6:1:30"], capsys)
    assert code == 0
    assert "winding_count,3" in out and "line_count,3" in out


@pytest.mark.parametrize(
    "command, out",
    [
        ("report", "missing/x.json"),  # no such directory
        ("report", "."),  # a directory, not a file
        ("track", "file.txt"),  # an existing regular file
        ("track", "file.txt/sub"),  # below a regular file
    ],
)
def test_bad_out_path_is_rejected_before_any_computation(
    command, out, tmp_path, monkeypatch, capsys
):
    import deformzeros.cli as cli

    def computed(*args, **kwargs):
        raise AssertionError("computation started before --out was checked")

    for name in ("scan_line_zeros", "pair_zeros", "run_claim_report"):
        monkeypatch.setattr(cli, name, computed)
    (tmp_path / "file.txt").write_text("keep\n")
    argv = ["report", "--q", "5"] if command == "report" else ["track", "--family", "q5"]
    code, stdout, err = run(argv + ["--out", str(tmp_path / out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("usage error: --out")
    assert (tmp_path / "file.txt").read_text() == "keep\n"


def test_output_write_failure_is_a_usage_error(monkeypatch, capsys):
    import deformzeros.cli as cli

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied", "x.json")

    monkeypatch.setattr(cli, "run_claim_report", denied)
    code, out, err = run(["report", "--q", "5"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write output")


def test_a_reader_that_closed_the_pipe_gets_exit_141_and_no_message():
    # stdout is a pipe whose read end is closed before the CLI writes: the
    # write fails with EPIPE, which is not a usage error; an --out path
    # that cannot be written still is (the test above)
    src = Path(__file__).resolve().parents[1] / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "deformzeros.cli", "chars", "--qmax", "30"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_track_has_no_steps_flag(capsys):
    # track reads each branch on the scan grid, as the report does
    code, out, err = run(["track", "--family", "q5", "--steps", "64"], capsys)
    assert code == 2
    assert out == ""
    assert "--steps" in err


def test_report_has_no_steps_flag(capsys):
    # the report reads each branch on the scan grid and samples nothing
    code, out, err = run(["report", "--q", "5", "--steps", "64"], capsys)
    assert code == 2
    assert out == ""
    assert "--steps" in err


def test_every_step_default_is_scan_step():
    # zerofind owns the scan step: each library entry point that takes one
    # and each --step flag default to SCAN_STEP
    import inspect

    for fn in (scan_line_zeros, count_zeros_box, verify_on_line,
               LineSamples, pair_zeros, run_claim_report):
        assert inspect.signature(fn).parameters["step"].default == SCAN_STEP, fn.__name__
    for argv in (["zeros", "scan"], ["track", "--family", "q5"], ["report", "--q", "5"]):
        assert build_parser(argv[0]).parse_args(argv).step == SCAN_STEP, argv[0]


def test_report_window_default_has_one_owner():
    import inspect

    assert inspect.signature(run_claim_report).parameters["t_max"].default == REPORT_T_MAX
    assert build_parser("report").parse_args(["report", "--q", "5"]).tmax == REPORT_T_MAX


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    import deformzeros.cli as cli

    def boom(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "residual_sweep", boom)
    code, out, err = run(["verify-fe", "--f", "zeta"], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ZeroDivisionError")


def test_importing_the_cli_loads_no_dataclass_machinery():
    # records are collections.namedtuple subclasses, and json and pathlib
    # are imported only by the commands that use them, so no command pays
    # for these modules before it starts.  -S skips site, whose .pth files
    # may import typing or pathlib themselves.
    src = Path(__file__).resolve().parents[1] / "src"
    unwanted = {"json", "pathlib", "typing", "dataclasses", "inspect", "heapq"}
    probe = f"import sys, deformzeros.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


def test_boundary_zero_is_a_numerical_failure(monkeypatch, capsys):
    import deformzeros.cli as cli
    from deformzeros.errors import BoundaryZeroError

    def hit(*args, **kwargs):
        raise BoundaryZeroError("contour passes through a zero")

    monkeypatch.setattr(cli, "count_zeros_box", hit)
    code, _, err = run(["zeros", "count", "--f", "zeta", "--box", "-1:2:1:30"], capsys)
    assert code == 3
    assert err.startswith("numerical failure")


# every numeric flag: a command that takes it, values outside its documented
# bounds, and values inside them; stated here, not read off _FLAG_RULES
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "+inf", "-nan"])


def _floats(**kw):
    return st.floats(allow_nan=False, **kw).map(repr)


def _ints(**kw):
    return st.integers(**kw).map(str)


FLAG_CASES = {
    "step": (
        ["zeros", "scan", "--family", "q5", "--t", "1:30"],
        _NON_FINITE | _floats(max_value=1e-3, exclude_max=True),
        _floats(min_value=1e-3, allow_infinity=False),
    ),
    "tol": (
        ["verify-fe", "--family", "q5"],
        _NON_FINITE | _floats(max_value=0.0),
        _floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    ),
    "tau": (
        ["verify-fe", "--family", "q5"],
        _NON_FINITE
        | _floats(max_value=0.0, exclude_max=True)
        | _floats(min_value=1.0, exclude_min=True),
        _floats(min_value=0.0, max_value=1.0),
    ),
    "tmax": (
        ["report", "--q", "5"],
        _NON_FINITE | _floats(max_value=1.0) | _floats(min_value=60.0, exclude_min=True),
        _floats(min_value=1.0, exclude_min=True, max_value=60.0),
    ),
    "q": (
        ["report"],
        _NON_FINITE | _ints(max_value=0) | _ints(min_value=201),
        _ints(min_value=1, max_value=200),
    ),
    "qmax": (
        ["chars"],
        _NON_FINITE | _ints(max_value=0) | _ints(min_value=201),
        _ints(min_value=1, max_value=200),
    ),
}

def test_flag_cases_cover_every_numeric_flag():
    assert set(FLAG_CASES) == set(_FLAG_RULES)


@pytest.mark.parametrize("flag", sorted(FLAG_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_out_of_bounds_flag_exits_2_before_any_computation(flag, data):
    import deformzeros.cli as cli

    prefix, bad, _ = FLAG_CASES[flag]
    value = data.draw(bad, label=flag)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name in _ENTRY_POINTS:
            mp.setattr(cli, name, _computed)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(prefix + [f"--{flag}={value}"])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("usage")


@pytest.mark.parametrize("flag", sorted(FLAG_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_in_bounds_flag_passes_validation(flag, data):
    prefix, _, good = FLAG_CASES[flag]
    value = data.draw(good, label=flag)
    _validate(build_parser().parse_args(prefix + [f"--{flag}={value}"]))
