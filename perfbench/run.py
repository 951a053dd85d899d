"""Outside-in benchmark of the deform-zeros command line.

    python3 perfbench/run.py --workload report-q5 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
Each pass runs one workload's ops in a fresh single-threaded interpreter
(``worker.py``) through ``deformzeros.cli.main``, and checks every output
against the workload's oracle.  Passes repeat until ``--seconds`` is spent.

``--trace 0`` prints the end-to-end metrics over the untraced passes.
Pass times are averaged: a shared host can switch between speed regimes
that last tens of seconds, and the mean weighs them by the time spent in
each, where the median jumps between them.  ``setup_s``, sampled many times per run, is
a median.  ``--trace 1`` adds traced passes, which wrap each layer's entry
points from outside, and prints the per-layer metrics.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it, starting ``# record``, holds the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKER = HERE / "worker.py"
STATE_DIR = ".perfbench_state"
# every run must end well inside the 180 s a run may take
HARD_LIMIT_S = 165.0
# after each untraced pass, one import-only interpreter per this many seconds
# of the pass (at least one), so that setup_s is sampled at the same rate in
# time on every workload, however long its passes are
SETUP_SAMPLE_EVERY_S = 1.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
    "accuracy_digits": "digits",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.us_per_call"] = "us"
    units.update(
        {
            "analytic.endpoint_evals": "count",
            "analytic.repeat_share": "ratio",
            "funceq.w_per_signal_value": "ratio",
            "deformation.bracket_hit_share": "ratio",
            "zerofind.retry_share": "ratio",
            "deformation.track_zero.wall_share": "ratio",
            "trace.untraced_wall_s": "s",
            "trace.traced_wall_s": "s",
            "trace_overhead": "ratio",
        }
    )
    return units


def source_digest(src: Path) -> str:
    """Identity of the code under test: its Python sources and interpreter."""
    h = hashlib.sha256(platform.python_version().encode())
    for p in sorted(src.rglob("*.py")):
        h.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def load_avg() -> list[float]:
    try:
        return list(os.getloadavg())
    except OSError:
        return []


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.ops = workloads.make_ops(workload, seed)
        self.tau_star = workloads.tau_star_q5() if workload == "report-q5" else None
        self.scratch = root / STATE_DIR / "tmp"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(self.src), PYTHONHASHSEED="0")
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] = {}
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[float] = []
        self.problems: list[str] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def _worker(self, spec: dict) -> dict | None:
        spec = dict(spec, src=str(self.src), scratch=str(self.scratch), tau_star=self.tau_star)
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER)],
                input=json.dumps(spec),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=self.root,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            self.problems.append("worker timed out")
            return None
        if proc.stderr:
            sys.stderr.write(proc.stderr[-4000:])
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(f"worker exited {proc.returncode}")
            return None
        return json.loads(lines[-1])

    def run_pass(self, trace: bool) -> float:
        """Run one pass; returns its elapsed time including interpreter start."""
        t = time.perf_counter()
        res = self._worker({"ops": self.ops, "trace": trace})
        elapsed = time.perf_counter() - t
        self.attempted += len(self.ops)
        if res is None:
            self.failed += len(self.ops)
            return elapsed
        for op in res["ops"]:
            ref = self.reference.setdefault(op["key"], op["digest"])
            if op["ok"] and op["digest"] != ref:
                op["ok"] = False
                self.problems.append(f"output digest changed between passes: {op['key']}")
            self.failed += not op["ok"]
        (self.traced if trace else self.untraced).append(res)
        if not trace:
            self.setups.append(res["setup_s"])
            for _ in range(max(1, round(res["wall_s"] / SETUP_SAMPLE_EVERY_S))):
                sample = self._worker({"import_only": True})
                if sample is not None:
                    self.setups.append(sample["setup_s"])
        return elapsed

    def run(self, trace: bool) -> None:
        """Passes until --seconds is spent: untraced only, or, when tracing,
        one untraced pass then traced and untraced passes alternately, with
        at least two traced passes so their call counts can be compared."""
        plan = [False, True, True] if trace else [False]
        durations: list[float] = []
        k = 0
        while True:
            want = plan[k] if k < len(plan) else (trace and k % 2 == 1)
            durations.append(self.run_pass(want))
            k += 1
            if k < len(plan):
                continue
            typical = statistics.median(durations)
            if time.perf_counter() - self.started + typical > self.seconds or 2 * typical > self.remaining():
                break

    def check_store(self) -> None:
        """Compare every op's digest with earlier runs of the same code."""
        path = self.root / STATE_DIR / "digests.json"
        store = json.loads(path.read_text()) if path.exists() else {}
        known = store.setdefault(source_digest(self.src), {})
        for key, digest in self.reference.items():
            if digest is None:
                continue
            old = known.setdefault(key, digest)
            if old != digest:
                self.failed += 1
                self.problems.append(f"output digest differs from an earlier run: {key}")
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, sort_keys=True))
        os.replace(tmp, path)

    def end_to_end(self) -> dict:
        values = {
            "wall_s": _mean(r["wall_s"] for r in self.untraced),
            "cpu_s": _mean(r["cpu_s"] for r in self.untraced),
            "setup_s": _median(self.setups),
            "peak_rss_mib": _median(r["peak_rss_mib"] for r in self.untraced),
            "ok_frac": (self.attempted - self.failed) / self.attempted,
            "accuracy_digits": _median(r["accuracy"] for r in self.untraced if r["accuracy"] is not None),
        }
        return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    def per_layer(self) -> dict:
        def counts(trace: dict) -> tuple:
            return {k: v["calls"] for k, v in trace["layers"].items()}, trace["counters"]

        first = self.traced[0]["trace"]
        if any(counts(r["trace"]) != counts(first) for r in self.traced[1:]):
            self.problems.append("traced passes disagree on call counts")
        if first["missing"]:
            sys.stderr.write(f"targets not found, reported as 0 calls: {first['missing']}\n")
        layers = first["layers"]
        ctr = first["counters"]
        calls = {name: layers.get(name, {"calls": 0})["calls"] for name in LAYERS}
        values = {}
        for name in LAYERS:
            self_s = _mean(r["trace"]["layers"].get(name, {"self_s": 0.0})["self_s"] for r in self.traced)
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s
            values[f"{name}.us_per_call"] = 1e6 * self_s / calls[name] if calls[name] else 0.0
        traced_wall = _mean(r["wall_s"] for r in self.traced)
        untraced_wall = _mean(r["wall_s"] for r in self.untraced)
        values.update(
            {
                "analytic.endpoint_evals": ctr.get("endpoint_evals", 0),
                "analytic.repeat_share": _ratio(ctr.get("endpoint_repeats", 0), ctr.get("endpoint_evals", 0)),
                "funceq.w_per_signal_value": _ratio(calls["funceq.w_factor"], calls["funceq.signal_value"]),
                "deformation.bracket_hit_share": _ratio(
                    ctr.get("bracket_hits", 0), calls["deformation.bracket_correct"]
                ),
                "zerofind.retry_share": _ratio(ctr.get("box_retries", 0), calls["zerofind.count_zeros_box"]),
                "deformation.track_zero.wall_share": _mean(
                    r["trace"]["track_zero_s"] / r["wall_s"] for r in self.traced
                ),
                "trace.untraced_wall_s": untraced_wall,
                "trace.traced_wall_s": traced_wall,
                "trace_overhead": traced_wall / untraced_wall,
            }
        )
        return {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}

    def record(self, load_start: list[float]) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "load_avg_start": load_start,
            "load_avg_end": load_avg(),
            "tau_star": self.tau_star,
            "ops_per_pass": len(self.ops),
            "untraced_wall_s": [r["wall_s"] for r in self.untraced],
            "traced_wall_s": [r["wall_s"] for r in self.traced],
            "setup_samples_s": self.setups,
            "problems": self.problems,
        }


# A value no pass produced is reported as 0.0; the run is then not correct.

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "deformzeros" / "cli.py").is_file():
        print(f"no deformzeros sources under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    load_start = load_avg()
    run = Run(root, args.workload, args.seed, args.seconds)
    run.run(trace=bool(args.trace))
    run.check_store()
    if not run.untraced or (args.trace and not run.traced):
        print("no pass produced a result", file=sys.stderr)
        return 1
    metrics = run.per_layer() if args.trace else run.end_to_end()
    correct = run.failed == 0 and not run.problems
    print("# record " + json.dumps(run.record(load_start), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
