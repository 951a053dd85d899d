"""Run-to-run spread of the end-to-end metrics over a set of seeds.

    python3 perfbench/spread.py --out record.json

Runs ``run.py --trace 0`` for ``run_seconds`` once per (seed, workload),
with seeds 1-10 and every workload listed in BENCHMARK.json, interleaving
the workloads so that a slow period of the host hits all of them.  For each
metric it prints the median over the seeds and the spread, the distance
between the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json.  The record written with --out also
holds the Python version, nproc and the load average at the start and end
of the set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the set's record here as JSON")
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "load_avg_start": list(os.getloadavg()),
        "runs": [],
    }
    values: dict[str, dict[str, list[float]]] = {w: {m: [] for m in bounds} for w in names}
    for seed in SEEDS:
        for w in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            run_record = json.loads(lines[-2].removeprefix("# record "))
            record["runs"].append({"result": result, "record": run_record})
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"{w:11s} seed {seed:3d} correct={result['correct']} "
                  + " ".join(f"{m}={result['metrics'][m]['value']:.4g}" for m in bounds), flush=True)
    record["load_avg_end"] = list(os.getloadavg())

    summary = {}
    print(f"\n{'workload':11s} {'metric':16s} {'median':>10s} {'spread':>8s} {'bound':>6s}")
    for w in names:
        for m, b in bounds.items():
            med, sp = statistics.median(values[w][m]), spread(values[w][m])
            summary[f"{w}/{m}"] = {"median": med, "spread": sp, "bound": b}
            print(f"{w:11s} {m:16s} {med:10.4g} {sp:8.3f} {b:6.3g}{'  > bound/3' if sp > b / 3 else ''}")
    record["summary"] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
