"""Workload inputs and output oracles.

A workload turns a seed into a list of ops; one op is one
``deformzeros.cli.main`` argument list.  ``{out}`` in an argument list stands
for a fresh scratch directory that the worker fills in.  Each op names the
oracle that decides whether its outputs are correct.

This module imports nothing from ``deformzeros``: the oracles judge the
program only by its exit code, its stdout and the files it wrote.
"""

from __future__ import annotations

import json
import math
import random

# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = ("report-q5", "sweep-q8", "track-odd7")

SWEEP_INTERIOR_TAUS = 7
SWEEP_BOX = "-1:2:1:30"
# Every f0 line zero of the q = 7 odd family below 21.2 lies below 19.62 at
# all five grid taus, so any T in this range tracks the same 7 zeros.
TRACK_T_RANGE = (19.8, 20.2)

REPORT_CLAIMS = {
    "shared_fe": "PASS",
    "all_zeros_on_line": "PASS",
    "all_trajectories_complete": "FAIL",
    "count_gap_at_most_one": "PASS",
    "preserved_trivial_zeros": "FAIL",
}
TAU_STAR_TOL = 1e-6
# the along-path bound tests/test_deformation.py asserts for trajectories
ABS_PHI_BOUND = 1e-7
# the default verify-fe tolerance; the margin below it is reported in digits
FE_TOL = 1e-8


def sweep_taus(seed: int) -> list[float]:
    rng = random.Random(f"sweep-q8:{seed}")
    interior = sorted(round(rng.uniform(0.02, 0.98), 6) for _ in range(SWEEP_INTERIOR_TAUS))
    return [0.0] + interior + [1.0]


def track_t_max(seed: int) -> float:
    rng = random.Random(f"track-odd7:{seed}")
    return round(rng.uniform(*TRACK_T_RANGE), 4)


def make_ops(workload: str, seed: int) -> list[dict]:
    """The ops of one pass of `workload`; the same seed gives the same ops."""
    if workload == "report-q5":
        return [{"argv": ["report", "--q", "5", "--out", "{out}/report.json"], "check": "report_q5"}]
    if workload == "sweep-q8":
        ops = []
        for tau in sweep_taus(seed):
            fam = ["--family", "q8", "--tau", repr(tau)]
            ops.append({"argv": ["verify-fe", *fam], "check": "verify_fe"})
            ops.append({"argv": ["zeros", "verify", *fam, "--box", SWEEP_BOX], "check": "zeros_verify"})
        return ops
    if workload == "track-odd7":
        t = f"1:{track_t_max(seed)!r}"
        argv = ["track", "--family", "q7", "--parity", "odd", "--t", t, "--out", "{out}/track"]
        return [{"argv": argv, "check": "track_odd7"}]
    raise KeyError(workload)


def tau_star_q5() -> float:
    """2 zeta(1/2) / (2 zeta(1/2) - L(1/2, chi_5)), the closed-form departure tau.

    mpmath is a test oracle here, never a dependency of the program.
    """
    import mpmath

    mpmath.mp.dps = 30
    f0 = 2 * mpmath.zeta(0.5)
    f1 = mpmath.dirichlet(0.5, [0, 1, -1, -1, 1])
    return float(f0 / (f0 - f1))


def _csv_fields(stdout: str) -> dict[str, str]:
    """key,value lines of a CLI summary (the header line is skipped)."""
    fields = {}
    for line in stdout.splitlines():
        if line.startswith("#") or "," not in line:
            continue
        key, _, value = line.partition(",")
        fields.setdefault(key, value)
    return fields


class OracleFailure(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleFailure(what)


def _digits(margin: float) -> float:
    """log10 of a margin ratio; a vanishing error counts as 16 digits."""
    return 16.0 if margin == math.inf else math.log10(margin)


def check_report_q5(code: int, stdout: str, files: dict[str, bytes], tau_star: float) -> float:
    _expect(code == 1, f"report exit code {code}, expected 1 (claims fail by measurement)")
    rep = json.loads(files["report.json"])
    _expect(rep["claims"] == REPORT_CLAIMS, f"claims {rep['claims']}")
    pairing = rep["pairing"]
    _expect(pairing["completed"] == 10, f"completed {pairing['completed']}, expected 10")
    _expect(pairing["lost"] == 1, f"lost {pairing['lost']}, expected 1")
    err = abs(pairing["lost_detail"][0]["last_tau"] - tau_star)
    _expect(err <= TAU_STAR_TOL, f"lost at tau {pairing['lost_detail'][0]['last_tau']}, tau* {tau_star}")
    return _digits(1.0 / err if err > 0 else math.inf)


def check_verify_fe(code: int, stdout: str, files: dict[str, bytes], tau_star: float) -> float:
    fields = _csv_fields(stdout)
    _expect(code == 0, f"verify-fe exit code {code}")
    _expect(fields.get("verdict") == "PASS", f"verify-fe verdict {fields.get('verdict')}")
    worst = float(fields["max_residual"])
    return _digits(FE_TOL / worst if worst > 0 else math.inf)


def check_zeros_verify(code: int, stdout: str, files: dict[str, bytes], tau_star: float) -> None:
    fields = _csv_fields(stdout)
    _expect(code == 0, f"zeros verify exit code {code}")
    _expect(fields.get("verdict") == "PASS", f"zeros verify verdict {fields.get('verdict')}")
    _expect(
        fields.get("winding_count") == fields.get("line_count"),
        f"winding {fields.get('winding_count')} != line {fields.get('line_count')}",
    )


def check_track_odd7(code: int, stdout: str, files: dict[str, bytes], tau_star: float) -> float:
    fields = _csv_fields(stdout)
    _expect(code == 0, f"track exit code {code}")
    _expect(fields.get("lost") == "0", f"lost {fields.get('lost')}")
    _expect(fields.get("merged") == "0", f"merged {fields.get('merged')}")
    rows = files["track/trajectories.csv"].decode().splitlines()
    _expect(rows[1] == "trajectory_id,tau,t,abs_phi", f"trajectories.csv header {rows[1]!r}")
    _expect(len(rows) > 2, "trajectories.csv has no rows")
    worst = 0.0
    for row in rows[2:]:
        abs_phi = float(row.rsplit(",", 1)[1])
        _expect(abs_phi < ABS_PHI_BOUND, f"abs_phi {abs_phi} in row {row!r}")
        worst = max(worst, abs_phi)
    return _digits(ABS_PHI_BOUND / worst if worst > 0 else math.inf)


CHECKS = {
    "report_q5": check_report_q5,
    "verify_fe": check_verify_fe,
    "zeros_verify": check_zeros_verify,
    "track_odd7": check_track_odd7,
}
