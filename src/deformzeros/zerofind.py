"""Critical-line zero location and argument-principle box counting.

Line zeros come from sign changes of the rotated signal Z(t) refined by
bisection; box counts come from winding the function's argument around a
rectangle boundary.  Comparing the two is the desk-scale check that every
zero in a strip straddling the line actually sits on the line.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .analytic import FunctionSpec
from .errors import BoundaryZeroError, DomainError, PrecisionError
from .funceq import CriticalLineSignal, FunctionalEquation

PI = math.pi

BOUNDARY_MIN_MODULUS = 1e-6
PERTURB = 1e-4
BISECT_HALF_WIDTH = 5e-10
TRIVIAL_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class Rect:
    sigma1: float
    sigma2: float
    t1: float
    t2: float

    def __post_init__(self):
        if not self.sigma1 < self.sigma2:
            raise DomainError(f"need sigma1 < sigma2, got [{self.sigma1}, {self.sigma2}]")
        if not self.t1 < self.t2:
            raise DomainError(f"need t1 < t2, got [{self.t1}, {self.t2}]")

    def expand(self, d: float) -> "Rect":
        return Rect(self.sigma1 - d, self.sigma2 + d, self.t1 - d, self.t2 + d)

    def contains(self, s: complex, margin: float = 0.0) -> bool:
        return (self.sigma1 - margin <= s.real <= self.sigma2 + margin
                and self.t1 - margin <= s.imag <= self.t2 + margin)

    def straddles_line(self) -> bool:
        return self.sigma1 < 0.5 < self.sigma2


@dataclass(frozen=True)
class ZeroRecord:
    t: float
    sigma: float
    source: str
    residual: float
    half_width: float
    kind: str  # trivial_factor | nontrivial | unclassified


@dataclass(frozen=True)
class BoxCountReport:
    rectangle: Rect
    winding_count: int
    line_count: Optional[int]
    boundary_min_modulus: float


@dataclass(frozen=True)
class OnLineReport:
    rectangle: Rect
    winding_count: int
    line_count: int
    verdict: str  # PASS | FAIL
    discrepancies: tuple[BoxCountReport, ...]


def trivial_ordinates(q: int, t_range: tuple[float, float]) -> list[float]:
    """All t = (2k+1) pi / ln q inside t_range, any integer k."""
    if q < 2:
        raise DomainError(f"trivial ordinates need q >= 2, got {q}")
    lo, hi = t_range
    lq = math.log(q)
    k_lo = math.ceil((lo * lq / PI - 1) / 2 - 1e-12)
    k_hi = math.floor((hi * lq / PI - 1) / 2 + 1e-12)
    return [(2 * k + 1) * PI / lq for k in range(k_lo, k_hi + 1)]


def trivial_zeros(q: int, t_range: tuple[float, float]) -> list[ZeroRecord]:
    return [
        ZeroRecord(t, 0.5, f"trivial_factor(q={q})", 0.0, 0.0, "trivial_factor")
        for t in trivial_ordinates(q, t_range)
    ]


def _classify_ordinate(f: FunctionSpec, t: float) -> str:
    if f.trivial_modulus is not None:
        for t0 in trivial_ordinates(f.trivial_modulus, (t - 1.0, t + 1.0)):
            if abs(t - t0) <= TRIVIAL_MATCH_TOL:
                return "trivial_factor"
    if f.watch_modulus is not None:
        for t0 in trivial_ordinates(f.watch_modulus, (t - 1.0, t + 1.0)):
            if abs(t - t0) <= TRIVIAL_MATCH_TOL:
                # sits on a watched family ordinate but is not forced there
                # by an explicit factor; never presume it trivial
                return "unclassified"
    return "nontrivial"


def bisect_sign_change(
    fn: Callable[[float], float], a: float, b: float, fa: float
) -> tuple[float, float]:
    """Bisect a sign change of fn on [a, b], given fa = fn(a), to ~5e-10.

    Returns (midpoint, half-width) of the final bracket; an exact zero hit
    on the way ends the search with half-width 0.
    """
    if fa == 0.0:
        return a, 0.0
    while (b - a) / 2 > BISECT_HALF_WIDTH:
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0:
            return m, 0.0
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b), (b - a) / 2


def scan_line_zeros(
    f: FunctionSpec,
    fe: FunctionalEquation,
    t_range: tuple[float, float],
    step: float = 0.05,
) -> list[ZeroRecord]:
    """Bracket every sign change of Z on t_range and bisect to ~5e-10.

    The grid is lo + (hi - lo) k / n, k = 0..n, n = max(1, ceil((hi - lo) / step)).
    """
    if not 0 < step < math.inf:
        raise DomainError(f"scan step must be positive and finite, got {step}")
    lo, hi = t_range
    if not lo < hi:
        raise DomainError(f"need t1 < t2, got [{lo}, {hi}]")
    n = max(1, math.ceil((hi - lo) / step))
    ts = [lo + (hi - lo) * k / n for k in range(n + 1)]
    return sign_change_zeros(f, CriticalLineSignal(f, fe, anchor_t=lo), ts)


def sign_change_zeros(
    f: FunctionSpec, z: Callable[[float], float], ts: list[float]
) -> list[ZeroRecord]:
    """Line zeros of f from the sign changes of its real signal z over the
    increasing ordinates ts, each bisected to ~5e-10."""
    zs = [z(t) for t in ts]
    records = []
    for i in range(len(ts) - 1):
        if zs[i] == 0.0:
            records.append(_record_zero(f, ts[i], 0.0))
        elif zs[i] * zs[i + 1] < 0:
            records.append(_record_zero(f, *bisect_sign_change(z, ts[i], ts[i + 1], zs[i])))
    if zs and zs[-1] == 0.0:
        records.append(_record_zero(f, ts[-1], 0.0))
    return records


def _record_zero(f: FunctionSpec, t: float, half_width: float) -> ZeroRecord:
    residual = abs(f(complex(0.5, t)))
    return ZeroRecord(t, 0.5, f.name, residual, half_width, _classify_ordinate(f, t))


class _BoundaryHit(Exception):
    pass


def _edge_walk(f: FunctionSpec, sa: complex, sb: complex, v_start: complex,
               step: float) -> tuple[float, float, complex]:
    """Accumulate arg f along the segment sa -> sb; returns (sum, min|f|, f(sb))."""
    length = abs(sb - sa)
    n0 = max(8, math.ceil(length / step))
    total = 0.0
    min_mod = abs(v_start)
    if min_mod < BOUNDARY_MIN_MODULUS:
        raise _BoundaryHit
    cur_u = 0.0
    cur_v = v_start
    pending = [k / n0 for k in range(n0, 0, -1)]
    while pending:
        u = pending[-1]
        v = f(sa + (sb - sa) * u)
        mod = abs(v)
        if mod < min_mod:
            min_mod = mod
        if mod < BOUNDARY_MIN_MODULUS:
            raise _BoundaryHit
        delta = math.remainder(cmath.phase(v) - cmath.phase(cur_v), 2.0 * PI)
        if abs(delta) > 0.5 * PI:
            if (u - cur_u) * length < 1e-12:
                raise PrecisionError(
                    f"argument jump {delta:.3f} persists on the contour near {sa + (sb - sa) * u}"
                )
            pending.append(0.5 * (cur_u + u))
            continue
        total += delta
        cur_u, cur_v = u, v
        pending.pop()
    return total, min_mod, cur_v


def _winding(f: FunctionSpec, rect: Rect, step: float) -> tuple[int, float]:
    corners = [
        complex(rect.sigma1, rect.t1),
        complex(rect.sigma2, rect.t1),
        complex(rect.sigma2, rect.t2),
        complex(rect.sigma1, rect.t2),
        complex(rect.sigma1, rect.t1),
    ]
    v = f(corners[0])
    total = 0.0
    min_mod = abs(v)
    for a, b in zip(corners, corners[1:]):
        part, m, v = _edge_walk(f, a, b, v, step)
        total += part
        min_mod = min(min_mod, m)
    turns = total / (2.0 * PI)
    n = round(turns)
    if abs(turns - n) > 1e-3:
        raise PrecisionError(f"non-integer winding {turns:.6f} around {rect}")
    return n, min_mod


def count_zeros_box(
    f: FunctionSpec,
    rect: Rect,
    fe: Optional[FunctionalEquation] = None,
    step: float = 0.05,
) -> BoxCountReport:
    """Argument-principle count, with the 1e-4 outward-perturbation retry.

    The reported rectangle is the one actually used, which differs from the
    input when a boundary zero forced a retry.  line_count is filled by a
    line scan whenever the box straddles the critical line and a functional
    equation is available (explicitly or via f.natural_fe).
    """
    fe = fe if fe is not None else f.natural_fe
    last_exc = None
    for attempt in range(4):
        r = rect.expand(attempt * PERTURB)
        if f.pole is not None and r.contains(f.pole, margin=1e-6):
            raise DomainError(f"pole of {f.name} at {f.pole} on or inside the contour {r}")
        try:
            winding, min_mod = _winding(f, r, step)
        except _BoundaryHit as exc:
            last_exc = exc
            continue
        line_count = None
        if fe is not None and r.straddles_line():
            line_count = len(scan_line_zeros(f, fe, (r.t1, r.t2), step))
        return BoxCountReport(r, winding, line_count, min_mod)
    raise BoundaryZeroError(
        f"|{f.name}| < {BOUNDARY_MIN_MODULUS} on the contour after 3 perturbed retries of {rect}"
    ) from last_exc


def verify_on_line(
    f: FunctionSpec,
    fe: FunctionalEquation,
    rect: Rect,
    step: float = 0.05,
) -> OnLineReport:
    """PASS iff the box count equals the line count; FAIL localizes the gap.

    On FAIL, sub-rectangles are bisected in t until every mismatching box is
    shorter than 0.1; those boxes are reported.  Perturbed sub-boxes can
    overlap by 1e-4, so a zero exactly on a split line may appear twice in
    the discrepancy list; the top-level counts are authoritative.
    """
    if not rect.straddles_line():
        raise DomainError(f"rectangle {rect} does not straddle the critical line")
    top = count_zeros_box(f, rect, fe, step)
    assert top.line_count is not None
    if top.winding_count == top.line_count:
        return OnLineReport(top.rectangle, top.winding_count, top.line_count, "PASS", ())
    found = []
    queue = [top.rectangle]
    while queue:
        r = queue.pop()
        rep = count_zeros_box(f, r, fe, step)
        if rep.winding_count == rep.line_count:
            continue
        if r.t2 - r.t1 < 0.1:
            found.append(rep)
            continue
        tm = 0.5 * (r.t1 + r.t2)
        queue.append(Rect(r.sigma1, r.sigma2, r.t1, tm))
        queue.append(Rect(r.sigma1, r.sigma2, tm, r.t2))
    found.sort(key=lambda rep: rep.rectangle.t1)
    return OnLineReport(top.rectangle, top.winding_count, top.line_count, "FAIL", tuple(found))


def zero_csv_lines(records: list[ZeroRecord]) -> list[str]:
    lines = ["# deform-zeros v1", "t,sigma,kind,residual"]
    for r in records:
        lines.append(f"{r.t:.12g},{r.sigma:.12g},{r.kind},{r.residual:.12g}")
    return lines
