"""Critical-line zero location and argument-principle box counting.

Line zeros come from sign changes of the rotated signal Z(t) on a LineGrid.
A count needs only the sign changes; a located zero is refined inside its
grid cell to a bracket of half-width BISECT_HALF_WIDTH.  Box counts come
from winding the function's argument around a rectangle boundary.  Comparing
the two is the desk-scale check that every zero in a strip straddling the
line actually sits on the line.  BoxCountReport.verdict makes that
comparison; only verify_on_line (`zeros verify`) localizes a FAIL.

The line count of a box stops once it reaches the winding, the stopping
rule of large-scale zero verification (Turing 1953; Edwards, Riemann's Zeta
Function, 1974, ch. 8): it reads every LINE_COUNT_STRIDE-th grid node and
refines cells to the full grid only while its count is below the winding.
A coarse cell's sign changes are at most those of the full grid over it,
and the full grid's are distinct zeros in the box, at most the winding, so
the count equals the full grid's whenever it stops early; a box whose
counts disagree reads the whole grid.

A box symmetric about sigma = 1/2 above the real axis needs only its right
half when f satisfies its own equation, whose root number is 1.  For
Lambda(s) = (q/pi)^{s/2} Gamma((s + kappa)/2) f(s) that equation reads
Lambda(1 - conj s) = conj Lambda(s): the reflection in the line maps the
right half of the contour onto the left half with the same change of
argument, and the count is Backlund's
(Delta_P arg f + theta_q(t2) - theta_q(t1)) / pi over the path
P = 1/2 + i t1 -> sigma2 + i t1 -> sigma2 + i t2 -> 1/2 + i t2 (Titchmarsh,
The Theory of the Riemann Zeta-Function, ch. 9).  It counts off-line zeros
too, which come in mirror pairs, so the comparison keeps its meaning.

An edge is certified, not sampled, where f is a Dirichlet series with
c_1 = 1 whose FunctionSpec carries coeff_bounds: on Re s >= sigma,
|f(s) - 1| <= B(sigma) = sum_{n>=2} b_n n^-sigma (FunctionSpec.tail_bound),
so an edge whose smallest real part has margin 1 - B(sigma) >=
BOUNDARY_MIN_MODULUS keeps Re f > 0 and its change of argument is the
difference of the principal arguments at its two corners.  This is
Backlund's step at sigma = 2 (Titchmarsh, ch. 9: Re zeta(2 + it) >=
2 - zeta(2) > 0); it serves the right edge of the report's and the sweep's
boxes.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Callable

from .analytic import FunctionSpec
from .errors import BoundaryZeroError, DomainError, PrecisionError
from .funceq import CriticalLineSignal, FunctionalEquation, theta_q

PI = math.pi

BOUNDARY_MIN_MODULUS = 1e-6
PERTURB = 1e-4
BISECT_HALF_WIDTH = 5e-10
LINE_COUNT_STRIDE = 8
_SQRT_HALF = math.sqrt(0.5)
TRIVIAL_MATCH_TOL = 1e-6


class Rect(namedtuple("Rect", "sigma1 sigma2 t1 t2")):
    """The box [sigma1, sigma2] x [t1, t2], floats, checked wherever it is
    built, _replace included."""

    __slots__ = ()

    def __new__(cls, sigma1: float, sigma2: float, t1: float, t2: float):
        if not sigma1 < sigma2:
            raise DomainError(f"need sigma1 < sigma2, got [{sigma1}, {sigma2}]")
        if not t1 < t2:
            raise DomainError(f"need t1 < t2, got [{t1}, {t2}]")
        return super().__new__(cls, sigma1, sigma2, t1, t2)

    @classmethod
    def _make(cls, iterable) -> Rect:
        return cls(*iterable)

    def expand(self, d: float) -> "Rect":
        return Rect(self.sigma1 - d, self.sigma2 + d, self.t1 - d, self.t2 + d)

    def contains(self, s: complex, margin: float) -> bool:
        return (self.sigma1 - margin <= s.real <= self.sigma2 + margin
                and self.t1 - margin <= s.imag <= self.t2 + margin)

    def straddles_line(self) -> bool:
        return self.sigma1 < 0.5 < self.sigma2


class ZeroRecord(namedtuple("ZeroRecord", "t sigma residual half_width kind")):
    """A zero at sigma + i t, floats, refined to a bracket of half_width;
    residual (float) is |f| there and kind (str) one of trivial_factor,
    nontrivial or unclassified."""

    __slots__ = ()


class BoxCountReport(namedtuple(
    "BoxCountReport",
    "rectangle winding_count line_count boundary_min_modulus certified_margin",
)):
    """The count of the Rect rectangle: winding_count (int), line_count
    (int | None), boundary_min_modulus (float), the minimum |f| over the
    points evaluated on the path, and certified_margin (float | None), the
    smallest 1 - B(sigma) over its certified edges (None if none is)."""

    __slots__ = ()

    @property
    def verdict(self) -> str | None:
        """PASS iff the line count equals the winding; None with no line count."""
        if self.line_count is None:
            return None
        return "PASS" if self.line_count == self.winding_count else "FAIL"


def trivial_ordinates(q: int, t_range: tuple[float, float]) -> list[float]:
    """All t = (2k+1) pi / ln q inside t_range, any integer k."""
    if q < 2:
        raise DomainError(f"trivial ordinates need q >= 2, got {q}")
    lo, hi = t_range
    lq = math.log(q)
    k_lo = math.ceil((lo * lq / PI - 1) / 2 - 1e-12)
    k_hi = math.floor((hi * lq / PI - 1) / 2 + 1e-12)
    return [(2 * k + 1) * PI / lq for k in range(k_lo, k_hi + 1)]


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


def refine_sign_change(
    fn: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> tuple[float, float]:
    """Refine a sign change of fn between a and b, given fa = fn(a) and
    fb = fn(b), to a bracket of half-width at most BISECT_HALF_WIDTH.

    Chandrupatla's hybrid (Adv. Eng. Software 28, 1997): inverse quadratic
    interpolation through the bracket ends and the point before, when the
    three values are monotone enough for it, bisection otherwise.  A step
    lands at least BISECT_HALF_WIDTH / 4 inside the bracket, so once the zero
    is that close to an end the next step closes the bracket over it.  k steps
    must leave the bracket at most 2^(-k/2) of its first width; a step that
    could break that is a bisection, so no input costs more than twice the
    evaluations of plain bisection.

    Returns (midpoint, half-width) of the final bracket; an exact zero hit
    on the way ends the search with half-width 0.
    """
    if fa == 0.0:
        return a, 0.0
    if fb == 0.0:
        return b, 0.0
    # a is the newest end of the bracket, b the end where fn has the other
    # sign, c the point before a (beyond the bracket on a's side)
    c, fc = b, fb
    width = budget = abs(b - a)
    t = 0.5
    while width / 2 > BISECT_HALF_WIDTH:
        x = a + t * (b - a)
        fx = fn(x)
        if fx == 0.0:
            return x, 0.0
        if (fx < 0) != (fa < 0):  # not fx * fa, which can underflow to 0
            c, fc, b, fb = b, fb, a, fa
        else:
            c, fc = a, fa
        a, fa = x, fx
        width = abs(b - a)
        budget *= _SQRT_HALF
        t = 0.5
        # interpolate only if the bracket stays in budget should the step gain nothing
        if width <= budget * _SQRT_HALF * (1.0 + 1e-12):
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
                t = (fa / (fb - fa) * fc / (fb - fc)
                     + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
            t_lim = 0.25 * BISECT_HALF_WIDTH / width
            t = min(1.0 - t_lim, max(t_lim, t))
    return 0.5 * (a + b), width / 2


class LineGrid:
    """The grid every line reader (scans, line counts, the tracker's table)
    reads: nodes lo + (hi - lo) k / n, n = max(1, ceil((hi - lo) / step)),
    for every integer k, so k = 0..n covers t_range and a walk may run past
    its ends."""

    def __init__(self, t_range: tuple[float, float], step: float):
        if not 0 < step < math.inf:
            raise DomainError(f"scan step must be positive and finite, got {step}")
        lo, hi = t_range
        if not lo < hi:
            raise DomainError(f"need t1 < t2, got [{lo}, {hi}]")
        self.lo, self.span = lo, hi - lo
        self.n = max(1, math.ceil(self.span / step))

    def node(self, k: int) -> float:
        return self.lo + self.span * k / self.n

    def nodes(self, lo: float, hi: float) -> list[float]:
        """The nodes in [lo, hi], ends included to within 1e-9 cells."""
        u_lo, u_hi = ((x - self.lo) * self.n / self.span for x in (lo, hi))
        k_lo, k_hi = math.ceil(u_lo - 1e-9), math.floor(u_hi + 1e-9)
        return [self.node(k) for k in range(k_lo, k_hi + 1)]

    def next_node(self, t: float, direction: int) -> float:
        """The first node more than 1e-9 beyond t in `direction`; t = 0 is a
        node.  A node within 1e-9 of t is t itself but for rounding (the last
        node lo + span n / n can miss hi by an ulp) and is stepped past."""
        k = round((t - self.lo) * self.n / self.span)
        while (self.node(k) - t) * direction <= 1e-9:
            k += direction
        node = self.node(k)
        return 0.0 if _same_sign(-node, t) else node


def _own_fe(f: FunctionSpec) -> FunctionalEquation:
    """f.natural_fe, the equation that makes f's line signal real."""
    if f.natural_fe is None:
        raise DomainError(f"{f.name} declares no functional equation, so it has no line signal")
    return f.natural_fe


def scan_line_zeros(
    f: FunctionSpec, t_range: tuple[float, float], step: float = 0.05
) -> list[ZeroRecord]:
    """Every sign change of Z on the LineGrid of t_range, refined to ~5e-10.

    Z is f's line signal under f.natural_fe."""
    ts = LineGrid(t_range, step).nodes(*t_range)
    return sign_change_zeros(f, CriticalLineSignal(f, _own_fe(f)), ts)


def count_line_zeros(
    f: FunctionSpec, t_range: tuple[float, float], step: float, winding: int
) -> int:
    """The sign changes of Z, f's line signal under f.natural_fe, on the
    LineGrid of t_range, with nothing refined, counted until they reach
    `winding`, the argument-principle count of a box over t_range
    (sign_change_count).

    That is len(scan_line_zeros(f, t_range, step)) whenever it is at most
    `winding`, which it is for every box: each sign change of the real Z
    is a distinct zero of f inside the box."""
    ts = LineGrid(t_range, step).nodes(*t_range)
    return sign_change_count(CriticalLineSignal(f, _own_fe(f)), ts, winding)


def _changes_sign(a: float, b: float) -> bool:
    """A zero in the cell from a sample a to the next sample b: a == 0, or a
    and b of opposite signs (not a * b < 0, which can underflow to -0.0).
    A zero b belongs to the next cell."""
    return a == 0.0 or a < 0.0 < b or b < 0.0 < a


def _same_sign(a: float, b: float) -> bool:
    """a and b both > 0 or both < 0 (not a * b > 0, which can underflow)."""
    return (a > 0.0 and b > 0.0) or (a < 0.0 and b < 0.0)


def sign_changes(zs: list[float]) -> list[int]:
    """Index i of each zero of the samples zs: zs[i] == 0, or zs[i] and
    zs[i + 1] of opposite signs (a sign change in cell i)."""
    found = [i for i in range(len(zs) - 1) if _changes_sign(zs[i], zs[i + 1])]
    if zs and zs[-1] == 0.0:
        found.append(len(zs) - 1)
    return found


def sign_change_count(z: Callable[[float], float], ts: list[float], target: int) -> int:
    """The sign changes of z over the increasing nodes ts, as sign_changes
    counts them, found until they reach `target` (Turing's stopping rule:
    find sign changes until they match the argument-principle count).  It
    is len(sign_changes([z(t) for t in ts])) whenever that is at most
    target, and between target and it otherwise.

    z is read at every LINE_COUNT_STRIDE-th node of ts and at the last one.
    Each coarse cell counts as sign_changes counts its first cell, at most
    the full count of the nodes it spans.  While the total is below
    target, cells are refined whole, those with the smallest min |z| at
    their ends first (ties by position), each trading its coarse count for
    its full one.  The count stops once it reaches target; a target above
    the full count reads every node, each once.
    """
    last = len(ts) - 1
    ends = list(range(0, last, LINE_COUNT_STRIDE)) + [last]
    zs = {k: z(ts[k]) for k in ends}
    cells = list(zip(ends, ends[1:]))
    coarse = [int(_changes_sign(zs[a], zs[b])) for a, b in cells]
    total = sum(coarse) + (zs[last] == 0.0)
    order = sorted(range(len(cells)),
                   key=lambda i: (min(abs(zs[cells[i][0]]), abs(zs[cells[i][1]])), i))
    for i in order:
        if total >= target:
            break
        a, b = cells[i]
        cell = [zs[a]] + [z(ts[k]) for k in range(a + 1, b)] + [zs[b]]
        total += sum(map(_changes_sign, cell, cell[1:])) - coarse[i]
    return total


def sign_change_zeros(
    f: FunctionSpec, z: Callable[[float], float], ts: list[float]
) -> list[ZeroRecord]:
    """Line zeros of f from the sign changes of its real signal z over the
    increasing ordinates ts, each refined to ~5e-10."""
    zs = [z(t) for t in ts]
    records = []
    for i in sign_changes(zs):
        if zs[i] == 0.0:
            t, half_width = ts[i], 0.0
        else:
            t, half_width = refine_sign_change(z, ts[i], ts[i + 1], zs[i], zs[i + 1])
        records.append(_record_zero(f, t, half_width))
    return records


def _record_zero(f: FunctionSpec, t: float, half_width: float) -> ZeroRecord:
    residual = abs(f(complex(0.5, t)))
    return ZeroRecord(t, 0.5, residual, half_width, _classify_ordinate(f, t))


class _BoundaryHit(Exception):
    pass


def _edge_walk(f: FunctionSpec, sa: complex, sb: complex, v_start: complex,
               step: float) -> tuple[float, float, complex, float | None]:
    """Accumulate arg f along the segment sa -> sb, given v_start = f(sa);
    returns (sum, min |f| over the points evaluated, f(sb), the certified
    margin or None).

    A segment whose margin 1 - B, B = f.tail_bound of its smallest real
    part, is at least BOUNDARY_MIN_MODULUS is certified: there
    |f - 1| <= B < 1, so Re f > 0 and the change of arg f is the difference
    of the principal arguments at the two ends, with f(sb) the only
    evaluation.  Every other segment is sampled every `step` or closer,
    halving a cell whose argument jumps by more than pi/2."""
    min_mod = abs(v_start)
    if min_mod < BOUNDARY_MIN_MODULUS:
        raise _BoundaryHit
    margin = 1.0 - f.tail_bound(min(sa.real, sb.real))
    if margin >= BOUNDARY_MIN_MODULUS:
        v = f(sb)
        return cmath.phase(v) - cmath.phase(v_start), min(min_mod, abs(v)), v, margin
    length = abs(sb - sa)
    n0 = max(8, math.ceil(length / step))
    total = 0.0
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
    return total, min_mod, cur_v, None


def _half_path_fe(f: FunctionSpec, rect: Rect) -> FunctionalEquation | None:
    """f.natural_fe when the count of rect may wind only its right half,
    else None.

    That needs an equation, which makes Lambda(1 - conj s) = conj Lambda(s),
    rect symmetric about sigma = 1/2, and t1 > 0: the count is that of the
    zeros of Lambda, which lacks the trivial zeros of f where the gamma
    factor has its poles on the real axis."""
    if abs(rect.sigma1 + rect.sigma2 - 1.0) <= 1e-12 and rect.t1 > 0:
        return f.natural_fe
    return None


def _turns(f: FunctionSpec, rect: Rect, step: float,
           half_fe: FunctionalEquation | None) -> tuple[float, float, float | None]:
    """(zeros inside rect before rounding, min |f| on the path walked, the
    smallest margin of its certified edges or None): the whole boundary, or
    with half_fe (see _half_path_fe) its right half closed by theta_q."""
    left = rect.sigma1 if half_fe is None else 0.5
    corners = [
        complex(left, rect.t1),
        complex(rect.sigma2, rect.t1),
        complex(rect.sigma2, rect.t2),
        complex(left, rect.t2),
    ]
    if half_fe is None:
        corners.append(corners[0])
    v = f(corners[0])
    total = 0.0
    min_mod = abs(v)
    margins = []
    for a, b in zip(corners, corners[1:]):
        part, m, v, margin = _edge_walk(f, a, b, v, step)
        total += part
        min_mod = min(min_mod, m)
        if margin is not None:
            margins.append(margin)
    margin = min(margins, default=None)
    if half_fe is None:
        return total / (2.0 * PI), min_mod, margin
    return (total + theta_q(rect.t2, half_fe) - theta_q(rect.t1, half_fe)) / PI, min_mod, margin


def count_zeros_box(f: FunctionSpec, rect: Rect, step: float = 0.05) -> BoxCountReport:
    """Argument-principle count, with the 1e-4 outward-perturbation retry.

    The reported rectangle is the one actually used, which differs from the
    input when a boundary zero forced a retry.  line_count is filled by a
    line scan's sign changes (count_line_zeros, nothing refined), counted
    until they reach the winding, whenever the box straddles the critical
    line and f declares an equation (f.natural_fe); it is None otherwise.
    It is the whole LineGrid's count whenever that is at most the winding.

    The count winds only the right half of the box, Backlund's
    (Delta_P arg f + theta_q(t2) - theta_q(t1)) / pi over
    P = 1/2 + i t1 -> sigma2 + i t1 -> sigma2 + i t2 -> 1/2 + i t2, when
    f has an equation (f.natural_fe, so Lambda(1 - conj s) = conj Lambda(s)),
    |sigma1 + sigma2 - 1| <= 1e-12 and t1 > 0 (_half_path_fe).  Every other
    box, and every box of an f with no equation, winds the whole boundary.
    The perturbed retry keeps a symmetric box symmetric.

    An edge whose smallest real part sigma has margin
    1 - f.tail_bound(sigma) >= BOUNDARY_MIN_MODULUS (the right edge at
    sigma2 = 2 for members of the q = 5, 8, 7-odd and 11-odd families) is
    certified: Re f > 0 on it, so it contributes the difference of the
    principal arguments at its corners and costs one evaluation.
    boundary_min_modulus is the minimum |f| over the points evaluated on the
    path, the right half or the whole boundary, where a certified edge has
    its two corners; certified_margin is the smallest 1 - f.tail_bound(sigma)
    over the certified edges, None if no edge is certified.
    """
    last_exc = None
    for attempt in range(4):
        r = rect.expand(attempt * PERTURB)
        if f.pole is not None and r.contains(f.pole, margin=1e-6):
            raise DomainError(f"pole of {f.name} at {f.pole} on or inside the contour {r}")
        try:
            turns, min_mod, margin = _turns(f, r, step, _half_path_fe(f, r))
        except _BoundaryHit as exc:
            last_exc = exc
            continue
        winding = round(turns)
        if abs(turns - winding) > 1e-3:
            raise PrecisionError(f"non-integer winding {turns:.6f} around {r}")
        line_count = None
        if f.natural_fe is not None and r.straddles_line():
            line_count = count_line_zeros(f, (r.t1, r.t2), step, winding)
        return BoxCountReport(r, winding, line_count, min_mod, margin)
    raise BoundaryZeroError(
        f"|{f.name}| < {BOUNDARY_MIN_MODULUS} on the contour after 3 perturbed retries of {rect}"
    ) from last_exc


def verify_on_line(f: FunctionSpec, rect: Rect,
                   step: float = 0.05) -> tuple[BoxCountReport, tuple[BoxCountReport, ...]]:
    """The box count of rect, which carries the verdict, and the sub-boxes
    that localize a FAIL, which only `zeros verify` asks for.

    The line count needs f's own equation (f.natural_fe).  On FAIL,
    sub-rectangles are bisected in t until every mismatching box is shorter
    than 0.1; those boxes are returned (none on PASS).  Perturbed sub-boxes
    overlap by up to 1e-4, so a zero on a split line may appear twice; the
    top-level counts are authoritative.
    """
    if not rect.straddles_line():
        raise DomainError(f"rectangle {rect} does not straddle the critical line")
    _own_fe(f)  # no equation, no line count: fail before any contour
    top = count_zeros_box(f, rect, step)
    found = []
    # (box asked for, its count); a retry may have widened the box counted
    queue = [(top.rectangle, top)]
    while queue:
        r, rep = queue.pop()
        if rep.verdict == "PASS":
            continue
        if r.t2 - r.t1 < 0.1:
            found.append(rep)
            continue
        tm = 0.5 * (r.t1 + r.t2)
        for half in (Rect(r.sigma1, r.sigma2, r.t1, tm), Rect(r.sigma1, r.sigma2, tm, r.t2)):
            queue.append((half, count_zeros_box(f, half, step)))
    found.sort(key=lambda rep: rep.rectangle.t1)
    return top, tuple(found)
