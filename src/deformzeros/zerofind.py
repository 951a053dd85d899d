"""Critical-line zero location and argument-principle box counting.

Line zeros come from sign changes of the rotated signal Z(t) on a LineGrid.
A count needs only the sign changes; a located zero is refined inside its
grid cell to a bracket of half-width BISECT_HALF_WIDTH.  Box counts come
from winding the function's argument around a rectangle boundary.  Comparing
the two is the desk-scale check that every zero in a strip straddling the
line actually sits on the line.  BoxCountReport.verdict makes that
comparison; only verify_on_line (`zeros verify`) localizes a FAIL.  Both
counts sample at one scan step, SCAN_STEP unless a caller gives another;
check_step, its one rule, runs before any evaluation.

The line count of a box stops once it reaches the winding, the stopping
rule of large-scale zero verification (Turing 1953; Edwards, Riemann's Zeta
Function, 1974, ch. 8): it reads every LINE_COUNT_STRIDE-th grid node and,
only while its count is below the winding, halves a cell at its middle
node, the cell nearest a zero of the signal first.  A cell's sign changes
are at most those of the full grid over it, and the full grid's are
distinct zeros in the box, at most the winding, so the count equals the
full grid's whenever it stops early; a box whose counts disagree reads the
whole grid.

Above the real axis a box is counted from right halves when f satisfies its
own equation, Lambda(1 - conj s) = conj Lambda(s) for Lambda(s) =
(q/pi)^{s/2} Gamma((s + kappa)/2) f(s).  Reflection in the line maps the
right half of the contour of Rect(1 - a, a, t1, t2), a > 1/2, onto its left
half, so that box holds Backlund's sym(a) = (Delta_P arg f + theta_q(t2) -
theta_q(t1)) / pi zeros over P = 1/2 + i t1 -> a + i t1 -> a + i t2 ->
1/2 + i t2 (Titchmarsh, The Theory of the Riemann Zeta-Function, ch. 9).
Zeros pair off under s -> 1 - conj s, so a box with t1 > 0 holds
(+-sym(m(sigma1)) +- sym(m(sigma2))) / 2, m(x) = max(x, 1 - x), + for
sigma1 < 1/2 and for sigma2 > 1/2: a symmetric box is one walk, and a sum
odd before halving is a PrecisionError.  Only t1 <= 0, where f's trivial
zeros and Lambda's pole lie, or an f with no equation winds the whole boundary.

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
PERTURB_RETRIES = 3
BISECT_HALF_WIDTH = 5e-10
LINE_COUNT_STRIDE = 32
_SQRT_HALF = math.sqrt(0.5)
TRIVIAL_MATCH_TOL = 1e-6


class Rect(namedtuple("Rect", "sigma1 sigma2 t1 t2")):
    """The finite box [sigma1, sigma2] x [t1, t2], floats, checked wherever
    it is built, _replace included."""

    __slots__ = ()

    def __new__(cls, sigma1: float, sigma2: float, t1: float, t2: float):
        if not sigma1 < sigma2:
            raise DomainError(f"need sigma1 < sigma2, got [{sigma1}, {sigma2}]")
        if not t1 < t2:
            raise DomainError(f"need t1 < t2, got [{t1}, {t2}]")
        if -math.inf in (sigma1, t1) or math.inf in (sigma2, t2):
            raise DomainError(f"need a finite box, got [{sigma1}, {sigma2}] x [{t1}, {t2}]")
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
        return verdict_of([self.line_count == self.winding_count])


def verdict_of(parts) -> str:
    """The one PASS/FAIL rule: PASS iff every part (a bool) passes; no parts is PASS."""
    return "PASS" if all(parts) else "FAIL"


def trivial_ordinates(q: int, t_range: tuple[float, float]) -> list[float]:
    """All t = (2k+1) pi / ln q inside t_range, any integer k."""
    if q < 2:
        raise DomainError(f"trivial ordinates need q >= 2, got {q}")
    lo, hi = t_range
    lq = math.log(q)
    k_lo = math.ceil((lo * lq / PI - 1) / 2 - 1e-12)
    k_hi = math.floor((hi * lq / PI - 1) / 2 + 1e-12)
    return [(2 * k + 1) * PI / lq for k in range(k_lo, k_hi + 1)]


def _on_trivial_ordinate(q: int | None, t: float) -> bool:
    return q is not None and any(
        abs(t - t0) <= TRIVIAL_MATCH_TOL for t0 in trivial_ordinates(q, (t - 1.0, t + 1.0))
    )


def _classify_ordinate(f: FunctionSpec, t: float) -> str:
    if _on_trivial_ordinate(f.trivial_modulus, t):
        return "trivial_factor"
    if _on_trivial_ordinate(f.watch_modulus, t):
        # sits on a watched family ordinate but is not forced there by an
        # explicit factor; never presume it trivial
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


# the step of every line grid and contour walk that is given none
SCAN_STEP = 0.05
# the finest step the CLI takes; it bounds the grid of the window asked for, ceil(2 T_LIMIT /
# MIN_STEP) = 120k nodes, but the tracker reads _GAP_DEPTH + _MAX_TRAVEL beyond that window
MIN_STEP = 1e-3


def check_step(step: float) -> None:
    """The one scan-step rule, finite and positive; MIN_STEP is the CLI's floor."""
    if not 0 < step < math.inf:
        raise DomainError(f"scan step must be positive and finite, got {step}")


class LineGrid:
    """The grid every line reader (scans, line counts, the tracker's table)
    reads: nodes lo + (hi - lo) k / n, n = max(1, ceil((hi - lo) / step)),
    for every integer k, so k = 0..n covers t_range and a walk may run past
    its ends.  The ends are finite and the step passes check_step."""

    def __init__(self, t_range: tuple[float, float], step: float):
        check_step(step)
        lo, hi = t_range
        if not -math.inf < lo < hi < math.inf:
            raise DomainError(f"need finite t1 < t2, got [{lo}, {hi}]")
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
    f: FunctionSpec, t_range: tuple[float, float], step: float = SCAN_STEP
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
    A cell between two read nodes counts as sign_changes counts its first
    cell, at most the full count of the nodes it spans, and halving it at
    its middle node never lowers that.  While the total is below target,
    the cell whose ends have the smallest min |z| (ties by position) is
    halved.  The count stops once it reaches target; a target above the
    full count halves down to single cells, reading every node once.
    """
    import heapq  # loaded by the first box count, not by the CLI's import

    last = len(ts) - 1
    ends = list(range(0, last, LINE_COUNT_STRIDE)) + [last]
    zs = {k: z(ts[k]) for k in ends}
    cells = list(zip(ends, ends[1:]))
    total = sum(_changes_sign(zs[a], zs[b]) for a, b in cells) + (zs[last] == 0.0)
    heap = [(min(abs(zs[a]), abs(zs[b])), a, b) for a, b in cells if b - a > 1]
    heapq.heapify(heap)
    while total < target and heap:
        _, a, b = heapq.heappop(heap)
        m = (a + b) // 2
        za, zm, zb = zs[a], z(ts[m]), zs[b]
        zs[m] = zm
        total += _changes_sign(za, zm) + _changes_sign(zm, zb) - _changes_sign(za, zb)
        for c, d in ((a, m), (m, b)):
            if d - c > 1:
                heapq.heappush(heap, (min(abs(zs[c]), abs(zs[d])), c, d))
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


def _edge_walk(f: FunctionSpec, sa: complex, sb: complex, v_start: complex,
               step: float) -> tuple[float, float, complex, float | None]:
    """Accumulate arg f along the segment sa -> sb, given v_start = f(sa);
    returns (sum, min |f| over the points evaluated, f(sb), the certified
    margin or None), or raises BoundaryZeroError at a point where
    |f| < BOUNDARY_MIN_MODULUS.

    A segment whose margin 1 - B, B = f.tail_bound of its smallest real
    part, is at least BOUNDARY_MIN_MODULUS is certified: there
    |f - 1| <= B < 1, so Re f > 0 and the change of arg f is the difference
    of the principal arguments at the two ends, with f(sb) the only
    evaluation.  Every other segment is sampled every `step` or closer,
    halving a cell whose argument jumps by more than pi/2."""
    min_mod = abs(v_start)
    if min_mod < BOUNDARY_MIN_MODULUS:
        raise BoundaryZeroError(f"|{f.name}| < {BOUNDARY_MIN_MODULUS} at {sa}")
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
            raise BoundaryZeroError(f"|{f.name}| < {BOUNDARY_MIN_MODULUS} at {sa + (sb - sa) * u}")
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


def _path(f: FunctionSpec, corners: list[complex], step: float) -> tuple[float, float, list]:
    """(the change of arg f along the segments joining corners, min |f| over
    the points evaluated, the margins of its certified edges)."""
    v = f(corners[0])
    total, min_mod, margins = 0.0, abs(v), []
    for a, b in zip(corners, corners[1:]):
        part, m, v, margin = _edge_walk(f, a, b, v, step)
        total += part
        min_mod = min(min_mod, m)
        if margin is not None:
            margins.append(margin)
    return total, min_mod, margins


def _count(f: FunctionSpec, rect: Rect, d: float, step: float) -> tuple[int, float, list[float]]:
    """(the zeros inside rect.expand(d), min |f| over the points evaluated,
    the margins of the certified edges), counted as count_zeros_box says."""
    r = rect.expand(d)
    if (fe := f.natural_fe) is None or r.t1 <= 0:
        box = [complex(r.sigma1, r.t1), complex(r.sigma2, r.t1),
               complex(r.sigma2, r.t2), complex(r.sigma1, r.t2)]
        paths, th1, th2, per_turn = [(2, box + box[:1])], 0.0, 0.0, 2.0 * PI
    else:
        walks = {}  # abscissa -> weight; one of weight 2 for a symmetric box
        for x, outward in ((rect.sigma1, -1), (rect.sigma2, 1)):
            w = 1 if (x - 0.5) * outward > 0 else -1
            a = max(x, 1.0 - x) + w * d  # a minus walk moves with its box edge
            if a < 0.5:  # and past 1/2 it is the mirror walk of opposite sign
                a, w = 1.0 - a, -w
            walks[a] = walks.get(a, 0) + w
        paths = [(w, [complex(0.5, r.t1), complex(a, r.t1), complex(a, r.t2), complex(0.5, r.t2)])
                 for a, w in walks.items()]
        th1, th2, per_turn = theta_q(r.t1, fe), theta_q(r.t2, fe), PI
    twice, min_mod, margins = 0, math.inf, []
    for w, corners in paths:
        total, m, ms = _path(f, corners, step)
        turns = (total + th2 - th1) / per_turn
        if abs(turns - round(turns)) > 1e-3:
            raise PrecisionError(f"non-integer winding {turns:.6f} around {r}")
        twice += w * round(turns)
        min_mod, margins = min(min_mod, m), margins + ms
    if twice % 2:
        raise PrecisionError(f"the mirror walks around {r} sum to {twice}, an odd number")
    return twice // 2, min_mod, margins


def count_zeros_box(f: FunctionSpec, rect: Rect, step: float = SCAN_STEP) -> BoxCountReport:
    """Argument-principle count, with PERTURB_RETRIES outward-perturbation retries.

    The reported rectangle is the one actually used, which differs from the
    input when a boundary zero forced a retry.  line_count is filled by a
    line scan's sign changes (count_line_zeros, nothing refined), counted
    until they reach the winding, whenever the box straddles the critical
    line and f declares an equation (f.natural_fe); it is None otherwise.
    It is the whole LineGrid's count whenever that is at most the winding.

    For t1 > 0 and an f with an equation (f.natural_fe) the count is the
    module docstring's (+-sym(m(sigma1)) +- sym(m(sigma2))) / 2, one walk for
    a symmetric box, an odd sum a PrecisionError; otherwise the whole
    boundary.  Retry k counts rect.expand(k PERTURB), each walk moved with it.

    An edge whose smallest real part sigma has margin
    1 - f.tail_bound(sigma) >= BOUNDARY_MIN_MODULUS (the right edge at
    sigma2 = 2 for members of the q = 5, 8, 7-odd and 11-odd families) is
    certified: Re f > 0 on it, so it contributes the difference of the
    principal arguments at its corners and costs one evaluation.
    boundary_min_modulus is the minimum |f| over the points evaluated on the
    paths walked, where a certified edge has its two corners;
    certified_margin is the smallest 1 - f.tail_bound(sigma) over the
    certified edges, None if no edge is certified.
    """
    check_step(step)
    last_exc = None
    for attempt in range(PERTURB_RETRIES + 1):
        r = rect.expand(attempt * PERTURB)
        if f.pole is not None and r.contains(f.pole, margin=1e-6):
            raise DomainError(f"pole of {f.name} at {f.pole} on or inside the contour {r}")
        try:
            winding, min_mod, margins = _count(f, rect, attempt * PERTURB, step)
        except BoundaryZeroError as exc:
            last_exc = exc
            continue
        line_count = None
        if f.natural_fe is not None and r.straddles_line():
            line_count = count_line_zeros(f, (r.t1, r.t2), step, winding)
        return BoxCountReport(r, winding, line_count, min_mod, min(margins, default=None))
    raise BoundaryZeroError(
        f"|{f.name}| < {BOUNDARY_MIN_MODULUS} on the contour "
        f"after {PERTURB_RETRIES} perturbed retries of {rect}"
    ) from last_exc


def verify_on_line(f: FunctionSpec, rect: Rect,
                   step: float = SCAN_STEP) -> tuple[BoxCountReport, tuple[BoxCountReport, ...]]:
    """The box count of rect, which carries the verdict, and the sub-boxes
    that localize a FAIL, which only `zeros verify` asks for.

    The line count needs f's own equation (f.natural_fe).  On FAIL,
    sub-rectangles are bisected in t until every mismatching box is shorter
    than 0.1; those boxes are returned (none on PASS).  Perturbed sub-boxes
    overlap by up to 1e-4, so a zero on a split line may appear twice; the
    top-level counts are authoritative.

    A box that holds a trivial zero of f, a zero of f where
    Gamma((s + kappa)/2) has a pole, is rejected before any contour: the
    winding counts it and the line count cannot.  These are
    s = -kappa - 2k for k >= 1, and s = -kappa too when f has no pole (with
    the pole at s = 1, Lambda has its mirror pole at s = 0 instead:
    zeta(0) = -1/2).  The box, widened by PERTURB_RETRIES * PERTURB for the
    retries, straddles the line, so it holds one exactly when it holds the
    one nearest the line.
    """
    if not rect.straddles_line():
        raise DomainError(f"rectangle {rect} does not straddle the critical line")
    # no equation, no line count: fail before any contour
    nearest = -_own_fe(f).kappa - (0 if f.pole is None else 2)
    if rect.contains(complex(nearest, 0.0), margin=PERTURB_RETRIES * PERTURB):
        raise DomainError(
            f"rectangle {rect} holds the trivial zero s = {nearest} of {f.name} "
            f"(within the retries' {PERTURB_RETRIES * PERTURB:g}), which no line count sees"
        )
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
