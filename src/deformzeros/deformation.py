"""Convex deformation phi_tau = (1-tau) f0 + tau f1 and its zero dynamics.

Both endpoints satisfy one functional equation, so every phi_tau does too
(the relation is linear in f).  The rotation that makes the line signal real
depends only on that equation, so the signal of every member is
Z_tau(t) = (1 - tau) Z0(t) + tau Z1(t), and phi_tau has an on-line zero at
ordinate t exactly when tau = R(t) = Z0(t) / (Z0(t) - Z1(t)).  Zeros are
tracked on that level set, with no marching in tau: each ordinate costs one
evaluation of f0 and f1 and one closed-form rotation e^{i theta_q(t)} shared
by both, and a trajectory is a branch of R running from R = 0 (a zero of f0)
to R = 1 (a zero of f1).  A branch that runs into t = 0 instead meets its
mirror image there; past tau = R(0) the pair leaves the line onto the real
axis, and the trajectory is reported "lost" at that tau, never papered over.
A branch on which R turns back inside (0, 1) is lost at the turn.  The claim
report lists every interior extremum of R in (0, 1), so the statement that
zeros leave the line only through t = 0 is a measured list, not an
assumption.

Also here: exact division of a coefficient series by the trivial factor
1 + sqrt(q) q^{-s} in the ring Z[sqrt(q)], and the two-character combination
(L_chi + L_chibar)/2 - i tan(theta) (L_chi - L_chibar)/2, which has root
number exactly 1 when eps(chi) = e^{2 i theta}.  Note the minus sign: with
+i tan(theta) the combination picks up eps = e^{4 i theta} instead, which is
what the residual sweep reports if you try it.
"""

from __future__ import annotations

import math
import operator
from cmath import phase
from collections import namedtuple
from functools import reduce
from itertools import accumulate

from .analytic import (
    FunctionSpec,
    Plan,
    T_LIMIT,
    _class_sum_form,
    dirichlet_l_spec,
    scaled_zeta_spec,
    trivial_factor,
    zeta_spec,
)
from .characters import (
    DirichletCharacter,
    catalog_modulus,
    classify,
    first_complex_character,
    gauss_sum_collisions,
    root_number,
)
from .errors import DomainError, PoleError
from .funceq import (
    FE_RESIDUAL_TOL, CriticalLineSignal, FunctionalEquation, fe_modulus, fe_zeta, max_residuals,
)
from .zerofind import (
    BISECT_HALF_WIDTH,
    SCAN_STEP,
    LineGrid,
    Rect,
    ZeroRecord,
    _record_zero,
    _same_sign,
    check_step,
    count_zeros_box,
    refine_sign_change,
    scan_line_zeros,  # not called here; perfbench/tests/test_perfbench.py asserts the name
    sign_change_zeros,
    sign_changes,
    trivial_ordinates,
    verdict_of,
)

TAU_GRID_DEFAULT = (0.0, 0.25, 0.5, 0.75, 1.0)
# the report's window (REPORT_T1, t_max), for its boxes and its pairing
REPORT_T1, REPORT_T_MAX = 1.0, 30.0

# two line zeros closer than this are one zero (merged endpoints, or a zero
# that f0 and f1 share)
_MERGE_TOL = 1e-8
# tracker cells are never split below twice the refinement half-width
_MIN_CELL = 2.0 * BISECT_HALF_WIDTH
# a branch that has neither ended nor turned this far from its start is
# given up as lost where the walk stopped
_MAX_TRAVEL = 16.0
# how far past an interval end the counting cut is searched for
_GAP_DEPTH = 8.0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class DeformationFamily:
    """Two endpoint functions expected to share one functional equation.

    shared_fe becomes the natural_fe of both endpoints and of every member.
    Both endpoints are evaluated through one Plan (analytic), `plan`, fixed
    here, once: the Hurwitz parameters the endpoints read (an even family's
    1 and each a/q with chi(a) = 1, an odd family's every class with a
    nonzero coefficient) and each endpoint's combination of them, with its
    logs of q and of the Moebius divisors; a degenerate family's f0 and f1
    are one function there.  The plan keeps each point it computes, so
    every member, residual sweep and line sample of one family computes a
    point once, builds one Euler-Maclaurin tail there, and computes each
    Hurwitz value zeta(s, a/q) once for both endpoints.  A point is computed
    whole, so one endpoint asked for through the family computes the other
    too; the named function, whose own plan keeps its points, computes one.
    Where the other endpoint has its pole at s, an endpoint computes its own
    function alone."""

    def __init__(self, f0: FunctionSpec, f1: FunctionSpec, shared_fe: FunctionalEquation):
        self.shared_fe = shared_fe
        self.degenerate = f0.name == f1.name
        fns = (f0.eval_fn,) if self.degenerate else (f0.eval_fn, f1.eval_fn)
        self.plan = Plan.joint(fns)
        values = self.plan.values

        def reader(i: int):
            def ev(s: complex) -> tuple[complex, float]:
                try:
                    return values(s)[i]
                except PoleError:
                    return fns[i](s)

            return ev

        readers = [reader(i) for i in range(len(fns))]
        # a degenerate family's f1 keeps its own fields (its watch_modulus)
        self.f0 = f0._replace(eval_fn=readers[0], natural_fe=shared_fe)
        self.f1 = f1._replace(eval_fn=readers[-1], natural_fe=shared_fe)

    def member(self, tau: float) -> FunctionSpec:
        """phi_tau as a FunctionSpec; the endpoints are returned untouched so
        their zero tagging (trivial_modulus on f0) survives."""
        tau = float(tau)
        if not 0.0 <= tau <= 1.0:
            raise DomainError(f"tau must lie in [0, 1], got {tau}")
        if tau == 0.0:
            return self.f0
        if tau == 1.0:
            return self.f1
        f0, f1, values = self.f0, self.f1, self.plan.values

        def ev(s: complex, tau=tau) -> tuple[complex, float]:
            at = values(s)
            (v0, e0), (v1, e1) = at[0], at[-1]
            return (1.0 - tau) * v0 + tau * v1, (1.0 - tau) * e0 + tau * e1

        watch = f0.trivial_modulus or f1.trivial_modulus or f0.watch_modulus or f1.watch_modulus
        b0, b1 = f0.coeff_bounds, f1.coeff_bounds
        bounds = None
        if b0 is not None and b1 is not None and len(b0) == len(b1):
            bounds = tuple((1.0 - tau) * x + tau * y for x, y in zip(b0, b1))
        return FunctionSpec(
            f"phi(tau={tau:g})",
            ev,
            pole=f0.pole if f0.pole is not None else f1.pole,
            watch_modulus=watch,
            natural_fe=self.shared_fe,
            coeff_bounds=bounds,
        )


def dh_construct(chi: DirichletCharacter) -> FunctionSpec:
    """Self-dual combination of L(s, chi) and L(s, conj chi) for primitive chi.

    With eps(chi) = e^{2 i theta} the combination
    (L + Lbar)/2 - i tan(theta) (L - Lbar)/2 satisfies the shared functional
    equation of modulus q and parity kappa(chi) with root number 1.  It is
    the Dirichlet series with the real q-periodic coefficients
    c_a = Re chi(a) + tan(theta) Im chi(a), so it is evaluated as one
    residue-class sum; its error estimate is q^{-Re s} sum |c_a| e_a over the
    per-class estimates e_a.  The coefficients sum to 0 (chi is not
    principal), so there is no pole.  For real chi it degenerates: theta = 0
    and chibar = chi, so the plain L-function spec is returned (callers
    detect the degenerate case by name equality).
    """
    cls = classify(chi)
    if not cls.is_primitive:
        raise DomainError(
            f"combination needs a primitive character, got chi {chi.modulus}.{chi.label} "
            f"of conductor {cls.conductor}"
        )
    if cls.is_real:
        return dirichlet_l_spec(chi)
    eps = root_number(chi)
    theta = phase(eps) / 2.0
    if abs(math.cos(theta)) < 1e-6:
        raise DomainError("root number too close to -1; tan(theta) is unusable")
    tn = math.tan(theta)
    q = chi.modulus
    # coeffs[a - 1] = c_a, as _class_sum_form takes them
    coeffs = tuple(v.real + tn * v.imag for v in chi.values[1:] + chi.values[:1])
    return FunctionSpec(
        f"dh(chi {q}.{chi.label})",
        Plan([_class_sum_form(q, coeffs, False)]),
        coeff_bounds=tuple(abs(c) for c in coeffs),
    )


def named_function(
    name: str, q: int | None, parity: int, chi: DirichletCharacter | None
) -> FunctionSpec:
    """The function `--f name` names, with the equation it satisfies as its
    natural_fe: "zeta" under fe_zeta() (q and parity unread), or the tau = 0
    ("f0") or tau = 1 ("L") endpoint of the family of the real character chi
    mod q of that parity, under fe_modulus(q, parity).  A chi of None is
    cataloged_character(q, parity), looked up only where needed: even f0 is
    (1 + q^{1/2-s}) zeta(s); odd f0 combines the first primitive complex odd
    character mod q, or chi itself where there is none (dh_construct); L is
    L(s, chi), watched at the trivial ordinates of q."""
    if name == "zeta":
        return zeta_spec()._replace(natural_fe=fe_zeta())
    if name == "f0" and parity == 0:
        f = scaled_zeta_spec(q)
    elif name == "f0":
        f = dh_construct(first_complex_character(q, parity=1) or chi or cataloged_character(q, 1))
    elif name == "L":
        f = dirichlet_l_spec(chi or cataloged_character(q, parity))._replace(watch_modulus=q)
    else:
        raise DomainError(f"no function named {name!r}; pick zeta, f0 or L")
    return f._replace(natural_fe=fe_modulus(q, parity))


def family_for_character(chi: DirichletCharacter) -> DeformationFamily:
    """The deformation family from named_function("f0", ...) to
    named_function("L", ...) = L(s, chi), q the modulus of chi."""
    q, parity = chi.modulus, classify(chi).parity
    f0 = named_function("f0", q, parity, chi)
    return DeformationFamily(f0, named_function("L", q, parity, chi), f0.natural_fe)


def cataloged_character(q: int, parity: int = 0) -> DirichletCharacter:
    """The first primitive cataloged real character mod q of the given parity.

    An imprimitive chi mod q is induced from a smaller conductor, and
    L(s, chi) satisfies that conductor's equation times Euler factors, not
    the modulus-q equation a family shares, so the catalog's imprimitive
    entries are skipped."""
    for e in catalog_modulus(q, parity):
        if e.classification.is_primitive:
            return e.character
    raise DomainError(
        f"no primitive real character mod {q} of parity {parity} with root number 1 in the catalog"
    )


def standard_family(q: int, parity: int = 0) -> DeformationFamily:
    """Family for cataloged_character(q, parity)."""
    return family_for_character(cataloged_character(q, parity))


class Trajectory(namedtuple(
    "Trajectory", "samples abs_phi start_zero end_zero status reversals"
)):
    """One zero's path in tau, as the (tau, t) points its walk read, with
    abs phi alongside.

    samples is a tuple[tuple[float, float], ...] of (tau, t), abs_phi a
    tuple[float, ...], start_zero a ZeroRecord, end_zero a ZeroRecord | None,
    status (str) one of completed, merged or lost, and reversals an int."""

    __slots__ = ()


class LineSamples:
    """Rows (R, Z0, Z1, f0, f1) on the critical line, computed once per t.

    One rotation u(t) = e^{i theta_q(t)} serves both endpoints, so a row
    costs one theta_q, one f0 and one f1 evaluation and no W; R is nan
    where Z0 = Z1.  Rows are read on `grid`, the LineGrid of (lo, hi) that
    scan_line_zeros reads, whose nodes run past hi and below lo as branches
    need them.
    """

    def __init__(self, fam: DeformationFamily, lo: float, hi: float, step: float = SCAN_STEP):
        self.fam = fam
        self.grid = LineGrid((lo, hi), step)
        self._signal = CriticalLineSignal(fam.f0, fam.shared_fe)
        self._rows: dict[float, tuple[float, float, float, complex, complex]] = {}

    def row(self, t: float) -> tuple[float, float, float, complex, complex]:
        if t not in self._rows:
            at = self.fam.plan.values(complex(0.5, t))
            (v0, _), (v1, _) = at[0], at[-1]
            u = self._signal.unit(t)
            z0, z1 = (u * v0).real, (u * v1).real
            self._rows[t] = (z0 / (z0 - z1) if z0 != z1 else math.nan, z0, z1, v0, v1)
        return self._rows[t]

    def r(self, t: float) -> float:
        return self.row(t)[0]

    def z0(self, t: float) -> float:
        return self.row(t)[1]

    def z1(self, t: float) -> float:
        return self.row(t)[2]


def _argmax(fn, a: float, b: float) -> float:
    """Golden-section search for the maximum of a unimodal fn on [a, b]."""
    a, b = min(a, b), max(a, b)
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > _MIN_CELL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _bracket_correct(samples: LineSamples, a: float, b: float) -> tuple[float, float]:
    """(t, half-width) of the end zero of a branch in the cell between a and
    b, where Z1 changes sign, refined on Z1 like every located zero."""
    lo, hi = min(a, b), max(a, b)
    return refine_sign_change(samples.z1, lo, hi, samples.z1(lo), samples.z1(hi))


def _follow(samples: LineSamples, t0: float, direction: int):
    """Walk the branch of R from its zero at t0 over the grid nodes of
    `samples`: (path, status, reversals, half-width of the end zero, 0
    unless completed).

    The path holds the nodes the walk reads.  A cell is halved, down to
    _MIN_CELL, only while it cannot be read: its far row is nan, or R > 1
    there with no sign change of Z1 (a pole of R lies inside).  The cell
    where Z1 changes sign is refined once, on Z1, as the scan refines f1's
    zeros."""
    path = [(0.0, t0)]
    prev = a = t0
    ra, z1a = 0.0, samples.z1(t0)
    pending: list[float] = []
    while True:
        if not pending:
            if abs(a - t0) > _MAX_TRAVEL:
                return path, "lost", 0, 0.0
            pending.append(samples.grid.next_node(a, direction))
        b = pending[-1]
        rb, _, z1b, _, _ = samples.row(b)
        unreadable = math.isnan(rb) or (rb > 1.0 and _same_sign(z1a, z1b))
        if unreadable and abs(b - a) > _MIN_CELL:
            pending.append(0.5 * (a + b))
            continue
        pending.pop()
        if not _same_sign(z1a, z1b):
            t_end, half_width = _bracket_correct(samples, a, b)
            return path + [(1.0, t_end)], "completed", 0, half_width
        if rb < ra:
            top = _argmax(samples.r, prev, b)
            if samples.r(top) > ra:
                path.append((samples.r(top), top))
            return path, "lost", 1, 0.0
        if not rb <= 1.0:
            # a nan row, or a pole of R, still inside a cell at the split floor
            return path, "lost", 0, 0.0
        path.append((rb, b))
        if b == 0.0:
            return path, "lost", 0, 0.0
        prev, a, ra, z1a = a, b, rb, z1b


def track_zero(z0: ZeroRecord, samples: LineSamples) -> Trajectory:
    """Follow z0 along the level set tau = R(t) = Z0(t) / (Z0(t) - Z1(t)).

    One walk starts at z0 (R = 0) and reads the branch on the grid nodes of
    `samples`, the table of its family's line rows that pair_zeros shares,
    in the direction in which R grows (see _follow).  Samples are the points
    read, grid nodes and the midpoints of any halved cell, as (R(t), t)
    with |phi| alongside.  The branch is "completed" where Z1 changes sign:
    the end zero is refined in that grid cell, as the f1 scan refines it,
    and the last sample is (1, t_end).  It is "lost" at t = 0 (last sample
    (R(0), 0), where the zero meets its mirror image and the pair leaves
    the line), and "lost" where R turns back inside (0, 1), counted in
    `reversals`.  A zero that f0 and f1 share (Z1 changes sign within 1e-8
    of it) is a zero of every member and stands still.
    """
    t0 = z0.t
    lo, hi = t0 - _MERGE_TOL, t0 + _MERGE_TOL
    if not _same_sign(samples.z1(lo), samples.z1(hi)):
        t_end, half_width = _bracket_correct(samples, lo, hi)
        path, status, reversals = [(0.0, t0), (1.0, t_end)], "completed", 0
    else:
        direction = 1 if samples.r(hi) > 0.0 else -1
        path, status, reversals, half_width = _follow(samples, t0, direction)
    abs_phi = [z0.residual]
    for tau, t in path[1:]:
        _, _, _, v0, v1 = samples.row(t)
        abs_phi.append(abs((1.0 - tau) * v0 + tau * v1))
    end = _record_zero(samples.fam.f1, path[-1][1], half_width) if status == "completed" else None
    return Trajectory(tuple(path), tuple(abs_phi), z0, end, status, reversals)


class PairingReport(namedtuple(
    "PairingReport", "interval extended pairs n0 n1 trajectories r_extrema"
)):
    """What pair_zeros found: interval and extended (tuple[float, float]),
    pairs (tuple[tuple[ZeroRecord, ZeroRecord], ...]), the counts n0 and n1
    (ints), trajectories (tuple[Trajectory, ...]) and r_extrema
    (tuple[tuple[float, float], ...] of (t, tau), see _r_extrema)."""

    __slots__ = ()

    @property
    def lost(self) -> tuple[Trajectory, ...]:
        return tuple(tr for tr in self.trajectories if tr.status == "lost")


def _gap_ordinate(samples: LineSamples, start: float, direction: int) -> float:
    """Nearest grid node of `samples` beyond `start` where min(|Z0|, |Z1|),
    which is min(|f0|, |f1|) on the line, is locally maximal; searched
    outward node by node, _GAP_DEPTH t-units deep.

    When the walk exhausts without a strict local maximum (g monotone, which
    happens below intervals that have no zeros left to separate) the sampled
    argmax is returned instead; all that matters is that the cut sits away
    from every zero.  A downward walk that starts at t >= 0 stops above
    t = 0.075, since t < 0 only mirrors the zeros; one that starts below 0
    walks on, so a symmetric interval gets a symmetric cut."""

    def g(t: float) -> float:
        _, z0, z1, _, _ = samples.row(t)
        return min(abs(z0), abs(z1))

    floored = direction < 0 and start >= 0.0
    t = samples.grid.next_node(start, direction)
    if floored and t < 0.075:
        return start  # already at the bottom
    g_prev, g_here = g(start), g(t)
    best_t, best_g = t, g_here
    while True:
        t_next = samples.grid.next_node(t, direction)
        if abs(t_next - start) > _GAP_DEPTH or (floored and t_next < 0.075):
            return best_t
        g_next = g(t_next)
        if g_here >= g_prev and g_here >= g_next:
            return t
        if g_next > best_g:
            best_t, best_g = t_next, g_next
        g_prev, g_here, t = g_here, g_next, t_next


def _r_extrema(samples: LineSamples, lo: float, hi: float) -> tuple[tuple[float, float], ...]:
    """Interior extrema (t, tau) of R with tau in (0, 1) over t in [lo, hi].

    Found on the grid nodes of `samples` (a turn narrower than one grid cell
    is not resolved) and refined by golden-section search.  Only t > 0 is
    searched: f0 and f1 are real on the real axis, so R is even in t, t = 0
    is always a critical point and t < 0 mirrors t > 0.  A node triple that
    straddles a pole of R (Z0 - Z1 changes sign) is skipped.
    """
    ts = [t for t in samples.grid.nodes(lo, hi) if t > 0.0]
    rows = [samples.row(t) for t in ts]
    found = []
    for i in range(1, len(ts) - 1):
        (ra, za0, za1, _, _), (rb, zb0, zb1, _, _), (rc, zc0, zc1, _, _) = rows[i - 1 : i + 2]
        same_side = _same_sign(za0 - za1, zb0 - zb1) and _same_sign(zb0 - zb1, zc0 - zc1)
        if same_side and 0.0 < rb < 1.0 and (ra < rb > rc or ra > rb < rc):
            sign = 1.0 if rb > ra else -1.0
            t = _argmax(lambda x: sign * samples.r(x), ts[i - 1], ts[i + 1])
            found.append((t, samples.r(t)))
    return tuple(found)


def pair_zeros(
    fam: DeformationFamily, interval: tuple[float, float], step: float = SCAN_STEP
) -> PairingReport:
    """Track every f0 line zero in `interval` to tau=1 and pair it with the
    f1 zero it lands on.

    The f0 zeros and all trajectories come from one LineSamples table on
    the scan grid of `interval` (node spacing at most `step`), extended as
    branches need it.  Each branch is read on the grid nodes (track_zero),
    so an end zero whose branch leaves its start's cell is refined in its
    grid cell as the f1 scan refines it.  The reported counts n0 and n1 are
    taken over the extended interval: each end of `interval` is pushed to
    the nearest gap ordinate (local maximum of min(|f0|, |f1|) on the line)
    past every trajectory endpoint, so zeros are not split from their
    partners by the cut.  They are the sign changes of the Z0 and Z1
    columns of the same table over the two extended ends and the grid nodes
    strictly between them; nothing is refined for a count.  Lost or merged
    trajectories leave the pairing partial; they stay in `trajectories`.
    The interior extrema of R over the extended interval are reported in
    `r_extrema`.
    """
    lo, hi = float(interval[0]), float(interval[1])
    samples = LineSamples(fam, lo, hi, step)
    nodes = samples.grid.nodes(lo, hi)
    z0s = sign_change_zeros(fam.f0, samples.z0, nodes)
    if not z0s and not sign_changes([samples.z1(t) for t in nodes]):
        return PairingReport((lo, hi), (lo, hi), (), 0, 0, (), _r_extrema(samples, lo, hi))

    trajectories = [track_zero(z, samples) for z in z0s]
    ends = sorted(
        (tr.end_zero.t, i) for i, tr in enumerate(trajectories) if tr.end_zero is not None
    )
    relabel: dict[int, str] = {}
    for (ta, ia), (tb, ib) in zip(ends, ends[1:]):
        if tb - ta <= _MERGE_TOL:
            relabel[ia] = relabel[ib] = "merged"
    trajectories = [
        tr._replace(status=relabel.get(i, tr.status)) for i, tr in enumerate(trajectories)
    ]

    end_ts = [tr.end_zero.t for tr in trajectories if tr.end_zero is not None]
    hi_base = max([hi] + [t for t in end_ts if t > hi])
    lo_base = min([lo] + [t for t in end_ts if t < lo])
    hi_ext = _gap_ordinate(samples, hi_base, +1)
    lo_ext = _gap_ordinate(samples, lo_base, -1)
    ts = [lo_ext] + [t for t in samples.grid.nodes(lo_ext, hi_ext) if lo_ext < t < hi_ext] + [hi_ext]
    n0 = len(sign_changes([samples.z0(t) for t in ts]))
    n1 = len(sign_changes([samples.z1(t) for t in ts]))

    pairs = tuple(
        (tr.start_zero, tr.end_zero) for tr in trajectories if tr.status == "completed"
    )
    extrema = _r_extrema(samples, lo_ext, hi_ext)
    return PairingReport((lo, hi), (lo_ext, hi_ext), pairs, n0, n1, tuple(trajectories), extrema)


def divide_by_trivial_factor(
    c: list[int], q: int, n_max: int = 10**4
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Solve (1 + sqrt(q) q^{-s}) * sum b_n n^{-s} = sum c_n n^{-s} exactly,
    where c is one period of integer coefficients (c[j] multiplies the n
    with n = j + 1 mod len(c)), and return the integer tuples (x, y) with
    b_n = x[n-1] + y[n-1] sqrt(q), n = 1..n_max.

    The recurrence is b_n = c_n - sqrt(q) b_{n/q}, with the subtraction
    dropped when q does not divide n.  With b_n = x_n + y_n sqrt(q) that is
    (x_n, y_n) = (c_n - q y_{n/q}, -x_{n/q}) when q | n and (c_n, 0)
    otherwise, all in integers: x starts as the period repeated and y as
    zeros, and the recurrence runs at the multiples of q alone.  Unlike its
    periodic source b is not periodic: each division feeds sqrt(q)
    multiples down the powers of q, so |b_{q^k}| grows like q^{k/2}.
    """
    if q < 2:
        raise DomainError(f"trivial factor needs q >= 2, got {q}")
    if n_max < 1:
        raise DomainError(f"n_max must be positive, got {n_max}")
    if not c:
        raise DomainError("need one period of coefficients, got none")
    x = _repeated(c, n_max)
    y = [0] * n_max
    for n in range(q, n_max + 1, q):
        m = n // q - 1
        x[n - 1] -= q * y[m]
        y[n - 1] = -x[m]
    return tuple(x), tuple(y)


def _repeated(c: list[int], n_max: int) -> list[int]:
    """c_1, ..., c_{n_max}: the period c repeated."""
    return (list(c) * (n_max // len(c) + 1))[:n_max]


def convolution_roundtrip(c: list[int], q: int, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Exact check that (1 + sqrt(q) at n=q) convolved with b = x + y sqrt(q)
    reproduces the integer period c: x_n + q y_{n/q} = c_n and
    y_n + x_{n/q} = 0, with the n/q terms present only when q divides n.
    Off the multiples of q that is x equal to the period repeated and y
    zero, compared one residue class mod q at a time."""
    n_max = len(x)
    want = _repeated(c, n_max)
    for r in range(q - 1):
        if list(x[r::q]) != want[r::q] or any(y[r::q]):
            return False
    for n in range(q, n_max + 1, q):
        m = n // q - 1
        if x[n - 1] + q * y[m] != want[n - 1] or y[n - 1] + x[m] != 0:
            return False
    return True


def _coefficient_str(x: int, y: int, q: int) -> str:
    """x + y sqrt(q) written as x+y*sqrt(q), with the zero and unit parts
    dropped."""
    if y == 0:
        return str(x)
    root = f"sqrt({q})"
    if x == 0:
        return root if y == 1 else f"{y}*{root}"
    tail = root if abs(y) == 1 else f"{abs(y)}*{root}"
    return f"{x}{'+' if y > 0 else '-'}{tail}"


def _partial_sum_peaks(b: list[float]) -> list[list]:
    """[N, max_{m<=N} |sum_{n<=m} b_n|] at each decade N and at n_max =
    len(b); the growth probe for the abscissa-of-convergence question."""
    n_max = len(b)
    sums = [abs(v) for v in accumulate(b)]
    marks = [10**k for k in range(1, len(str(n_max))) if 10**k < n_max]
    out = []
    peak, start = 0.0, 0
    for n in marks + [n_max]:
        peak = max(peak, max(sums[start:n]))
        out.append([n, peak])
        start = n
    return out


def _division_summary(chi: DirichletCharacter, f1: FunctionSpec) -> dict:
    """The claim report's exact-division block for L(s, chi) = f1, q the
    modulus of chi: the round trip, the first coefficients, the partial-sum
    peaks, and the divided series summed in real arithmetic from n = 10^4
    down (a left fold: sum() compensates floats from Python 3.12 on),
    against f1 / (1 + q^{1/2-s}) at s = 5/2."""
    q = chi.modulus
    c = [round(chi(n).real) for n in range(1, q + 1)]
    x, y = divide_by_trivial_factor(c, q)
    root = math.sqrt(q)
    b = list(map(lambda u, v: u + v * root, x, y))
    total = reduce(operator.add, map(lambda bn, n: bn * pow(n, -2.5), reversed(b),
                                     range(len(b), 0, -1)))
    s_half = 2.5 + 0.0j
    return {
        "roundtrip_exact": convolution_roundtrip(c, q, x, y),
        "b_first_10": [_coefficient_str(x[n], y[n], q) for n in range(10)],
        "partial_sum_peaks": _partial_sum_peaks(b),
        "halfplane_diff": abs(total - f1(s_half) / trivial_factor(s_half, q)),
    }


def run_claim_report(
    q: int, parity: int = 0, t_max: float = REPORT_T_MAX, step: float = SCAN_STEP
) -> dict:
    """Full measured verdict sheet for the deformation family ending at
    L(s, chi), chi = cataloged_character(q, parity): the first primitive
    cataloged real character mod q of that parity, a DomainError where there
    is none.

    Each grid member's equation residual is swept once, on the standard grid
    whatever t_max is; the endpoint residuals are the tau = 0 and 1 sweeps.
    Everything contentious is reported, not assumed: per-tau on-line counts,
    trajectory statuses (including off-line departures), |N0 - N1|, the
    values of |f1| at the trivial-factor ordinates (the preserved-zeros
    question), and the partial-sum growth of the divided coefficients.
    The pairing is pair_zeros on (REPORT_T1, t_max) at the same step, so
    its end zeros are the ones `track` writes for that interval; it prints
    end zeros, statuses and turns and no trajectory sample.  PASS/FAIL strings
    (verdict_of) state what was measured; callers decide what is fatal.
    """
    if not REPORT_T1 < t_max <= T_LIMIT:
        raise DomainError(f"t_max must lie in ({REPORT_T1:g}, {T_LIMIT:g}], got {t_max}")
    check_step(step)
    chi = cataloged_character(q, parity)
    fam = family_for_character(chi)
    # first, so that the 10^4 divided coefficients are gone before the
    # family's plan fills
    division = _division_summary(chi, fam.f1)
    members = {f"{tau:g}": fam.member(tau) for tau in TAU_GRID_DEFAULT}
    phi_residuals = dict(zip(members, max_residuals(list(members.values()), fam.shared_fe)))
    r0, r1 = phi_residuals["0"], phi_residuals["1"]

    on_line = {}
    rect = Rect(-1.0, 2.0, REPORT_T1, t_max)
    for key, f in members.items():
        rep = count_zeros_box(f, rect, step=step)
        on_line[key] = {
            "verdict": rep.verdict,
            "winding_count": rep.winding_count,
            "line_count": rep.line_count,
        }

    pairing = pair_zeros(fam, (REPORT_T1, t_max), step=step)
    statuses = [tr.status for tr in pairing.trajectories]
    lost_detail = [
        {"start_t": tr.start_zero.t, "last_tau": tr.samples[-1][0], "last_t": tr.samples[-1][1]}
        for tr in pairing.lost
    ]

    watch_ordinates = trivial_ordinates(q, (0.0, 15 * math.pi / math.log(q)))  # k = 0..7
    watch_values = [abs(fam.f1(complex(0.5, t))) for t in watch_ordinates]
    preserved = verdict_of(v < 1e-6 for v in watch_values)

    return {
        "q": q,
        "chi_label": chi.label,
        "parity": parity,
        "family": {
            "f0": fam.f0.name,
            "f1": fam.f1.name,
            "degenerate": fam.degenerate,
        },
        "fe": {
            "modulus": fam.shared_fe.modulus,
            "kappa": fam.shared_fe.kappa,
            # every equation built here has root number 1 (FunctionalEquation)
            "epsilon": [1.0, 0.0],
        },
        "fe_residuals": {"f0": r0, "f1": r1, "phi": phi_residuals},
        "on_line": on_line,
        "pairing": {
            "interval": list(pairing.interval),
            "extended": list(pairing.extended),
            "n0": pairing.n0,
            "n1": pairing.n1,
            "count_gap": abs(pairing.n0 - pairing.n1),
            "completed": statuses.count("completed"),
            "merged": statuses.count("merged"),
            "lost": statuses.count("lost"),
            "lost_detail": lost_detail,
            "endpoints": [
                [tr.start_zero.t, tr.end_zero.t]
                for tr in pairing.trajectories
                if tr.end_zero is not None
            ],
            "reversals": [tr.reversals for tr in pairing.trajectories],
            "r_extrema": [[t, tau] for t, tau in pairing.r_extrema],
        },
        "watch": {
            "ordinates": watch_ordinates,
            "abs_f1": watch_values,
            "preserved_zeros_verdict": preserved,
        },
        "division": division,
        "gauss_sum_collisions": gauss_sum_collisions(q),
        "claims": {
            "shared_fe": verdict_of(r < FE_RESIDUAL_TOL for r in (r0, r1)),
            "all_zeros_on_line": verdict_of(v["verdict"] == "PASS" for v in on_line.values()),
            "all_trajectories_complete": verdict_of(s == "completed" for s in statuses),
            "count_gap_at_most_one": verdict_of([abs(pairing.n0 - pairing.n1) <= 1]),
            "preserved_trivial_zeros": preserved,
        },
        "flags": sorted(
            ({"degenerate_family"} if fam.degenerate else set())
            | ({"lost_trajectories"} if "lost" in statuses else set())
            | ({"merged_trajectories"} if "merged" in statuses else set())
        ),
    }
