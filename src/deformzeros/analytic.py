"""Analytic continuation engine: Hurwitz zeta by Euler-Maclaurin, complex
log-gamma, Dirichlet series with q-periodic coefficients summed over residue
classes as q^{-s} sum_a c_a zeta(s, a/q) (L(s, chi) here, the odd families'
combination in deformation), and the scaled zeta (1 + q^{1/2-s}) zeta(s).
For a real, even, non-principal chi, dirichlet_l_spec sums L(s, chi) over
half its classes instead: 2 q^{-s} sum_{chi(a)=1} zeta(s, a/q) - P(s) zeta(s),
with P(s) = sum_{d|q} mu(d) d^{-s}, by the distribution relation
sum_{gcd(a,q)=1} zeta(s, a/q) = q^s P(s) zeta(s); the zeta(s) it needs is
the one an even family's f0 computes.  dirichlet_l_with_error sums every
class of any chi; both find the zeta pole with classify(chi).is_principal.

Everything here is double precision by design.  The working window is the
one the command line admits: |Im s| <= T_LIMIT and Re s in SIGMA_LIMITS.  The
Euler-Maclaurin shift N is the smallest whose first omitted term
B_26/26! |(s)_25| (N + a)^(-Re s - 25) is at most 2^-53, the unit
roundoff, so truncation stays below rounding there.  What remains is
rounding, which grows with the function's size to the left of the line:
against 40-digit mpmath, zeta(s) is off by 2.6e-11 absolute (1.1e-13
relative) at -2 + 60i and by 1.3e-3 absolute (5.5e-9 relative) at the
-5 + 60i corner, against ~2e-16 at 4 + 60i and 6 + 60i.  The leak is
complex-exponential argument reduction; no double-only algorithm removes
it.  Each evaluator reports an error estimate taken from the first omitted
Euler-Maclaurin correction term; that estimate covers truncation only.

Every evaluator is a Plan, fixed once when its function is built: the
ordered Hurwitz parameters a the function reads, and its closed-form
combination of the regular parts zeta(s, a) - 1/(s - 1) at those a, with
every constant that does not depend on s (log q, and log d and log(q/d) for
each Moebius pair of P(s)) computed there.  A point then costs one
_tail_factors, one _zeta_reg per parameter, and the combination, once: the
plan keeps each point's values, so a function asked again at the same s
reads them back.  It keeps a table of ln(n + a) per parameter and nothing
else, so dropping a family frees both (a sweep of the 122 cataloged families
with q <= 200 keeps 0.0 MiB; a process-wide table cache kept 20.4 MiB).  The
plan of several functions (a deformation family's two endpoints, Plan.joint)
reads each parameter they have in common once; each function keeps its own
coefficients and accumulation order, so its value is the same bit for bit
alone or in a joint plan.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Callable

from .characters import _prime_factors, classify
from .errors import DomainError, PoleError

LN_2PI = math.log(2.0 * math.pi)

T_LIMIT = 60.0
# every sigma of --sigma and --box lies here: symmetric about 1/2, so each
# reflection 1 - sigma does too, and narrow enough that the kernel's rounding
# at Re s = -5, |t| = 60 keeps functional-equation residuals below 1e-8
# (6.3e-9 measured; -6 gives 1.7e-7)
SIGMA_LIMITS = (-5.0, 6.0)

# B_2, B_4, ..., B_24 as (numerator, denominator); int / int rounds correctly
_BERNOULLI = [
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730),
]
# (B_{2k}/(2k)!, 2k - 1, 2k) for the zeta tail, and the first omitted
# coefficient B_26/26!
_EM_STEPS = [
    (n / (d * math.factorial(2 * k)), float(2 * k - 1), float(2 * k))
    for k, (n, d) in enumerate(_BERNOULLI, 1)
]
_EM_NEXT = 8553103 / (6 * math.factorial(26))
# B_{2k}/(2k(2k-1)) for the Stirling series
_STIRLING_COEFF = [n / (d * 2 * k * (2 * k - 1)) for k, (n, d) in enumerate(_BERNOULLI[:10], 1)]

# Bound on the first omitted Euler-Maclaurin term that sizes the shift
_TRUNC_TARGET = 2.0**-53
# N + a = max(_MIN_SHIFT, |Im s|) where the first omitted term cannot size
# the shift (Re s <= -25, where it does not decay in N), and twice that caps
# the shift elsewhere: the tail is asymptotic in (N + a)/|s|, so N + a grows
# with |Im s|.
_MIN_SHIFT = 15.0

_POLE_RADIUS = 1e-8
# points a Plan keeps; past it, new points are computed and not kept
PLAN_POINT_CAP = 1 << 15


def _expm1_over(z: complex) -> complex:
    """(exp(z) - 1)/z, stable at z -> 0."""
    if abs(z) < 0.1:
        # sum_{k>=0} z^k/(k+1)!, ten terms: remainder < 3e-18 at |z| = 0.1
        acc = 0j
        for k in range(10, 0, -1):
            acc = (acc + 1.0) * z / (k + 1)
        return acc + 1.0
    return (cmath.exp(z) - 1.0) / z


_Tail = tuple[list[complex], float, float]  # what _tail_factors returns


def _tail_factors(s: complex) -> _Tail:
    """The parts of the Euler-Maclaurin tail that depend on s alone, shared
    by every Hurwitz parameter a: the products B_2k/(2k)! (s)_{2k-1} for
    k = 1..12, the first omitted factor e25 = B_26/26! |(s)_25|, and the
    smallest N + a at which the first omitted term e25 (N + a)^(-Re s - 25)
    is at most _TRUNC_TARGET.

    That N + a grows without bound as Re s falls to -25 (about 1e8 at
    Re s = -20, |Im s| = 60), so it is capped at twice the fallback
    max(_MIN_SHIFT, |Im s|), a cap the window never reaches: there N + a
    peaks at 1.69 times the fallback, at -5 + 60i.  At s = 0, ..., -24
    (e25 = 0) the tail is exact and N + a >= 1 only keeps its powers of
    N + a finite; the fallback would cancel ~1e3 against ~1e-2 at s = -2.
    """
    coeffs = []
    rising = s
    for c, m1, m2 in _EM_STEPS:
        coeffs.append(c * rising)
        rising = rising * (s + m1) * (s + m2)
    e25 = _EM_NEXT * abs(rising)
    fallback = max(_MIN_SHIFT, abs(s.imag))
    if not s.real > -25.0:
        x_min = fallback
    elif e25 == 0.0:
        x_min = 1.0
    else:
        log_x = math.log(e25 / _TRUNC_TARGET) / (s.real + 25.0)
        x_min = math.exp(log_x) if log_x < math.log(2.0 * fallback) else 2.0 * fallback
    return coeffs, e25, x_min


def _zeta_reg(s: complex, a: float, tail: _Tail, logs: list[float]) -> tuple[complex, float]:
    """zeta(s, a) - 1/(s-1) and an error estimate (first omitted EM term),
    given tail = _tail_factors(s) and the caller's table logs of ln(k + a),
    k = 0, 1, ..., which is extended here as far as s needs.

    Regular at s = 1, which is what lets mean-zero periodic series be
    evaluated right through the would-be pole.
    """
    coeffs, e25, x_min = tail
    n_shift = max(0, math.ceil(x_min - a))
    # ln(k + a) for k < n_shift, and ln x at k = n_shift
    while len(logs) <= n_shift:
        logs.append(math.log(len(logs) + a))
    neg_s = -s
    exp = cmath.exp
    acc = 0j
    for lg in logs[:n_shift]:
        acc += exp(neg_s * lg)
    x = n_shift + a
    lx = logs[n_shift]
    # (x^{1-s} - 1)/(s - 1) = -ln x * E((1-s) ln x)
    acc += -lx * _expm1_over((1.0 - s) * lx)
    xs = exp(neg_s * lx)
    acc += 0.5 * xs
    # Bernoulli tail: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * x^{-s-2k+1}
    power = xs / x
    inv_x2 = 1.0 / (x * x)
    for cr in coeffs:
        acc += cr * power
        power *= inv_x2
    # after the loop power = x^{-s-25}, the power in the first omitted term
    return acc, e25 * abs(power)


_Pair = tuple[complex, float]  # a value, or a regular part, and its error estimate
# One function's closed form: the Hurwitz parameters it reads, in its own
# order, and combine(s, regs) -> (value, err), where regs starts with their
# regular parts in that order.
_Form = tuple[tuple[float, ...], Callable[[complex, list[_Pair]], _Pair]]


class Plan:
    """A point of one or more functions, fixed once: the ordered Hurwitz
    parameters they read (params, each a once), and each function's
    combination of the regular parts there.  values(s) builds the tail
    factors of s once, computes one regular part per parameter, and returns
    each function's (value, err).

    The plan keeps those values, and nothing else, in `table` by the exact
    s, and stops inserting at PLAN_POINT_CAP points, so a point is computed
    once for as long as the plan lives; `logs` holds a table of ln(k + a)
    per parameter, which _zeta_reg extends as far as a point needs.  A
    point with a zero real or imaginary part is keyed with the signs of its
    parts: complex equality makes +0.0 and -0.0 one key, but a branch cut
    tells them apart.

    Called, a plan is the eval_fn of its first function.  Plan.joint makes
    one plan of several eval_fns, so a family's endpoints share every
    parameter they have in common."""

    __slots__ = ("forms", "params", "logs", "combines", "table")

    def __init__(self, forms):
        self.forms = tuple(forms)
        params: list[float] = []
        for own, _ in self.forms:
            params += [a for a in own if a not in params]
        self.params = tuple(params)
        self.logs = tuple([] for _ in params)
        # a function whose parameters lead the plan's reads its list as it
        # is; any other, the parts gathered at its parameters' positions
        self.combines = tuple(
            (combine, None if self.params[:len(own)] == own else tuple(map(params.index, own)))
            for own, combine in self.forms
        )
        self.table: dict = {}

    @classmethod
    def joint(cls, fns) -> Plan:
        """One plan of the eval_fns fns: each Plan brings its first form, and
        any other callable s -> (value, err) is called on its own."""
        return cls(fn.forms[0] if isinstance(fn, Plan) else ((), lambda s, regs, fn=fn: fn(s))
                   for fn in fns)

    def values(self, s: complex) -> tuple[_Pair, ...]:
        """The (value, err) of every function at s, in order."""
        key = s
        if not (s.real and s.imag):
            key = (s, math.copysign(1.0, s.real), math.copysign(1.0, s.imag))
        got = self.table.get(key)
        if got is None:
            regs = None
            if self.params:
                tail = _tail_factors(s)
                regs = [_zeta_reg(s, a, tail, logs) for a, logs in zip(self.params, self.logs)]
            got = tuple([combine(s, regs if at is None else [regs[i] for i in at])
                         for combine, at in self.combines])
            if len(self.table) < PLAN_POINT_CAP:
                self.table[key] = got
        return got

    def __call__(self, s: complex) -> _Pair:
        return self.values(complex(s))[0]


def hurwitz_zeta_with_error(s: complex, a: float, reg: _Pair | None = None) -> _Pair:
    """zeta(s, a) = sum (n+a)^-s continued to s != 1, with error estimate,
    from reg, the regular part at (s, a) that a plan computed, or, when None,
    from the one a plan of zeta(s, a) alone computes."""
    if not 0.0 < a <= 1.0:
        raise DomainError(f"Hurwitz parameter must satisfy 0 < a <= 1, got {a}")
    s = complex(s)
    if abs(s - 1.0) < _POLE_RADIUS:
        raise PoleError(f"zeta(s, a) evaluated within {_POLE_RADIUS} of the pole s = 1")
    part, err = reg or _zeta_reg(s, a, _tail_factors(s), [])
    return part + 1.0 / (s - 1.0), err


# zeta(s) = zeta(s, 1)
_ZETA_FORM: _Form = ((1.0,), lambda s, regs: hurwitz_zeta_with_error(s, 1.0, regs[0]))


def log_gamma(s: complex) -> complex:
    """Principal branch of log Gamma: real on (0, inf), cut along (-inf, 0].

    Recurrence shift to Re >= 10, then the Stirling series; relative error
    stays near 1e-14 for |s| <= 100.
    """
    s = complex(s)
    if abs(s.imag) < 1e-13 and abs(s.real - round(s.real)) < 1e-13 and round(s.real) <= 0:
        raise PoleError(f"log_gamma pole at nonpositive integer s = {s}")
    n_shift = 0 if s.real >= 10.0 else math.ceil(10.0 - s.real)
    z = s + n_shift
    w = 1.0 / z
    w2 = w * w
    tail = 0j
    for c in reversed(_STIRLING_COEFF):
        tail = (tail + c) * w2
    tail /= w  # sum c_k z^{1-2k}; loop above built sum c_k w^{2k}, so divide once
    res = (z - 0.5) * cmath.log(z) - z + 0.5 * LN_2PI + tail
    for k in range(n_shift):
        res -= cmath.log(s + k)
    return res


def _class_sum_form(q: int, coeffs, pole: bool) -> _Form:
    """q^{-s} sum_{a=1..q} c_a zeta(s, a/q) with coeffs[a-1] = c_a, and its
    error estimate q^{-Re s} sum |c_a| e_a; it reads the a/q with c_a != 0.

    The Hurwitz poles add up to (sum c_a) / (s - 1).  `pole` is the caller's
    exact decision that this sum is nonzero; without it only the regular
    parts are summed, which carries a mean-zero series through s = 1.  The
    coefficient type (complex or float) is the caller's too, so each caller
    keeps its own rounding.
    """
    terms = tuple((c, abs(c)) for c in coeffs if c != 0)
    total = sum(coeffs)
    lnq = math.log(q)

    def combine(s, regs):
        if pole and abs(s - 1.0) < _POLE_RADIUS:
            raise PoleError(
                f"series with nonzero coefficient mean has a pole at s = 1; "
                f"evaluation at |s-1| < {_POLE_RADIUS} rejected"
            )
        acc = 0j
        err = 0.0
        for (reg, e), (c, abs_c) in zip(regs, terms):
            acc += c * reg
            err += abs_c * e
        if pole:
            acc += total / (s - 1.0)
        scale = cmath.exp(-s * lnq) if q > 1 else 1.0 + 0.0j
        return scale * acc, abs(scale) * err

    return tuple(a / q for a, c in enumerate(coeffs, 1) if c != 0), combine


def _residue_class_sum(s: complex, q: int, coeffs, pole: bool) -> _Pair:
    """The sum _class_sum_form(q, coeffs, pole) describes, at s."""
    return Plan([_class_sum_form(q, coeffs, pole)])(s)


def _half_class_form(q: int, plus: tuple[int, ...], mobius: tuple[tuple[int, int], ...]) -> _Form:
    """L(s, chi) = 2 q^{-s} sum_{chi(a)=1} zeta(s, a/q) - P(s) zeta(s) for
    a real non-principal chi mod q, P(s) = sum_{d|q} mu(d) d^{-s}: the classes
    with chi(a) = -1 are the units' sum q^s P(s) zeta(s) (the distribution
    relation) less the classes with chi(a) = 1.  plus lists those a, mobius
    the pairs (mu(d), d) over the squarefree d | q; it reads 1 and each a/q.

    The Hurwitz poles add up to sum_d mu(d) d^{-s} ((q/d)^{1-s} - 1)/(s - 1),
    summed as _zeta_reg sums its own, so L is finite at s = 1.  The error
    estimate is 2 |q^{-s}| sum e_a + |P(s)| e_1 over the per-class estimates.
    """
    lnq = math.log(q)
    # (mu(d), ln d or None at d = 1, ln(q/d))
    terms = tuple((mu, math.log(d) if d > 1 else None, math.log(q // d)) for mu, d in mobius)
    end = 1 + len(plus)

    def combine(s, regs):
        acc = 0j
        err = 0.0
        for reg, e in regs[1:end]:
            acc += reg
            err += e
        reg1, e1 = regs[0]
        p_s = 0j
        pole = 0j
        for mu, lnd, lx in terms:
            d_s = cmath.exp(-s * lnd) if lnd is not None else 1.0 + 0.0j
            p_s += mu * d_s
            # ((q/d)^{1-s} - 1)/(s - 1) = -ln(q/d) E((1-s) ln(q/d)), which
            # is exactly 0 at d = q
            if lx:
                pole -= mu * d_s * lx * _expm1_over((1.0 - s) * lx)
        scale = 2.0 * cmath.exp(-s * lnq)
        return scale * acc - p_s * reg1 + pole, abs(scale) * err + abs(p_s) * e1

    return (1.0,) + tuple(a / q for a in plus), combine


def _l_form(chi, principal: bool) -> _Form:
    """L(s, chi) over every class (zeta(s) for q = 1), the pole where principal."""
    q = chi.modulus
    if q == 1:
        return _ZETA_FORM
    return _class_sum_form(q, chi.values[1:] + chi.values[:1], principal)


def dirichlet_l_with_error(s: complex, chi) -> _Pair:
    """L(s, chi) = q^{-s} sum_{a=1..q} chi(a) zeta(s, a/q) over every class,
    with the zeta pole exactly where classify finds chi principal."""
    return Plan([_l_form(chi, classify(chi).is_principal)])(s)


def trivial_factor(s: complex, q: int) -> complex:
    """1 + q^{1/2 - s}: the elementary multiplier whose line zeros are the
    'trivial' zeros of the scaled zeta function."""
    return 1.0 + cmath.exp((0.5 - s) * math.log(q))


def _scaled_zeta_form(q: int) -> _Form:
    """(1 + q^{1/2-s}) zeta(s)."""
    lnq = math.log(q)

    def combine(s, regs):
        z, e = hurwitz_zeta_with_error(s, 1.0, regs[0])
        m = 1.0 + cmath.exp((0.5 - s) * lnq)
        return m * z, abs(m) * e

    return (1.0,), combine


class FunctionSpec(namedtuple(
    "FunctionSpec",
    "name eval_fn pole trivial_modulus watch_modulus natural_fe coeff_bounds",
    defaults=(None, None, None, None, None),
)):
    """A named (str) evaluable function of one complex variable.

    eval_fn (Callable[[complex], tuple[complex, float]]) returns (value,
    error_estimate); every spec built here makes it the Plan of its
    function, which keeps the points it computes, and a family joins the
    two endpoints' plans into one (Plan.joint).  pole (complex | None)
    marks a simple pole to be avoided by grids; trivial_modulus q (int |
    None) marks functions divisible by 1 + q^{1/2-s}, whose line zeros can
    be tagged against the closed form; watch_modulus (int | None) marks family members whose
    coincidences with those ordinates are worth flagging but must not be
    presupposed.  natural_fe is the functional equation the function
    satisfies (a funceq FunctionalEquation, set with _replace), the only
    one zero-finding reads; None declares none.

    coeff_bounds (tuple[float, ...] | None), when set, says that eval_fn is
    a Dirichlet series sum c_n n^-s with c_1 = 1 and gives one period of
    upper bounds: |c_n| <= coeff_bounds[(n - 1) % len(coeff_bounds)].  It
    describes eval_fn and nothing else, so it must be dropped (set to None)
    whenever eval_fn is swapped for a different function; tail_bound reads
    it.
    """

    __slots__ = ()

    def tail_bound(self, sigma: float) -> float:
        """B(sigma) = sum_{n>=2} b_n n^-sigma over the coeff_bounds b, so that
        |f(s) - 1| <= B(sigma) wherever Re s >= sigma; inf without
        coeff_bounds or where that series diverges (sigma <= 1).

        B is the residue-class sum of the bounds at s = sigma, less its n = 1
        term, plus that sum's Euler-Maclaurin error estimate and 1e-12 of the
        sum for rounding (its terms are all positive; measured rounding is
        ~1e-16 of it)."""
        b = self.coeff_bounds
        if b is None or not sigma > 1.0 + _POLE_RADIUS:
            return math.inf
        total, err = _residue_class_sum(complex(sigma), len(b), b, True)
        return total.real * (1.0 + 1e-12) - 1.0 + err

    def __call__(self, s: complex) -> complex:
        return self.eval_fn(complex(s))[0]

    def eval_with_error(self, s: complex) -> tuple[complex, float]:
        return self.eval_fn(complex(s))

    def __repr__(self) -> str:
        return f"FunctionSpec({self.name})"


def zeta_spec() -> FunctionSpec:
    return FunctionSpec(
        "zeta",
        Plan([_ZETA_FORM]),
        pole=1.0 + 0j,
        coeff_bounds=(1.0,),
    )


def scaled_zeta_spec(q: int) -> FunctionSpec:
    if q < 2:
        raise DomainError("scaled zeta needs a modulus q >= 2")
    return FunctionSpec(
        f"scaled_zeta(q={q})",
        Plan([_scaled_zeta_form(q)]),
        pole=1.0 + 0j,
        trivial_modulus=q,
        # c_n = 1 + sqrt(q) when q | n, else 1
        coeff_bounds=(1.0,) * (q - 1) + (1.0 + math.sqrt(q),),
    )


def dirichlet_l_spec(chi) -> FunctionSpec:
    """L(s, chi).  A real, even, non-principal chi is summed over its classes
    with chi(a) = 1 and zeta(s) (_half_class_form); every other chi over all
    its classes.  An odd chi keeps the full sum because its family's f0
    (deformation.dh_construct) computes every class anyway."""
    cls = classify(chi)
    q = chi.modulus
    if cls.is_real and cls.parity == 0 and not cls.is_principal:
        mobius = [(1, 1)]
        for p in _prime_factors(q):
            mobius += [(-mu, d * p) for mu, d in mobius]
        form = _half_class_form(q, tuple(a for a in range(1, q) if chi.exponents[a] == 0),
                                tuple(mobius))
    else:
        form = _l_form(chi, cls.is_principal)
    return FunctionSpec(
        f"L(chi {q}.{chi.label})",
        Plan([form]),
        pole=1.0 + 0j if cls.is_principal else None,
        # |chi(a)| is 1 on the units, where chi has an exponent, and 0 off them
        coeff_bounds=tuple(0.0 if k is None else 1.0
                           for k in chi.exponents[1:] + chi.exponents[:1]),
    )
