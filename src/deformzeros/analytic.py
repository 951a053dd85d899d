"""Analytic continuation engine: Hurwitz zeta by Euler-Maclaurin, complex
log-gamma, Dirichlet series with q-periodic coefficients summed over residue
classes as q^{-s} sum_a c_a zeta(s, a/q) (L(s, chi) here, the odd families'
combination in deformation), and the scaled zeta (1 + q^{1/2-s}) zeta(s).

Everything here is double precision by design.  The working window is the
one the command line admits: |Im s| <= 60, -5 <= Re s <= 6.  The
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

Every evaluator is built on the regular parts zeta(s, a) - 1/(s - 1) of one
point, read from a regular_parts(s): the tail factors of s, built once, and
each part computed once.  A HurwitzSum eval_fn takes that regular_parts as
the keyword parts, so the sums at one point (a deformation family's two
endpoints) share the tail and every a they have in common; called without
it, an evaluator builds a regular_parts of its own.  Either way each sum
keeps its own coefficients and accumulation order, so the value is the
same bit for bit.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import partial

from .characters import classify
from .errors import DomainError, PoleError

LN_2PI = math.log(2.0 * math.pi)

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

# cached ln(n + a) tables keyed by a; a takes few distinct values (j/q) per run
_LOG_TABLES: dict[float, list[float]] = {}


def _log_table(a: float, n: int) -> list[float]:
    tab = _LOG_TABLES.setdefault(a, [])
    while len(tab) < n:
        tab.append(math.log(len(tab) + a))
    return tab


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


def _zeta_reg(s: complex, a: float, tail: _Tail) -> tuple[complex, float]:
    """zeta(s, a) - 1/(s-1) and an error estimate (first omitted EM term),
    given tail = _tail_factors(s).

    Regular at s = 1, which is what lets mean-zero periodic series be
    evaluated right through the would-be pole.
    """
    coeffs, e25, x_min = tail
    n_shift = max(0, math.ceil(x_min - a))
    logs = _log_table(a, n_shift)
    neg_s = -s
    acc = 0j
    for k in range(n_shift):
        acc += cmath.exp(neg_s * logs[k])
    x = n_shift + a
    lx = math.log(x)
    # (x^{1-s} - 1)/(s - 1) = -ln x * E((1-s) ln x)
    acc += -lx * _expm1_over((1.0 - s) * lx)
    xs = cmath.exp(neg_s * lx)
    acc += 0.5 * xs
    # Bernoulli tail: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * x^{-s-2k+1}
    power = xs / x
    inv_x2 = 1.0 / (x * x)
    for cr in coeffs:
        acc += cr * power
        power *= inv_x2
    # after the loop power = x^{-s-25}, the power in the first omitted term
    return acc, e25 * abs(power)


# what regular_parts returns: the tail of s and the parts computed so far, by a
_Parts = tuple[_Tail, dict[float, tuple[complex, float]]]


def regular_parts(s: complex) -> _Parts:
    """What the sums at one point s share: the tail factors of s, built
    once, and a dict that keeps each regular part _zeta_reg(s, a, tail) by a
    once a sum has computed it, so that a part two sums need is computed
    once."""
    return _tail_factors(s), {}


def hurwitz_zeta_with_error(
    s: complex, a: float, parts: _Parts | None = None
) -> tuple[complex, float]:
    """zeta(s, a) = sum (n+a)^-s continued to s != 1, with error estimate,
    from `parts` (regular_parts(s), shared with other sums at s) or, when
    None, from parts of its own."""
    if not 0.0 < a <= 1.0:
        raise DomainError(f"Hurwitz parameter must satisfy 0 < a <= 1, got {a}")
    s = complex(s)
    if abs(s - 1.0) < _POLE_RADIUS:
        raise PoleError(f"zeta(s, a) evaluated within {_POLE_RADIUS} of the pole s = 1")
    tail, done = parts or regular_parts(s)
    if a not in done:
        done[a] = _zeta_reg(s, a, tail)
    reg, err = done[a]
    return reg + 1.0 / (s - 1.0), err


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


def _residue_class_sum(
    s: complex, q: int, coeffs, pole: bool, parts: _Parts | None = None
) -> tuple[complex, float]:
    """q^{-s} sum_{a=1..q} c_a zeta(s, a/q) with coeffs[a-1] = c_a, and its
    error estimate, from `parts` (regular_parts(s), shared with other sums
    at s) or, when None, from parts of its own.

    The Hurwitz poles add up to (sum c_a) / (s - 1).  `pole` is the caller's
    exact decision that this sum is nonzero; without it only the regular
    parts are summed, which carries a mean-zero series through s = 1.  The
    coefficient type (complex or float) is the caller's too, so each caller
    keeps its own rounding.
    """
    if pole and abs(s - 1.0) < _POLE_RADIUS:
        raise PoleError(
            f"series with nonzero coefficient mean has a pole at s = 1; "
            f"evaluation at |s-1| < {_POLE_RADIUS} rejected"
        )
    tail, done = parts or regular_parts(s)
    acc = 0j
    err = 0.0
    for a, c in enumerate(coeffs, 1):
        if c == 0:
            continue
        x = a / q
        if x not in done:
            done[x] = _zeta_reg(s, x, tail)
        reg, e = done[x]
        acc += c * reg
        err += abs(c) * e
    if pole:
        acc += sum(coeffs) / (s - 1.0)
    scale = cmath.exp(-s * math.log(q)) if q > 1 else 1.0 + 0.0j
    return scale * acc, abs(scale) * err


def dirichlet_l_with_error(
    s: complex, chi, principal: bool, parts: _Parts | None = None
) -> tuple[complex, float]:
    """L(s, chi) = q^{-s} sum_{a=1..q} chi(a) zeta(s, a/q).

    Only a principal chi carries the zeta pole; `principal` is that decision,
    made once by the caller (dirichlet_l_spec)."""
    s = complex(s)
    q = chi.modulus
    if q == 1:
        return hurwitz_zeta_with_error(s, 1.0, parts)
    return _residue_class_sum(s, q, chi.values[1:] + chi.values[:1], principal, parts)


def trivial_factor(s: complex, q: int) -> complex:
    """1 + q^{1/2 - s}: the elementary multiplier whose line zeros are the
    'trivial' zeros of the scaled zeta function."""
    return 1.0 + cmath.exp((0.5 - s) * math.log(q))


def scaled_zeta_with_error(
    s: complex, q: int, parts: _Parts | None = None
) -> tuple[complex, float]:
    """(1 + q^{1/2-s}) zeta(s)."""
    z, e = hurwitz_zeta_with_error(s, 1.0, parts)
    m = trivial_factor(s, q)
    return m * z, abs(m) * e


class HurwitzSum(partial):
    """An eval_fn built from regular Hurwitz parts: a partial of one of the
    evaluators here, which takes the keyword parts (regular_parts(s))
    besides s.

    Called with s alone it is an ordinary eval_fn.  A DeformationFamily hands
    both endpoints of one point one regular_parts, so they share the tail
    factors and every Hurwitz parameter they have in common; the value is
    the same, bit for bit, either way."""


class FunctionSpec(namedtuple(
    "FunctionSpec",
    "name eval_fn pole trivial_modulus watch_modulus natural_fe coeff_bounds",
    defaults=(None, None, None, None, None),
)):
    """A named (str) evaluable function of one complex variable.

    eval_fn (Callable[[complex], tuple[complex, float]]) returns (value,
    error_estimate).  pole (complex | None) marks a simple pole to be
    avoided by grids; trivial_modulus q (int | None) marks functions
    divisible by 1 + q^{1/2-s}, whose line zeros can be tagged against the
    closed form; watch_modulus (int | None) marks family members whose
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
        HurwitzSum(hurwitz_zeta_with_error, a=1.0),
        pole=1.0 + 0j,
        coeff_bounds=(1.0,),
    )


def scaled_zeta_spec(q: int) -> FunctionSpec:
    if q < 2:
        raise DomainError("scaled zeta needs a modulus q >= 2")
    return FunctionSpec(
        f"scaled_zeta(q={q})",
        HurwitzSum(scaled_zeta_with_error, q=q),
        pole=1.0 + 0j,
        trivial_modulus=q,
        # c_n = 1 + sqrt(q) when q | n, else 1
        coeff_bounds=(1.0,) * (q - 1) + (1.0 + math.sqrt(q),),
    )


def dirichlet_l_spec(chi) -> FunctionSpec:
    principal = classify(chi).is_principal
    return FunctionSpec(
        f"L(chi {chi.modulus}.{chi.label})",
        HurwitzSum(dirichlet_l_with_error, chi=chi, principal=principal),
        pole=1.0 + 0j if principal else None,
        # |chi(a)| is 1 on the units, where chi has an exponent, and 0 off them
        coeff_bounds=tuple(0.0 if k is None else 1.0
                           for k in chi.exponents[1:] + chi.exponents[:1]),
    )
