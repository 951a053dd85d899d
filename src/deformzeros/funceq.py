"""Riemann-type functional equations: W factors, residuals, line signal.

The equation checked everywhere is f(s) = W(s) * conj(f(1 - conj(s))), of
root number 1, with W(s) = q^{1/2-s} 2^s pi^{s-1} Gamma(1-s)
sin(pi(s+kappa)/2).  For kappa = 0 this is the same factor whether written
with 2^s pi^{s-1} or 2 (2pi)^{s-1}; kappa = 1 swaps the sine for a cosine.
Everything is done in log space so the Gamma growth never overflows, and
Gamma(1-s) poles that the trig factor cancels are removed by reflecting to
pi / (2 cotrig(pi s/2) Gamma(s)) on the right half plane.

Two consequences of the equation are taken in closed form rather than
computed point by point.  On the line W(1/2 + it) = e^{-2 i theta_q(t)},
with theta_q the Riemann-Siegel theta taken to modulus q (Edwards,
Riemann's Zeta Function, ch. 6), so the line signal rotates by
e^{i theta_q(t)} and evaluates no W.  And a residual grid whose sigma range
is symmetric about 1/2 is built closed under s -> 1 - conj(s), so the
reflected value the residual needs is the value at another grid point, and
f is evaluated once per point.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import cache

from .analytic import FunctionSpec, log_gamma
from .errors import DomainError, PoleError, PrecisionError

PI = math.pi
LN_2 = math.log(2.0)
LN_PI = math.log(math.pi)

STANDARD_SIGMA = (-1.0, 2.0)
STANDARD_T = (1.0, 30.0)
STANDARD_N = 20
# a residual below this satisfies the equation: the default of verify-fe
# --tol and the claim report's shared_fe verdict
FE_RESIDUAL_TOL = 1e-8


class FunctionalEquation(namedtuple("FunctionalEquation", "modulus kappa")):
    """Parameters (q, kappa), ints, of one Riemann-type equation, checked
    wherever it is built, _replace included.  Its root number is 1, as for
    every function built here: zeta, the cataloged characters (real, so of
    root number 1 by Gauss's theorem) and dh_construct's."""

    __slots__ = ()

    def __new__(cls, modulus: int, kappa: int):
        if modulus < 1:
            raise DomainError(f"functional equation needs modulus >= 1, got {modulus}")
        if kappa not in (0, 1):
            raise DomainError(f"parity kappa must be 0 or 1, got {kappa}")
        return super().__new__(cls, modulus, kappa)

    @classmethod
    def _make(cls, iterable) -> FunctionalEquation:
        return cls(*iterable)


def fe_zeta() -> FunctionalEquation:
    """The classical equation of zeta itself: q = 1, kappa = 0."""
    return FunctionalEquation(1, 0)


def fe_modulus(q: int, kappa: int = 0) -> FunctionalEquation:
    if q < 2:
        raise DomainError(f"modulus-q equation needs q >= 2, got {q}")
    return FunctionalEquation(q, kappa)


def _log_sin(z: complex) -> complex:
    """log sin z up to a 2 pi i multiple (harmless under exp), no overflow."""
    if z.imag > 1.0:
        # sin z = (i/2) e^{-iz} (1 - e^{2iz}), |e^{2iz}| = e^{-2 Im z} < 1
        return cmath.log(0.5j) - 1j * z + cmath.log(1.0 - cmath.exp(2j * z))
    if z.imag < -1.0:
        return _log_sin(z.conjugate()).conjugate()
    return cmath.log(cmath.sin(z))


def w_factor(s: complex, fe: FunctionalEquation) -> complex:
    s = complex(s)
    q, kappa = fe.modulus, fe.kappa
    r = round(s.real)
    if abs(s - r) < 1e-13 and r <= 0 and r % 2 == kappa:
        # trig zero with no Gamma pole against it: a genuine zero of W
        return 0j
    lq = math.log(q)
    if s.real < 0.5:
        # Re(1-s) > 0.5: Gamma(1-s) is pole-free here
        lt = _log_sin(0.5 * PI * (s + kappa))
        logw = (0.5 - s) * lq + s * LN_2 + (s - 1) * LN_PI + log_gamma(1.0 - s) + lt
        return cmath.exp(logw)
    # Gamma(1-s) sin(pi(s+kappa)/2) = pi / (2 sin(pi(s+1-kappa)/2) Gamma(s)),
    # finite wherever the trig factor cancelled the pole
    if abs(s - r) < 1e-8 and r >= 1 and r % 2 != kappa:
        raise PoleError(f"W factor pole at s = {r} (kappa = {kappa})")
    lt = _log_sin(0.5 * PI * (s + 1 - kappa))
    logw = (0.5 - s) * lq + s * LN_2 + (s - 1) * LN_PI + LN_PI - LN_2 - lt - log_gamma(s)
    return cmath.exp(logw)


def theta_q(t: float, fe: FunctionalEquation) -> float:
    """Im log Gamma((1/2 + kappa + it)/2) + (t/2) log(q/pi).

    The argument of the gamma factor (q/pi)^{s/2} Gamma((s + kappa)/2) at
    s = 1/2 + it, continuous in t because log_gamma is the principal branch
    and Re((1/2 + kappa + it)/2) > 0: the Riemann-Siegel theta generalised to
    modulus q (Edwards, Riemann's Zeta Function, ch. 6).  It is
    siegeltheta(t) + (t/2) log q for kappa = 0.
    """
    return (log_gamma(complex(0.25 + 0.5 * fe.kappa, 0.5 * t)).imag
            + 0.5 * t * (math.log(fe.modulus) - LN_PI))


def fe_residual(
    f: Callable[[complex], complex], fe: FunctionalEquation, s: complex, w=None
) -> float:
    """|f(s) - W(s) conj(f(1 - conj s))| / (1 + |f(s)|).

    f(s), W(s) and f(1 - conj s) are taken in that order, so the first that
    raises decides the error.  w is W(s) when the caller already has it, or
    the PoleError that computing it raised; None computes it here."""
    s = complex(s)
    v = f(s)
    if w is None:
        w = w_factor(s, fe)
    elif isinstance(w, PoleError):
        raise w
    v_ref = f(1.0 - s.conjugate())
    return abs(v - w * v_ref.conjugate()) / (1.0 + abs(v))


def residual_sweep(
    fs: Sequence[FunctionSpec],
    fe: FunctionalEquation,
    sigma_range: tuple[float, float] = STANDARD_SIGMA,
    t_range: tuple[float, float] = STANDARD_T,
    n_sigma: int = STANDARD_N,
    n_t: int = STANDARD_N,
) -> list[tuple[list[tuple[float, float, float]], list[tuple[float, float, str]]]]:
    """Residuals of each f in fs on one rectangular grid: per f, (rows,
    skipped-points-with-reason).

    sigma_k = lo + (hi - lo) k / (n_sigma - 1), and likewise for t.  When the
    sigma range is symmetric about 1/2 (lo + hi == 1.0) the grid is closed
    under the reflection s -> 1 - conj(s): of each pair sigma_k,
    sigma_{n_sigma-1-k} the one at or above 1/2 keeps the formula and the
    other is 1.0 minus it.  That subtraction is exact for every sigma >= 1/2
    (Sterbenz's lemma up to 2; above 2, 1 is a multiple of sigma's ulp), so
    every reflection is a grid point and each f is evaluated once per point.
    Other ranges keep the formula grid.  W depends on s and fe alone, so it
    is computed once per grid point for every f.
    """
    lo, hi = sigma_range
    sigmas = [lo + (hi - lo) * i / max(1, n_sigma - 1) for i in range(n_sigma)]
    if lo + hi == 1.0:
        for i in range(n_sigma // 2):
            j = n_sigma - 1 - i
            if sigmas[i] < sigmas[j]:
                sigmas[i] = 1.0 - sigmas[j]
            else:
                sigmas[j] = 1.0 - sigmas[i]

    sweeps = [(cache(f), [], []) for f in fs]
    for sig in sigmas:
        for j in range(n_t):
            t = t_range[0] + (t_range[1] - t_range[0]) * j / max(1, n_t - 1)
            s = complex(sig, t)
            try:
                w = w_factor(s, fe)
            except PoleError as exc:
                w = exc
            for value, rows, skipped in sweeps:
                try:
                    rows.append((sig, t, fe_residual(value, fe, s, w)))
                except PoleError as exc:
                    skipped.append((sig, t, str(exc)))
    return [(rows, skipped) for _, rows, skipped in sweeps]


def max_residuals(fs: Sequence[FunctionSpec], fe: FunctionalEquation, **kwargs) -> list[float]:
    """The largest residual of each f in fs, from one residual_sweep."""
    worst = []
    for rows, _ in residual_sweep(fs, fe, **kwargs):
        if not rows:
            raise PrecisionError("every grid point was skipped; nothing to report")
        worst.append(max(r[2] for r in rows))
    return worst


def max_residual(f: FunctionSpec, fe: FunctionalEquation, **kwargs) -> float:
    return max_residuals([f], fe, **kwargs)[0]


class CriticalLineSignal:
    """Real-valued rotation Z(t) = Re(u(t) f(1/2 + it)) of f on the line.

    On the line W(1/2 + it) = e^{i phase(t)} exactly, with the unwrapped
    argument phase(t) = -2 theta_q(t), so for any f of the equation
    u(t) f(1/2 + it) is real, where u(t) = e^{-i phase(t)/2} = e^{i theta_q(t)}.
    theta_q is continuous in t, so the closed form needs no anchor, no walk
    and no history, and no W factor.
    """

    def __init__(self, f: FunctionSpec, fe: FunctionalEquation):
        self.f = f
        self.fe = fe

    def phase(self, t: float) -> float:
        """Unwrapped arg of W(1/2 + it): -2 theta_q(t)."""
        return -2.0 * theta_q(t, self.fe)

    def unit(self, t: float) -> complex:
        """u(t) = e^{i theta_q(t)}, the rotation at t.

        It depends only on the equation, so one u serves every function that
        shares it."""
        return cmath.exp(1j * theta_q(t, self.fe))

    def value_with_imag(self, t: float) -> tuple[float, float]:
        """u(t) f(1/2 + it) as (Z(t), its imaginary part)."""
        z = self.unit(t) * self.f(complex(0.5, t))
        return z.real, z.imag

    def __call__(self, t: float) -> float:
        return self.value_with_imag(t)[0]
