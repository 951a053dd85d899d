"""Riemann-type functional equations: W factors, residuals, line signal.

The equation checked everywhere is f(s) = eps * W(s) * conj(f(1 - conj(s)))
with W(s) = q^{1/2-s} 2^s pi^{s-1} Gamma(1-s) sin(pi(s+kappa)/2).  For
kappa = 0 this is the same factor whether written with 2^s pi^{s-1} or
2 (2pi)^{s-1}; kappa = 1 swaps the sine for a cosine.  Everything is done in
log space so the Gamma growth never overflows, and Gamma(1-s) poles that the
trig factor cancels are removed by reflecting to pi / (2 cotrig(pi s/2)
Gamma(s)) on the right half plane.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, replace

from .analytic import FunctionSpec, log_gamma
from .errors import BranchTrackingError, DomainError, PoleError

PI = math.pi
LN_2 = math.log(2.0)
LN_PI = math.log(math.pi)

STANDARD_SIGMA = (-1.0, 2.0)
STANDARD_T = (1.0, 30.0)
STANDARD_N = 20


@dataclass(frozen=True)
class FunctionalEquation:
    """Parameters (q, kappa, eps) of one Riemann-type equation.

    kind records where the equation came from (a scaled-zeta construction or
    a Dirichlet L-function); the W factor depends only on q and kappa.
    """

    modulus: int
    kappa: int
    epsilon: complex = 1.0 + 0j
    kind: str = "zeta_type"

    def __post_init__(self):
        if self.modulus < 1:
            raise DomainError(f"functional equation needs modulus >= 1, got {self.modulus}")
        if self.kappa not in (0, 1):
            raise DomainError(f"parity kappa must be 0 or 1, got {self.kappa}")
        if self.kind not in ("zeta_type", "dirichlet_type"):
            raise DomainError(f"unknown kind {self.kind!r}")
        eps = complex(self.epsilon)
        if abs(abs(eps) - 1.0) > 1e-6:
            raise DomainError(f"epsilon must have unit modulus, got |eps| = {abs(eps)}")
        object.__setattr__(self, "epsilon", eps / abs(eps))

    def describe(self) -> str:
        return f"q={self.modulus} kappa={self.kappa} eps={self.epsilon:.6g} {self.kind}"


def fe_zeta() -> FunctionalEquation:
    """The classical equation of zeta itself: q = 1, kappa = 0, eps = 1."""
    return FunctionalEquation(1, 0, 1.0 + 0j, "zeta_type")


def fe_modulus(q: int, kappa: int = 0, epsilon: complex = 1.0 + 0j,
               kind: str = "zeta_type") -> FunctionalEquation:
    if q < 2:
        raise DomainError(f"modulus-q equation needs q >= 2, got {q}")
    return FunctionalEquation(q, kappa, epsilon, kind)


def attach_fe(f: FunctionSpec, fe: FunctionalEquation) -> FunctionSpec:
    return replace(f, natural_fe=fe)


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


def fe_residual(f: FunctionSpec, fe: FunctionalEquation, s: complex) -> float:
    """|f(s) - eps W(s) conj(f(1 - conj s))| / (1 + |f(s)|)."""
    s = complex(s)
    v = f(s)
    w = w_factor(s, fe)
    v_ref = f(1.0 - s.conjugate())
    return abs(v - fe.epsilon * w * v_ref.conjugate()) / (1.0 + abs(v))


def residual_sweep(
    f: FunctionSpec,
    fe: FunctionalEquation,
    sigma_range: tuple[float, float] = STANDARD_SIGMA,
    t_range: tuple[float, float] = STANDARD_T,
    n_sigma: int = STANDARD_N,
    n_t: int = STANDARD_N,
) -> tuple[list[tuple[float, float, float]], list[tuple[float, float, str]]]:
    """Residual on a rectangular grid: (rows, skipped-points-with-reason)."""
    rows = []
    skipped = []
    for i in range(n_sigma):
        sig = sigma_range[0] + (sigma_range[1] - sigma_range[0]) * i / max(1, n_sigma - 1)
        for j in range(n_t):
            t = t_range[0] + (t_range[1] - t_range[0]) * j / max(1, n_t - 1)
            try:
                rows.append((sig, t, fe_residual(f, fe, complex(sig, t))))
            except PoleError as exc:
                skipped.append((sig, t, str(exc)))
    return rows, skipped


def max_residual(f: FunctionSpec, fe: FunctionalEquation, **kwargs) -> float:
    rows, _ = residual_sweep(f, fe, **kwargs)
    if not rows:
        raise DomainError("every grid point was skipped; nothing to report")
    return max(r[2] for r in rows)


class CriticalLineSignal:
    """Real-valued rotation Z(t) of f(1/2 + it).

    omega(t)^2 = eps W(1/2 + it); the square root branch is pinned at the
    anchor ordinate and continued by unwrapped-argument accumulation, halving
    the step whenever a jump exceeds pi/2.  Anchors persist between calls, so
    scattered evaluations stay on one branch.  Each anchor keeps |W| beside
    its phase, so W is evaluated once per ordinate.
    """

    def __init__(self, f: FunctionSpec, fe: FunctionalEquation, anchor_t: float = 1.0):
        self.f = f
        self.fe = fe
        w0 = self._w(anchor_t)
        self._ts = [anchor_t]
        self._phases = [cmath.phase(w0)]
        self._wabs = [abs(w0)]

    def _w(self, t: float) -> complex:
        return self.fe.epsilon * w_factor(complex(0.5, t), self.fe)

    def _max_step(self, t: float) -> float:
        # |d arg W / dt| <= ln q + ln(|t|+2) + 4 on the line (digamma growth
        # plus bounded cot term); capping steps below pi/2 over that bound
        # keeps the true jump under pi, so the principal remainder cannot
        # alias by a hidden 2 pi
        return 0.5 * PI / (math.log(self.fe.modulus) + math.log(abs(t) + 2.0) + 4.0)

    def _anchor(self, t: float) -> int:
        """Index of the anchor at t, walking there from the nearest one first."""
        i = bisect.bisect_left(self._ts, t)
        if i < len(self._ts) and self._ts[i] == t:
            return i
        if i == 0:
            j = 0
        elif i == len(self._ts) or t - self._ts[i - 1] <= self._ts[i] - t:
            j = i - 1
        else:
            j = i
        cur_t, cur_ph = self._ts[j], self._phases[j]
        pending = [t]
        while pending:
            nxt = pending[-1]
            gap = abs(nxt - cur_t)
            if gap > self._max_step(max(abs(cur_t), abs(nxt))):
                pending.append(0.5 * (cur_t + nxt))
                continue
            w = self._w(nxt)
            delta = math.remainder(cmath.phase(w) - cur_ph, 2.0 * PI)
            if abs(delta) > 0.5 * PI:
                if gap < 1e-12:
                    raise BranchTrackingError(
                        f"argument jump {delta:.3f} persists at step {gap:.2e} near t = {nxt}"
                    )
                pending.append(0.5 * (cur_t + nxt))
                continue
            cur_t, cur_ph = nxt, cur_ph + delta
            pending.pop()
            k = bisect.bisect_left(self._ts, cur_t)
            if k == len(self._ts) or self._ts[k] != cur_t:
                self._ts.insert(k, cur_t)
                self._phases.insert(k, cur_ph)
                self._wabs.insert(k, abs(w))
        return bisect.bisect_left(self._ts, t)

    def phase(self, t: float) -> float:
        """Unwrapped arg of eps W(1/2 + it), continuous from the anchor."""
        return self._phases[self._anchor(t)]

    def rotate(self, v: complex, t: float) -> complex:
        """v / omega(t); for v = f(1/2 + it) the real part is Z(t).

        The rotation depends only on the equation, so any function sharing
        it can be rotated here without a signal of its own."""
        k = self._anchor(t)
        return v * cmath.exp(-0.5j * self._phases[k]) / math.sqrt(self._wabs[k])

    def value_with_imag(self, t: float) -> tuple[float, float]:
        z = self.rotate(self.f(complex(0.5, t)), t)
        return z.real, z.imag

    def __call__(self, t: float) -> float:
        return self.value_with_imag(t)[0]


def hardy_signal(
    f: FunctionSpec,
    fe: FunctionalEquation,
    t_range: tuple[float, float],
    n_points: int,
) -> list[tuple[float, float, float]]:
    """Samples (t, Z(t), |Im Z|): the imaginary part is the honesty signal."""
    if n_points < 2:
        raise DomainError("need at least 2 sample points")
    sig = CriticalLineSignal(f, fe, anchor_t=t_range[0])
    out = []
    for k in range(n_points):
        t = t_range[0] + (t_range[1] - t_range[0]) * k / (n_points - 1)
        z, zi = sig.value_with_imag(t)
        out.append((t, z, abs(zi)))
    return out
