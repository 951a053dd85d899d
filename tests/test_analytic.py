"""Hurwitz zeta, log-gamma, residue-class sums of periodic Dirichlet series:
values and identities.

Reference values were frozen from mpmath at 30 digits; the live sweeps
recompute them at test time as a second opinion.  Direct-summation oracles
use nothing but numpy power sums, so they are independent of every special
function implementation in sight.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import mpmath as mp

from deformzeros import analytic
from deformzeros.analytic import (
    _residue_class_sum,
    dirichlet_l_spec,
    dirichlet_l_with_error,
    hurwitz_zeta_with_error,
    log_gamma,
    scaled_zeta_spec,
    trivial_factor,
    zeta_spec,
)
from deformzeros.characters import classify, enumerate_characters, first_complex_character
from deformzeros.errors import DomainError, PoleError

EULER_GAMMA = 0.5772156649015329
UNIT_ROUNDOFF = 2.0**-53


def mpc_of(z):
    return complex(float(z.real), float(z.imag))


def real_nonprincipal(q):
    for chi in enumerate_characters(q):
        cls = classify(chi)
        if cls.is_real and not cls.is_principal:
            return chi
    raise AssertionError(f"no real non-principal character mod {q}")


def test_coefficient_tables_equal_their_fraction_twins():
    # int / int rounds correctly, as float(Fraction) does; B_2k from mpmath
    bern = [Fraction(*mp.bernfrac(2 * k)) for k in range(1, 14)]
    em_steps = [
        (float(b / math.factorial(2 * k)), float(2 * k - 1), float(2 * k))
        for k, b in enumerate(bern[:12], 1)
    ]
    stirling = [float(b / (2 * k * (2 * k - 1))) for k, b in enumerate(bern[:10], 1)]
    em_next = float(bern[12] / math.factorial(26))
    # every entry is a nonzero finite float, where == is bit for bit
    assert analytic._EM_STEPS == em_steps
    assert analytic._STIRLING_COEFF == stirling
    assert analytic._EM_NEXT == em_next


# ---------------------------------------------------------------- log gamma

def test_log_gamma_pinned_values():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(2.0)) < 1e-14
    assert abs(cmath.exp(log_gamma(0.5)) - math.sqrt(math.pi)) < 1e-12
    assert abs(log_gamma(10.0) - math.log(362880.0)) < 1e-12


def test_log_gamma_fixed_references():
    # mpmath loggamma, dps=30
    refs = [
        (2 + 3j, complex(-2.092851753092733349564, 2.302396543466867626154)),
        (-80.3 + 10j, complex(-303.9509771796764829324, -209.8954418140292754136)),
        (-5.5 + 0.001j, complex(-4.517837025659557001759, -18.84776301020376151275)),
        (0.5 + 45j, complex(-69.76689617256567512363, 126.3007379922672464577)),
    ]
    for z, ref in refs:
        assert abs(log_gamma(z) - ref) <= 1e-12 * abs(ref)


def test_log_gamma_recurrence_ratio():
    # exp(lg(s+1) - lg(s)) = s regardless of branch bookkeeping
    for s in [2 + 3j, -1.5 + 0.5j, 0.25 - 7j, -40.2 + 3j, 11.0 + 0j]:
        ratio = cmath.exp(log_gamma(s + 1) - log_gamma(s))
        assert abs(ratio - s) <= 1e-12 * abs(s)


def test_log_gamma_reflection_and_duplication():
    s = 0.3 + 2j
    lhs = cmath.exp(log_gamma(s) + log_gamma(1 - s))
    rhs = math.pi / cmath.sin(math.pi * s)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    s = 1.7 + 5j
    lhs = cmath.exp(log_gamma(s) + log_gamma(s + 0.5))
    rhs = cmath.exp((1 - 2 * s) * math.log(2)) * math.sqrt(math.pi) * cmath.exp(log_gamma(2 * s))
    assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_log_gamma_poles():
    for z in [0.0, -1.0, -7.0]:
        with pytest.raises(PoleError):
            log_gamma(z)
    log_gamma(-1.0 + 1e-6j)  # off the pole is fine


def test_log_gamma_live_sweep():
    mp.mp.dps = 30
    rng = random.Random(77)
    for _ in range(40):
        x, y = rng.uniform(-8, 8), rng.uniform(-50, 50)
        if x <= 0.5 and abs(y) < 0.05:
            continue  # too close to the cut / poles
        z = complex(x, y)
        ref = mpc_of(mp.loggamma(mp.mpc(x, y)))
        assert abs(log_gamma(z) - ref) <= 5e-13 * max(1.0, abs(ref))


# ------------------------------------------------------------- hurwitz zeta

def test_zeta_classical_values():
    assert abs(hurwitz_zeta_with_error(2.0, 1.0)[0] - math.pi**2 / 6) < 1e-12
    assert abs(hurwitz_zeta_with_error(0.0, 1.0)[0] - (-0.5)) < 1e-12
    assert abs(hurwitz_zeta_with_error(4.0, 1.0)[0] - math.pi**4 / 90) < 1e-12
    assert abs(hurwitz_zeta_with_error(3.0, 1.0)[0] - 1.202056903159594285399738) < 1e-13
    assert abs(hurwitz_zeta_with_error(-1.0, 1.0)[0] - (-1.0 / 12.0)) < 1e-13


def test_hurwitz_at_nonpositive_integers_closed_forms():
    # zeta(0, a) = 1/2 - a and zeta(-1, a) = -(a^2 - a + 1/6)/2
    for k in range(1, 11):
        a = k / 10
        assert abs(hurwitz_zeta_with_error(0.0, a)[0] - (0.5 - a)) < 1e-13
        assert abs(hurwitz_zeta_with_error(-1.0, a)[0] + (a * a - a + 1.0 / 6.0) / 2) < 1e-13


def test_hurwitz_fixed_references():
    # mpmath zeta(s, a), dps=30
    refs = [
        (0.5 + 37.1j, 0.2, complex(-2.220373001979739519111, 1.35849793306920638272)),
        (-1.5 + 23.7j, 3 / 7, complex(-15.51368993826954488691, -0.3136286492976110143623)),
        (-2.0 + 60.0j, 1.0, complex(176.0612443915856940915, 172.5506639844531342251)),
        (2.25 - 11.5j, 0.9, complex(0.610035577312916535039, -1.006907221788946267842)),
    ]
    for s, a, ref in refs:
        assert abs(hurwitz_zeta_with_error(s, a)[0] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_hurwitz_live_sweep():
    mp.mp.dps = 30
    rng = random.Random(20240817)
    for _ in range(60):
        sig, t, a = rng.uniform(-2, 4), rng.uniform(-60, 60), rng.uniform(1e-3, 1.0)
        s = complex(sig, t)
        if abs(s - 1) < 1e-6:
            continue
        ref = mpc_of(mp.zeta(mp.mpc(sig, t), mp.mpf(a)))
        assert abs(hurwitz_zeta_with_error(s, a)[0] - ref) <= 2e-12 * max(1.0, abs(ref))


def test_hurwitz_multiplication_theorem():
    # sum_{a=1..q} zeta(s, a/q) = q^s zeta(s)
    for q in (2, 3, 5, 8):
        for i in range(10):
            sig = -1 + 4 * i / 9
            for j in range(10):
                t = 40 * j / 9
                s = complex(sig, t)
                if abs(s - 1) < 1e-3:
                    continue
                lhs = sum(hurwitz_zeta_with_error(s, a / q)[0] for a in range(1, q + 1))
                rhs = cmath.exp(s * math.log(q)) * hurwitz_zeta_with_error(s, 1.0)[0]
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_hurwitz_direct_sum_consistency():
    # plain truncated numpy sum; tail at Re s = 3 past 10^6 terms is ~5e-13
    s = complex(3.0, 40.0)
    n = np.arange(0, 10**6, dtype=np.float64) + 1.0 / 3.0
    direct = np.sum(n ** (-s))
    assert abs(hurwitz_zeta_with_error(s, 1.0 / 3.0)[0] - direct) < 1e-9


def test_hurwitz_pole_and_domain_errors():
    with pytest.raises(PoleError):
        hurwitz_zeta_with_error(1.0, 1.0)[0]
    with pytest.raises(PoleError):
        hurwitz_zeta_with_error(1.0 + 5e-9j, 0.5)[0]
    for a in (0.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            hurwitz_zeta_with_error(2.0, a)[0]


def test_zeta_laurent_constant_near_pole():
    # zeta(1+h) - 1/h -> euler gamma; h chosen exactly representable so the
    # pole term cancels without rounding theatre
    h = 2.0**-20
    for hh in (h, -h):
        assert abs(hurwitz_zeta_with_error(1.0 + hh, 1.0)[0] - 1.0 / hh - EULER_GAMMA) < 1e-6


def test_zeta_small_on_the_line_at_classical_ordinates():
    # first two zero ordinates, frozen classical values
    assert abs(hurwitz_zeta_with_error(complex(0.5, 14.134725141734694), 1.0)[0]) < 1e-12
    assert abs(hurwitz_zeta_with_error(complex(0.5, 21.022039638771556), 1.0)[0]) < 1e-12


def test_error_estimates_tiny_in_window():
    for i in range(8):
        sig = -2 + 6 * i / 7
        for j in range(8):
            t = 60 * j / 7
            s = complex(sig, t)
            if abs(s - 1) < 1e-3:
                continue
            _, err = hurwitz_zeta_with_error(s, 0.37)
            assert err <= UNIT_ROUNDOFF


# the accuracy window, with the Hurwitz parameters the package evaluates
# (a = 1 for zeta, a = j/q for the residue classes of L-series mod 5 and 8)
KERNEL_AS = [1.0] + [j / 5 for j in range(1, 5)] + [j / 8 for j in range(1, 8)]


def kernel_grid(n_sigma, t_step):
    for i in range(n_sigma):
        sig = -2 + 6 * i / (n_sigma - 1)
        for t in range(-60, 61, t_step):
            s = complex(sig, t)
            if abs(s - 1) > 1e-6:
                yield s


def test_kernel_shift_is_the_smallest_meeting_unit_roundoff():
    # the error estimate is the first omitted Euler-Maclaurin term
    # e25 (N + a)^(-Re s - 25) with e25 = B_26/26! |(s)_25|, so it gives the
    # shift N back; one term fewer must leave that term above 2^-53
    b26 = float(Fraction(8553103, 6) / math.factorial(26))
    for s in kernel_grid(25, 1):
        e25 = b26 * math.prod(abs(s + j) for j in range(25))
        for a in KERNEL_AS:
            _, err = hurwitz_zeta_with_error(s, a)
            assert err <= UNIT_ROUNDOFF
            if e25 == 0.0:  # s = 0, -1, -2: the tail is exact
                assert err == 0.0
                continue
            x = (e25 / err) ** (1.0 / (s.real + 25.0))
            n = round(x - a)
            assert abs(x - a - n) < 1e-6
            if n > 0:
                assert e25 * (n - 1 + a) ** (-s.real - 25.0) > UNIT_ROUNDOFF


def test_kernel_shift_stays_bounded_left_of_the_window():
    # the first-omitted-term rule alone would take ~1e8 terms at -20 + 60i
    # and grows without bound as Re s falls to -25
    for s in (complex(-20, 60), complex(-24.9, 3), complex(-24.999, 0), complex(-30, 5)):
        _, _, x_min = analytic._tail_factors(s)
        assert x_min <= 2 * max(15.0, abs(s.imag))
        assert math.isfinite(hurwitz_zeta_with_error(s, 0.5)[1])


def test_hurwitz_kernel_grid_against_mpmath():
    mp.mp.dps = 30
    for s in kernel_grid(5, 20):
        for a in KERNEL_AS:
            ref = mpc_of(mp.zeta(mp.mpc(s.real, s.imag), mp.mpf(a)))
            assert abs(hurwitz_zeta_with_error(s, a)[0] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_residue_class_sum_shares_tail_factors_bit_identically(monkeypatch):
    # one tail per point serves every residue class: the sum must equal, bit
    # for bit, the one in which each class builds its own
    shared = {}
    for q in (5, 8):
        for chi in enumerate_characters(q):
            for s in kernel_grid(7, 12):
                shared[chi.modulus, chi.label, s] = dirichlet_l_with_error(s, chi)
    zeta_reg, tail_factors = analytic._zeta_reg, analytic._tail_factors
    calls = []

    def standalone(s, a, tail):
        calls.append(a)
        return zeta_reg(s, a, tail_factors(s))

    monkeypatch.setattr(analytic, "_zeta_reg", standalone)
    for (q, label, s), want in shared.items():
        chi = next(c for c in enumerate_characters(q) if c.label == label)
        calls.clear()
        assert dirichlet_l_with_error(s, chi) == want
        # one kernel call per residue class that chi does not vanish on
        assert len(calls) == sum(1 for v in chi.values if v != 0)


# ------------------------------------------------------- residue-class sums

# chi_5 = (n/5), as one period: coefficient of n = 1, 2, 3, 4, 5 (mod 5).
# Mean zero, so L(s, chi_5) is entire.
CHI5_PERIOD = (1, -1, -1, 1, 0)
# 1 plus sqrt(5) on multiples of 5: the elementary factor (1 + 5^{1/2-s})
# times zeta written as one periodic series, with a pole at s = 1
BLENDED_PERIOD = (1.0, 1.0, 1.0, 1.0, 1.0 + math.sqrt(5.0))


def test_mean_zero_series_through_the_pole():
    chi5 = real_nonprincipal(5)
    # classical closed form: 2 log((1+sqrt5)/2)/sqrt5
    closed = 2.0 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    assert abs(dirichlet_l_with_error(1.0, chi5)[0] - closed) < 1e-12
    # continuous through s = 1, no PoleError anywhere near it
    v0 = dirichlet_l_with_error(1.0, chi5)[0]
    v1 = dirichlet_l_with_error(1.0 + 1e-7, chi5)[0]
    assert abs(v1 - v0) < 1e-5


def test_mean_zero_block_sum_oracle():
    # partial sums over complete periods converge like C/M; two Richardson
    # levels on M, 2M, 4M kill 1/M and 1/M^2
    m_blocks = 10**5
    coeffs = np.tile(np.array(CHI5_PERIOD, dtype=np.float64), 4 * m_blocks)
    n = np.arange(1, coeffs.size + 1, dtype=np.float64)
    csum = np.cumsum(coeffs / n)
    s1 = csum[5 * m_blocks - 1]
    s2 = csum[10 * m_blocks - 1]
    s4 = csum[20 * m_blocks - 1]
    r1 = 2 * s2 - s1
    r2 = 2 * s4 - s2
    oracle = (4 * r2 - r1) / 3
    assert abs(dirichlet_l_with_error(1.0, real_nonprincipal(5))[0] - oracle) < 1e-10


def test_periodic_matches_scaled_zeta():
    # f0 for q = 5 as one residue-class sum with coefficients (1, 1, 1, 1, 1 + sqrt5)
    for s in (0.5 + 0j, -1.0 + 7j, 2.0 + 33j, 0.25 - 12.5j):
        lhs = _residue_class_sum(s, 5, BLENDED_PERIOD, True)[0]
        rhs = scaled_zeta_spec(5).eval_fn(s)[0]
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    with pytest.raises(PoleError):
        _residue_class_sum(1.0 + 0j, 5, BLENDED_PERIOD, True)


def test_periodic_linearity():
    summed = tuple(x + y for x, y in zip(CHI5_PERIOD, BLENDED_PERIOD))
    for s in (0.3 + 5j, 2.0 - 11j):
        lhs = _residue_class_sum(s, 5, summed, True)[0]
        rhs = (_residue_class_sum(s, 5, CHI5_PERIOD, False)[0]
               + _residue_class_sum(s, 5, BLENDED_PERIOD, True)[0])
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_periodic_error_estimate_scales():
    _, err = dirichlet_l_with_error(complex(-1.0, 30.0), real_nonprincipal(5))
    assert err < 1e-12


# -------------------------------------------------------------- dirichlet L

def test_dirichlet_reduces_to_zeta_for_q1():
    (chi,) = enumerate_characters(1)
    for s in (2.0 + 0j, 0.5 + 14j, -1.0 + 3j):
        assert dirichlet_l_with_error(s, chi)[0] == hurwitz_zeta_with_error(s, 1.0)[0]


def test_dirichlet_principal_euler_factors():
    chars = enumerate_characters(6)
    chi0 = chars[0]
    for s in (2.0 + 0j, 0.5 + 9j, -0.5 + 21j, 3.0 - 4j):
        lhs = dirichlet_l_with_error(s, chi0)[0]
        rhs = hurwitz_zeta_with_error(s, 1.0)[0]
        for p in (2, 3):
            rhs *= 1.0 - cmath.exp(-s * math.log(p))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_dirichlet_classical_values():
    chi4 = real_nonprincipal(4)
    chi3 = real_nonprincipal(3)
    chi5 = real_nonprincipal(5)
    # Catalan constant, pi/4, pi/(3 sqrt3), 2 log((1+sqrt5)/2)/sqrt5
    assert abs(dirichlet_l_with_error(2.0, chi4)[0] - 0.915965594177219015054603) < 1e-12
    assert abs(dirichlet_l_with_error(1.0, chi4)[0] - math.pi / 4) < 1e-12
    assert abs(dirichlet_l_with_error(1.0, chi3)[0] - math.pi / (3 * math.sqrt(3))) < 1e-12
    closed = 2.0 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    assert abs(dirichlet_l_with_error(1.0, chi5)[0] - closed) < 1e-12


def test_dirichlet_direct_sum_consistency():
    chi = first_complex_character(5, 1)
    assert chi is not None
    s = complex(3.0, 7.0)
    vals = np.array([chi(n) for n in range(5)])
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    direct = np.sum(vals[np.arange(1, 10**6 + 1) % 5] * n ** (-s))
    assert abs(dirichlet_l_with_error(s, chi)[0] - direct) < 1e-9


def test_dirichlet_principal_pole():
    # nothing tells it chi is principal: the pole at s = 1 and the value at
    # 2 + 3i (0.7898 - 0.1449i; the mean-zero sum would give 0.7403 - 0.1553i)
    # both follow from chi alone
    chi0 = enumerate_characters(5)[0]
    with pytest.raises(PoleError):
        dirichlet_l_with_error(1.0, chi0)
    # non-principal characters are entire: s = 1 just works
    dirichlet_l_with_error(1.0, first_complex_character(5, 1))
    mp.mp.dps = 20
    want = mpc_of(mp.dirichlet(mp.mpc(2, 3), [0, 1, 1, 1, 1]))
    assert abs(want - complex(0.7898, -0.1449)) < 1e-4
    assert abs(dirichlet_l_with_error(complex(2.0, 3.0), chi0)[0] - want) < 1e-14


# L(s, chi) from its chi = 1 classes and zeta(s) meets 20-digit mpmath to
# this relative error, as the sum over every class does; both are worst at
# -2 + 45i (3.3e-12), elsewhere below 6e-14
L_REL_TOL = 1e-11
# points of the accuracy window, s = 1 and two points beside it
L_POINTS = (complex(-2, 45), complex(0.5, 9), complex(0.25, 25), complex(2, 30),
            complex(6, 60), 1.0 + 0j, complex(1, 1e-3), 1.001 + 0j)


def _even_real_characters(q_max):
    for q in range(3, q_max + 1):
        for chi in enumerate_characters(q):
            cls = classify(chi)
            if cls.is_real and cls.parity == 0 and not cls.is_principal:
                yield chi, cls


def _mp_l(s, chi):
    """L(s, chi) from mpmath: q^-s sum chi(a) zeta(s, a/q), the sum
    mp.dirichlet takes, here over mpmath's Hurwitz zeta directly (20 times
    faster than mp.dirichlet left of the line), and at s = 1, where that sum
    is a limit, -(1/q) sum chi(a) psi(a/q)."""
    q = chi.modulus
    period = [round(chi(n).real) for n in range(q)]
    if s == 1:
        return -mp.fsum(period[a % q] * mp.digamma(mp.mpf(a) / q) for a in range(1, q + 1)) / q
    z = mp.mpc(s.real, s.imag)
    total = mp.fsum(period[a] * mp.zeta(z, mp.mpf(a) / q) for a in range(1, q) if period[a])
    return mp.power(q, -z) * total


def _assert_meets_mpmath(values, s, chi):
    ref = mpc_of(_mp_l(s, chi))
    for value in values:
        assert abs(value - ref) <= L_REL_TOL * abs(ref), (chi, s)


def test_even_real_l_from_half_its_classes_against_mpmath():
    # 2 q^-s sum_{chi(a)=1} zeta(s, a/q) - P(s) zeta(s), finite through s = 1,
    # for every real even non-principal chi mod q <= 24, primitive or not;
    # the sum over every class (no half decision) meets the same tolerance
    mp.mp.dps = 20
    labels = {}
    for chi, cls in _even_real_characters(24):
        labels[f"{chi.modulus}.{chi.label}"] = cls.is_primitive
        # the oracle is mp.dirichlet's sum (1.6e-19 apart measured)
        period = [round(chi(n).real) for n in range(chi.modulus)]
        assert abs(_mp_l(2.5 + 3j, chi) - mp.dirichlet(mp.mpc(2.5, 3), period)) < 1e-17
        spec = dirichlet_l_spec(chi)
        for s in L_POINTS:
            values = (spec.eval_fn(s)[0], dirichlet_l_with_error(s, chi)[0])
            _assert_meets_mpmath(values, s, chi)
    assert labels == {
        "5.2": True, "8.1": True, "10.2": False, "12.3": True, "13.6": True, "15.2": False,
        "16.2": False, "17.8": True, "20.2": False, "21.9": True, "24.2": False, "24.5": False,
        "24.7": True,
    }


def test_even_real_l_reads_half_its_classes_and_zeta(monkeypatch):
    # phi(q)/2 classes plus zeta(s, 1); its error estimate is
    # 2 |q^-s| sum e_a + |P(s)| e_1, P(s) = prod_{p | q} (1 - p^-s)
    s = complex(0.5, 9.0)
    calls = []
    zeta_reg = analytic._zeta_reg

    def counted(s, a, tail):
        calls.append(a)
        return zeta_reg(s, a, tail)

    monkeypatch.setattr(analytic, "_zeta_reg", counted)
    for chi, _ in _even_real_characters(24):
        q = chi.modulus
        plus = [a for a in range(1, q) if chi(a) == 1]
        calls.clear()
        _, err = dirichlet_l_spec(chi).eval_fn(s)
        assert sorted(calls) == sorted([a / q for a in plus] + [1.0])
        p_s = math.prod(1.0 - p ** -s for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) if q % p == 0)
        e_plus = sum(hurwitz_zeta_with_error(s, a / q)[1] for a in plus)
        want = 2.0 * abs(q ** -s) * e_plus + abs(p_s) * hurwitz_zeta_with_error(s, 1.0)[1]
        assert abs(err - want) <= 1e-12 * want


def _reference_half_combine(q, mobius, end):
    """_half_class_form's combine as it was when it still summed the d = q
    pole term, whose ln(q/d) is 0."""
    lnq = math.log(q)
    terms = tuple((mu, math.log(d) if d > 1 else None, math.log(q // d)) for mu, d in mobius)

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
            pole -= mu * d_s * lx * analytic._expm1_over((1.0 - s) * lx)
        scale = 2.0 * cmath.exp(-s * lnq)
        return scale * acc - p_s * reg1 + pole, abs(scale) * err + abs(p_s) * e1

    return combine


def test_half_form_drops_only_the_zero_pole_term():
    # at d = q the pole term -ln(q/d) E((1-s) ln(q/d)) is exactly 0, so
    # skipping it keeps every bit of the value and of the error estimate
    rng = random.Random(5)
    zeros = (0.0, -0.0)
    fixed = [complex(x, y) for x in zeros + (0.5, 1.0, 2.5) for y in zeros]
    bits = lambda v, e: (v.real.hex(), v.imag.hex(), e.hex())
    checked = 0
    for q in (5, 8, 13, 21, 24, 29):
        mobius = [(1, 1)]
        for p in analytic._prime_factors(q):
            mobius += [(-mu, d * p) for mu, d in mobius]
        # one ordinate in five a signed zero
        ts = [rng.choice(zeros) if rng.random() < 0.2 else rng.uniform(-100.0, 100.0)
              for _ in range(500)]
        points = fixed + [complex(rng.uniform(-10.0, 10.0), t) for t in ts]
        for chi in enumerate_characters(q):
            cls = classify(chi)
            if not (cls.is_real and cls.parity == 0 and not cls.is_principal):
                continue
            plus = tuple(a for a in range(1, q) if chi.exponents[a] == 0)
            params, combine = analytic._half_class_form(q, plus, tuple(mobius))
            reference = _reference_half_combine(q, mobius, 1 + len(plus))
            for s in points:
                tail = analytic._tail_factors(s)
                regs = [analytic._zeta_reg(s, a, tail) for a in params]
                assert bits(*combine(s, regs)) == bits(*reference(s, regs)), (q, s)
                checked += 1
    assert checked > 3000


def test_dirichlet_and_periodic_share_one_residue_class_sum():
    # a spec takes its pole from classify, which finds label 0 alone principal
    mp.mp.dps = 20
    for chi in enumerate_characters(12):
        spec = dirichlet_l_spec(chi)
        cls = classify(chi)
        principal = cls.is_principal
        assert (spec.pole is not None) == principal == (chi.label == 0)
        for s in (2.0 + 0j, 0.5 + 9j, -0.5 + 21j):
            if cls.is_real and cls.parity == 0 and not principal:
                # 12.3 sums its chi = 1 classes and zeta(s) instead
                _assert_meets_mpmath([spec.eval_fn(s)[0]], s, chi)
            else:
                assert spec.eval_fn(s) == dirichlet_l_with_error(s, chi)
    # a real character is the residue-class sum of its integer values, with
    # the pole exactly when the values do not sum to zero
    for chi in (enumerate_characters(5)[0], real_nonprincipal(5)):
        period = [round(chi(n).real) for n in range(1, 6)]
        assert (sum(period) != 0) == (dirichlet_l_spec(chi).pole is not None)
        for s in (2.0 + 0j, 0.5 + 9j, 1.0 + 1e-3j):
            want = _residue_class_sum(s, 5, period, sum(period) != 0)
            assert dirichlet_l_with_error(s, chi) == want


# ------------------------------------------------- scaled zeta and friends

def test_trivial_factor_reflection_identity():
    # (1 + q^{1/2-s}) = q^{1/2-s} (1 + q^{s-1/2}) exactly
    for q in (3, 5, 8, 12):
        for s in (0.3 + 4j, -1.0 + 17j, 2.5 - 9j):
            lhs = trivial_factor(s, q)
            rhs = cmath.exp((0.5 - s) * math.log(q)) * trivial_factor(1 - s, q)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_trivial_factor_line_zeros():
    for q in (3, 5, 8):
        s0 = complex(0.5, math.pi / math.log(q))
        assert abs(trivial_factor(s0, q)) < 1e-12
        assert abs(scaled_zeta_spec(q).eval_fn(s0)[0]) < 1e-10


def test_scaled_zeta_tends_to_one_far_right():
    assert abs(scaled_zeta_spec(5).eval_fn(complex(30.0, 0.0))[0] - 1.0) < 1e-8


# ------------------------------------------------------------------ specs

def test_function_specs():
    f = zeta_spec()
    assert f.name == "zeta" and f.pole == 1.0 + 0j
    assert f(2.0) == hurwitz_zeta_with_error(2.0, 1.0)[0]
    g = scaled_zeta_spec(5)
    assert g.trivial_modulus == 5
    with pytest.raises(DomainError):
        scaled_zeta_spec(1)
    chi = first_complex_character(5, 1)
    h = dirichlet_l_spec(chi)
    assert h.pole is None
    h0 = dirichlet_l_spec(enumerate_characters(5)[0])
    assert h0.pole == 1.0 + 0j

