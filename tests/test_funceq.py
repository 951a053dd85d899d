"""W factors, functional-equation residuals, and the critical-line signal."""

import cmath
import math
import random

import mpmath
import pytest

from deformzeros.analytic import (
    FunctionSpec,
    dirichlet_l_spec,
    scaled_zeta_spec,
    zeta_spec,
)
from deformzeros.characters import catalog_self_dual, classify, enumerate_characters
from deformzeros.errors import DomainError, PoleError
from deformzeros.funceq import (
    CriticalLineSignal,
    FunctionalEquation,
    attach_fe,
    fe_modulus,
    fe_residual,
    fe_zeta,
    hardy_signal,
    max_residual,
    residual_sweep,
    theta_q,
    w_factor,
)

PI = math.pi


def real_l_spec(q):
    for chi in enumerate_characters(q):
        cls = classify(chi)
        if cls.is_real and not cls.is_principal:
            return dirichlet_l_spec(chi)
    raise AssertionError(f"no real non-principal character mod {q}")


def blend(f0, f1, tau):
    def ev(s, f0=f0, f1=f1, tau=tau):
        v0, e0 = f0.eval_with_error(s)
        v1, e1 = f1.eval_with_error(s)
        return (1 - tau) * v0 + tau * v1, (1 - tau) * e0 + tau * e1
    return FunctionSpec(f"blend({tau})", ev, pole=f0.pole if tau < 1 else f1.pole)


# ------------------------------------------------------------ construction

def test_fe_fields_and_validation():
    fe = fe_zeta()
    assert (fe.modulus, fe.kappa, fe.epsilon, fe.kind) == (1, 0, 1 + 0j, "zeta_type")
    fe = fe_modulus(5, 1, kind="dirichlet_type")
    assert fe.kappa == 1 and fe.kind == "dirichlet_type"
    with pytest.raises(DomainError):
        fe_modulus(1)
    with pytest.raises(DomainError):
        FunctionalEquation(5, 2)
    with pytest.raises(DomainError):
        FunctionalEquation(5, 0, 2.0 + 0j)
    with pytest.raises(DomainError):
        FunctionalEquation(5, 0, 1.0, "mystery_type")
    # epsilon is normalized to exact unit modulus
    fe = FunctionalEquation(5, 0, cmath.exp(0.3j) * (1 + 1e-9))
    assert abs(abs(fe.epsilon) - 1.0) < 1e-15


def test_attach_fe_threads_through():
    f = attach_fe(zeta_spec(), fe_zeta())
    assert f.natural_fe == fe_zeta()
    assert f(2.0) == zeta_spec()(2.0)


# ------------------------------------------------------------- the W factor

def test_w_real_on_real_axis():
    for fe in (fe_modulus(5, 0), fe_modulus(3, 1), fe_zeta()):
        for x in (0.3, -0.7, 0.49, -3.3):
            assert abs(w_factor(x, fe).imag) < 1e-12


def test_w_unit_modulus_on_critical_line():
    for fe in (fe_modulus(5, 0), fe_modulus(8, 0), fe_modulus(3, 1)):
        for t in (1.0, 10.0, 33.7, 59.0):
            assert abs(abs(w_factor(complex(0.5, t), fe)) - 1.0) < 1e-10


def test_w_parity_ratio_is_the_trig_ratio():
    s = complex(0.5, 5.0)
    ratio = w_factor(s, fe_modulus(5, 1)) / w_factor(s, fe_modulus(5, 0))
    direct = cmath.sin(0.5 * PI * (s + 1)) / cmath.sin(0.5 * PI * s)
    assert abs(ratio - direct) < 1e-12


def test_w_two_printed_shapes_coincide():
    # q^{1/2-s} 2 (2pi)^{s-1} Gamma(1-s) sin(pi s/2) equals the 2^s pi^{s-1}
    # form identically (2 (2pi)^{s-1} = 2^s pi^{s-1})
    from deformzeros.analytic import log_gamma
    fe = fe_modulus(5, 0)
    for s in (complex(-1, 7), complex(0.2, 3), complex(-2.5, 21)):
        direct = cmath.exp(
            (0.5 - s) * math.log(5) + math.log(2) + (s - 1) * math.log(2 * PI)
            + log_gamma(1 - s)
        ) * cmath.sin(0.5 * PI * s)
        assert abs(w_factor(s, fe) - direct) <= 1e-12 * abs(direct)


def test_w_value_at_two_for_zeta():
    # zeta(2) = W(2) zeta(-1) forces W(2) = -2 pi^2
    got = w_factor(2.0, fe_zeta())
    assert abs(got - (-2 * PI * PI)) <= 1e-12 * (2 * PI * PI)


def test_w_poles_and_cancellations():
    fe0 = fe_modulus(5, 0)
    for s in (1.0, 3.0, 5.0):
        with pytest.raises(PoleError):
            w_factor(s, fe0)
    for s in (2.0, 4.0):  # sin zero cancels the Gamma pole
        assert abs(w_factor(s, fe0)) < 1e6
    fe1 = fe_modulus(3, 1)
    for s in (2.0, 4.0):
        with pytest.raises(PoleError):
            w_factor(s, fe1)
    for s in (1.0, 3.0):
        assert abs(w_factor(s, fe1)) < 1e6


def test_w_zeros_left_of_the_line():
    assert w_factor(0.0, fe_modulus(5, 0)) == 0
    assert w_factor(-2.0, fe_modulus(5, 0)) == 0
    assert w_factor(-1.0, fe_modulus(3, 1)) == 0
    assert w_factor(-3.0, fe_modulus(3, 1)) == 0
    # nearby points are small but nonzero
    assert 0 < abs(w_factor(complex(-2.0, 1e-8), fe_modulus(5, 0))) < 1e-6


def test_w_involution():
    rng = random.Random(5)
    fes = [
        fe_zeta(),
        fe_modulus(5, 0),
        fe_modulus(8, 0),
        fe_modulus(3, 1),
        fe_modulus(12, 0),
        fe_modulus(7, 1, cmath.exp(0.7j)),
    ]
    for fe in fes:
        for _ in range(100):
            s = complex(rng.uniform(-1, 2), rng.uniform(1, 50))
            lhs = fe.epsilon * w_factor(s, fe)
            rhs = fe.epsilon * w_factor(1 - s.conjugate(), fe)
            assert abs(lhs * rhs.conjugate() - 1.0) < 1e-9


@pytest.mark.parametrize("q", [5, 7, 8, 11])
@pytest.mark.parametrize("kappa", [0, 1])
def test_theta_q_against_mpmath(q, kappa):
    fe = fe_modulus(q, kappa)
    for k in range(121):
        t = 0.5 * k
        if kappa == 0:
            ref = mpmath.siegeltheta(t) + 0.5 * t * mpmath.log(q)
        else:
            ref = (mpmath.loggamma(mpmath.mpc(0.75, 0.5 * t)).imag
                   + 0.5 * t * mpmath.log(mpmath.mpf(q) / mpmath.pi))
        assert abs(theta_q(t, fe) - float(ref)) <= 1e-12, t


def test_theta_q_is_the_phase_of_the_gamma_factor():
    # arg of (q/pi)^{s/2} Gamma((s + kappa)/2) on the line, mod 2 pi
    for q, kappa in ((1, 0), (5, 0), (7, 1)):
        fe = FunctionalEquation(q, kappa)
        for t in (0.5, 7.25, 33.0):
            s = complex(0.5, t)
            g = cmath.exp(0.5 * s * math.log(q / PI)) * complex(mpmath.gamma(0.5 * (s + kappa)))
            d = math.remainder(cmath.phase(g) - theta_q(t, fe), 2 * PI)
            assert abs(d) < 1e-12


# ---------------------------------------------------------------- residuals

def test_zeta_satisfies_its_own_equation():
    assert fe_residual(zeta_spec(), fe_zeta(), complex(0.3, 7)) < 1e-10


def test_scaled_zeta_residuals_on_standard_grid():
    for q in (3, 4, 5, 8, 12):
        assert max_residual(scaled_zeta_spec(q), fe_modulus(q, 0)) < 1e-8


def test_cataloged_primitive_l_residuals():
    found = 0
    for parity, qmax in ((0, 21), (1, 19)):
        for entry in catalog_self_dual(qmax, parity):
            if not entry.classification.is_primitive:
                continue
            f = dirichlet_l_spec(entry.character)
            fe = fe_modulus(entry.q, parity, kind="dirichlet_type")
            assert max_residual(f, fe) < 1e-8, f"q={entry.q} kappa={parity}"
            found += 1
    assert found >= 12


def test_blend_family_residuals():
    f0 = scaled_zeta_spec(5)
    f1 = real_l_spec(5)
    fe = fe_modulus(5, 0)
    for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert max_residual(blend(f0, f1, tau), fe) < 1e-8


def test_mismatched_equation_fails_loudly():
    r = fe_residual(scaled_zeta_spec(5), fe_modulus(8, 0), complex(0.3, 7))
    assert r > 0.01


def test_flipped_modulus_exponent_fails():
    # the q^{s-1/2} variant of the power factor is wrong; show it misses badly
    f = scaled_zeta_spec(5)
    fe = fe_modulus(5, 0)
    worst = 0.0
    at_probe = None
    for i in range(20):
        sig = -1 + 3 * i / 19
        for j in range(20):
            t = 1 + 29 * j / 19
            s = complex(sig, t)
            w_bad = w_factor(s, fe) * cmath.exp((2 * s - 1) * math.log(5))
            v, v_ref = f(s), f(1 - s.conjugate())
            r = abs(v - w_bad * v_ref.conjugate()) / (1 + abs(v))
            worst = max(worst, r)
    s = complex(0.3, 7)
    w_bad = w_factor(s, fe) * cmath.exp((2 * s - 1) * math.log(5))
    v, v_ref = f(s), f(1 - s.conjugate())
    at_probe = abs(v - w_bad * v_ref.conjugate()) / (1 + abs(v))
    assert worst > 1e-2 and at_probe > 1e-2


def test_residual_sweep_reports_skipped_poles():
    # a grid straddling s = 1 must skip the pole of f0 and keep going
    rows, skipped = residual_sweep(
        scaled_zeta_spec(5), fe_modulus(5, 0), (0.0, 2.0), (0.0, 0.0), 3, 1
    )
    assert len(rows) + len(skipped) == 3
    assert any(abs(sig - 1.0) < 1e-9 for sig, _, _ in skipped)


# --------------------------------------------------------------- the signal

def test_zeta_signal_real_with_classical_sign_changes():
    samples = hardy_signal(zeta_spec(), fe_zeta(), (1.0, 30.0), 500)
    assert len(samples) == 500
    assert max(r[2] for r in samples) < 1e-9
    flips = [
        samples[i][0]
        for i in range(len(samples) - 1)
        if samples[i][1] * samples[i + 1][1] < 0
    ]
    assert len(flips) == 3
    assert 14.0 < flips[0] < 14.2
    assert 20.9 < flips[1] < 21.1
    assert 24.9 < flips[2] < 25.1


def test_signal_modulus_matches_function():
    f = scaled_zeta_spec(5)
    sig = CriticalLineSignal(f, fe_modulus(5, 0), anchor_t=1.0)
    for t in (2.7, 14.0, 29.5):
        assert abs(abs(sig(t)) - abs(f(complex(0.5, t)))) < 1e-10


def test_trivial_factor_zero_flips_the_signal():
    t0 = PI / math.log(5)
    samples = hardy_signal(scaled_zeta_spec(5), fe_modulus(5, 0), (1.8, 2.1), 50)
    flips = [
        (samples[i][0], samples[i + 1][0])
        for i in range(len(samples) - 1)
        if samples[i][1] * samples[i + 1][1] < 0
    ]
    assert len(flips) == 1
    assert flips[0][0] < t0 < flips[0][1]


def test_signal_imag_bounded_for_family_members():
    cases = [
        (scaled_zeta_spec(5), fe_modulus(5, 0)),
        (scaled_zeta_spec(8), fe_modulus(8, 0)),
        (real_l_spec(5), fe_modulus(5, 0, kind="dirichlet_type")),
    ]
    for f, fe in cases:
        for t, z, zi in hardy_signal(f, fe, (1.0, 30.0), 300):
            assert zi <= 1e-8 * max(1.0, abs(z))


def test_signal_branch_independent_of_call_order():
    f = scaled_zeta_spec(5)
    fe = fe_modulus(5, 0)
    ts = [1.0 + 29.0 * k / 97 for k in range(98)]
    seq = CriticalLineSignal(f, fe, anchor_t=1.0)
    ordered = [seq(t) for t in ts]
    rng = random.Random(11)
    shuffled_ts = ts[:]
    rng.shuffle(shuffled_ts)
    scattered = CriticalLineSignal(f, fe, anchor_t=1.0)
    got = {t: scattered(t) for t in shuffled_ts}
    for t, want in zip(ts, ordered):
        assert abs(got[t] - want) < 1e-9


def test_signal_rejects_too_few_points():
    with pytest.raises(DomainError):
        hardy_signal(zeta_spec(), fe_zeta(), (1.0, 2.0), 1)


def test_signal_evaluates_w_once_per_new_ordinate(monkeypatch):
    import deformzeros.funceq as funceq

    calls = []
    real_w = funceq.w_factor
    monkeypatch.setattr(funceq, "w_factor", lambda s, fe: calls.append(s) or real_w(s, fe))
    f, fe = scaled_zeta_spec(5), fe_modulus(5, 0)
    sig = CriticalLineSignal(f, fe, anchor_t=1.0)
    ts = [1.0 + 0.05 * k for k in range(1, 41)]  # steps far below the walk's cap
    for t in ts:
        sig.value_with_imag(t)
    assert len(calls) == 1 + len(ts)  # the anchor, then one W per ordinate
    for t in ts:  # repeats cost no W at all
        sig.value_with_imag(t)
    assert len(calls) == 1 + len(ts)


def test_signal_rotate_is_the_signal_for_any_function_of_the_equation():
    fe = fe_modulus(5, 0, kind="dirichlet_type")
    f0, f1 = scaled_zeta_spec(5), real_l_spec(5)
    sig0 = CriticalLineSignal(f0, fe, anchor_t=2.0)
    sig1 = CriticalLineSignal(f1, fe, anchor_t=2.0)
    for t in (0.0, 3.3, 17.25, 29.9):
        z0 = sig0.rotate(f0(complex(0.5, t)), t)
        z1 = sig0.rotate(f1(complex(0.5, t)), t)
        assert (z0.real, z0.imag) == sig0.value_with_imag(t)
        # the rotation comes from the equation alone, so one signal serves f1
        assert abs(z1.real - sig1(t)) < 1e-12 * max(1.0, abs(z1))
