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
from deformzeros.deformation import standard_family
from deformzeros.errors import DomainError, PoleError, PrecisionError
from deformzeros.funceq import (
    CriticalLineSignal,
    STANDARD_N,
    STANDARD_SIGMA,
    STANDARD_T,
    FunctionalEquation,
    fe_modulus,
    fe_residual,
    fe_zeta,
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
    assert (fe.modulus, fe.kappa) == (1, 0)
    fe = fe_modulus(5, 1)
    assert (fe.modulus, fe.kappa) == (5, 1)
    # root number 1 is the only one an equation has, so it is no field
    assert list(FunctionalEquation._fields) == ["modulus", "kappa"]
    with pytest.raises(DomainError):
        fe_modulus(1)
    with pytest.raises(DomainError):
        FunctionalEquation(5, 2)


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
        fe_modulus(7, 1),
    ]
    for fe in fes:
        for _ in range(100):
            s = complex(rng.uniform(-1, 2), rng.uniform(1, 50))
            lhs = w_factor(s, fe)
            rhs = w_factor(1 - s.conjugate(), fe)
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
            fe = fe_modulus(entry.q, parity)
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


def _counting(f):
    calls = []

    def ev(s):
        calls.append(s)
        return f.eval_fn(s)

    return FunctionSpec(f.name, ev, pole=f.pole), calls


def _formula_grid(sigma_range, t_range, n_sigma=STANDARD_N, n_t=STANDARD_N):
    (a, b), (c, d) = sigma_range, t_range
    return [
        (a + (b - a) * i / (n_sigma - 1), c + (d - c) * j / (n_t - 1))
        for i in range(n_sigma)
        for j in range(n_t)
    ]


def _assert_rows_take_w_from_the_mirror(rows, f, fe):
    """Rows at sigma >= 1/2 are fe_residual's own; below 1/2 W is
    1 / conj W(1 - conj s).  That W and w_factor's own differ by W's
    rounding (at most 1.5e-14 relative on these grids; against 40-digit
    mpmath the mirror's is within 2.9e-14 and w_factor's within 3.9e-14),
    which moves a residual by at most 1.4e-14 here."""
    for sig, t, r in rows:
        s = complex(sig, t)
        if sig >= 0.5:
            assert r == fe_residual(f, fe, s)
            continue
        w = 1.0 / w_factor(1.0 - s.conjugate(), fe).conjugate()
        v = f(s)
        assert r == abs(v - w * f(1.0 - s.conjugate()).conjugate()) / (1.0 + abs(v))
        assert abs(r - fe_residual(f, fe, s)) <= 2e-14


def test_standard_sweep_evaluates_f_once_per_grid_point():
    f, calls = _counting(scaled_zeta_spec(5))
    fe = fe_modulus(5, 0)
    [(rows, skipped)] = residual_sweep([f], fe)
    assert not skipped and len(rows) == STANDARD_N * STANDARD_N
    assert len(calls) == 400  # a fresh 1 - conj(s) per point would make 800
    assert len(set(calls)) == 400
    grid = {(sig, t) for sig, t, _ in rows}
    assert len(grid) == 400
    # the reflection 1 - conj(s) of every grid point is a grid point
    assert all((1.0 - sig, t) in grid for sig, t in grid)
    # on the formula grid the mirror of 8 of the 20 sigmas misses the grid by
    # 1 ulp; here the sigmas at or above 1/2 are the formula's and the rest
    # are 1.0 minus their mirror, which moves 5 of them by at most 1 ulp of it
    want = sorted({sig for sig, _ in _formula_grid(STANDARD_SIGMA, STANDARD_T)})
    assert sum(1.0 - w not in want for w in want) == 8
    got = sorted({sig for sig, _, _ in rows})
    moved = 0
    for g, w in zip(got, want):
        if w >= 0.5:
            assert g == w
        else:
            assert abs(g - w) <= math.ulp(1.0 - w)
            moved += g != w
    assert moved == 5
    # each row is the residual at its own point, W below 1/2 from its mirror
    _assert_rows_take_w_from_the_mirror(rows, scaled_zeta_spec(5), fe)


@pytest.mark.parametrize("sigma_range", [(2.0, -1.0), (-0.25, 1.25)], ids=["reversed", "narrow"])
def test_every_symmetric_sweep_is_mirror_closed(sigma_range):
    f, calls = _counting(scaled_zeta_spec(8))
    fe = fe_modulus(8, 0)
    [(rows, _)] = residual_sweep([f], fe, sigma_range)
    grid = {(sig, t) for sig, t, _ in rows}
    assert len(grid) == 400 and len(calls) == 400
    assert all((1.0 - sig, t) in grid for sig, t in grid)
    _assert_rows_take_w_from_the_mirror(rows, scaled_zeta_spec(8), fe)


@pytest.mark.parametrize(
    "sigma_range, t_range",
    [((-1.0, 2.5), STANDARD_T), ((0.0, 2.0), (1.0, 30.0)), ((2.0, -1.5), (-5.0, 5.0))],
)
def test_asymmetric_sweep_keeps_the_formula_grid(sigma_range, t_range):
    f, fe = scaled_zeta_spec(8), fe_modulus(8, 0)
    [(rows, skipped)] = residual_sweep([f], fe, sigma_range, t_range)
    assert not skipped
    want = [
        (sig, t, fe_residual(f, fe, complex(sig, t)))
        for sig, t in _formula_grid(sigma_range, t_range)
    ]
    assert rows == want


def test_residual_sweep_reports_skipped_poles():
    # a grid straddling s = 1 must skip the pole of f0 and keep going
    [(rows, skipped)] = residual_sweep(
        [scaled_zeta_spec(5)], fe_modulus(5, 0), (0.0, 2.0), (0.0, 0.0), 3, 1
    )
    assert len(rows) + len(skipped) == 3
    assert any(abs(sig - 1.0) < 1e-9 for sig, _, _ in skipped)


def test_mirror_closed_sweep_skips_poles_with_their_reason():
    # sigma 0, 1/2, 1 at t = 0: f0's pole at s = 1 is hit directly at
    # sigma = 1 and as the reflection of sigma = 0; both points are skipped
    # with the reason fe_residual raises there
    f, fe = scaled_zeta_spec(5), fe_modulus(5, 0)
    [(rows, skipped)] = residual_sweep([f], fe, (0.0, 1.0), (0.0, 0.0), 3, 1)
    assert [(sig, t) for sig, t, _ in rows] == [(0.5, 0.0)]
    assert rows[0][2] == fe_residual(f, fe, 0.5)
    assert [(sig, t) for sig, t, _ in skipped] == [(0.0, 0.0), (1.0, 0.0)]
    for sig, t, reason in skipped:
        with pytest.raises(PoleError) as exc:
            fe_residual(f, fe, complex(sig, t))
        assert reason == str(exc.value)


def test_mirror_w_pole_falls_back_to_w_at_the_point():
    # sigma -2..3 mirrors -2 onto 3, where W has a pole at t = 0 (kappa = 0):
    # the point 3 is skipped, and -2 takes W from w_factor there, which is
    # exactly 0, so its residual is |f(-2)| / (1 + |f(-2)|)
    f = standard_family(5).member(0.5)
    fe = f.natural_fe
    [(rows, skipped)] = residual_sweep([f], fe, (-2.0, 3.0), (0.0, 1.0))
    assert len(rows) == 399
    assert skipped == [(3.0, 0.0, "W factor pole at s = 3 (kappa = 0)")]
    assert w_factor(-2.0, fe) == 0
    v = abs(f(-2.0))
    assert rows[0][:2] == (-2.0, 0.0)
    assert rows[0][2] == v / (1.0 + v)


def test_a_sweep_with_every_point_skipped_is_a_numerical_failure():
    # all 400 points sit on zeta's pole: the sweep ran and has nothing to
    # report, which `verify-fe` exits 3 for, not a usage error
    [(rows, skipped)] = residual_sweep([zeta_spec()], fe_zeta(), (1.0, 1.0), (0.0, 0.0))
    assert not rows and len(skipped) == 400
    with pytest.raises(PrecisionError, match="every grid point was skipped"):
        max_residual(zeta_spec(), fe_zeta(), sigma_range=(1.0, 1.0), t_range=(0.0, 0.0))


# --------------------------------------------------------------- the signal

def _samples(f, fe, t_range, n_points):
    """(t, Z(t), |Im|) at n_points evenly spaced ordinates of t_range."""
    sig = CriticalLineSignal(f, fe)
    out = []
    for k in range(n_points):
        t = t_range[0] + (t_range[1] - t_range[0]) * k / (n_points - 1)
        z, zi = sig.value_with_imag(t)
        out.append((t, z, abs(zi)))
    return out


def test_zeta_signal_real_with_classical_sign_changes():
    samples = _samples(zeta_spec(), fe_zeta(), (1.0, 30.0), 500)
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
    sig = CriticalLineSignal(f, fe_modulus(5, 0))
    for t in (2.7, 14.0, 29.5):
        assert abs(abs(sig(t)) - abs(f(complex(0.5, t)))) < 1e-10


def test_trivial_factor_zero_flips_the_signal():
    t0 = PI / math.log(5)
    samples = _samples(scaled_zeta_spec(5), fe_modulus(5, 0), (1.8, 2.1), 50)
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
        (real_l_spec(5), fe_modulus(5, 0)),
    ]
    for f, fe in cases:
        for t, z, zi in _samples(f, fe, (1.0, 30.0), 300):
            assert zi <= 1e-8 * max(1.0, abs(z))


def test_signal_branch_independent_of_call_order():
    f = scaled_zeta_spec(5)
    fe = fe_modulus(5, 0)
    ts = [1.0 + 29.0 * k / 97 for k in range(98)]
    seq = CriticalLineSignal(f, fe)
    ordered = [seq(t) for t in ts]
    rng = random.Random(11)
    shuffled_ts = ts[:]
    rng.shuffle(shuffled_ts)
    scattered = CriticalLineSignal(f, fe)
    got = {t: scattered(t) for t in shuffled_ts}
    for t, want in zip(ts, ordered):
        assert got[t] == want  # a closed form keeps no history


@pytest.mark.parametrize(
    "fe",
    [fe_modulus(5, 0), fe_modulus(7, 1), fe_modulus(8, 0), fe_modulus(11, 1)],
    ids=["q5", "q7odd", "q8", "q11odd"],
)
def test_signal_phase_is_the_argument_of_eps_w(fe):
    # what the anchored walk tracked, checked without it: W(1/2 + it) has
    # modulus 1 and argument -2 theta_q(t) on the whole window (root number 1)
    sig = CriticalLineSignal(scaled_zeta_spec(fe.modulus), fe)
    for k in range(1201):
        t = 0.05 * k
        w = w_factor(complex(0.5, t), fe)
        assert abs(abs(w) - 1.0) <= 1e-12, t
        assert abs(cmath.exp(1j * sig.phase(t)) - w / abs(w)) <= 1e-12, t
        # the rotation is e^{-i phase / 2}, bit for bit
        assert sig.unit(t) == cmath.exp(-0.5j * sig.phase(t)), t


def test_signal_evaluates_no_w_factor(monkeypatch):
    import deformzeros.funceq as funceq

    calls = []
    real_w = funceq.w_factor
    monkeypatch.setattr(funceq, "w_factor", lambda s, fe: calls.append(s) or real_w(s, fe))
    f, fe = scaled_zeta_spec(5), fe_modulus(5, 0)
    sig = CriticalLineSignal(f, fe)
    for k in range(41):
        t = 0.05 + 1.5 * k
        sig.value_with_imag(t)
        sig.phase(t)
        sig.unit(t)
    assert calls == []


def test_signal_rotate_is_the_signal_for_any_function_of_the_equation():
    fe = fe_modulus(5, 0)
    f0, f1 = scaled_zeta_spec(5), real_l_spec(5)
    sig0 = CriticalLineSignal(f0, fe)
    sig1 = CriticalLineSignal(f1, fe)
    for t in (0.0, 3.3, 17.25, 29.9):
        z0 = sig0.unit(t) * f0(complex(0.5, t))
        z1 = sig0.unit(t) * f1(complex(0.5, t))
        assert (z0.real, z0.imag) == sig0.value_with_imag(t)
        # the rotation comes from the equation alone, so one signal serves f1
        assert (z1.real, z1.imag) == sig1.value_with_imag(t)
