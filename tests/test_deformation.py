"""Family blending, zero tracking, pairing, exact division, claim reports."""

import cmath
import contextlib
import functools
import gc
import importlib.util
import io
import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deformzeros import analytic, cli, deformation, funceq, zerofind
from deformzeros.analytic import (
    FunctionSpec,
    Plan,
    dirichlet_l_spec,
    dirichlet_l_with_error,
    zeta_spec,
)
from deformzeros.characters import (
    catalog_modulus,
    catalog_self_dual,
    classify,
    enumerate_characters,
    first_complex_character,
    root_number,
)
from deformzeros.deformation import (
    TAU_GRID_DEFAULT,
    DeformationFamily,
    LineSamples,
    cataloged_character,
    dh_construct,
    divide_by_trivial_factor,
    named_function,
    convolution_roundtrip,
    pair_zeros,
    run_claim_report,
    standard_family,
    track_zero,
)
from deformzeros.cli import trajectory_csv_lines
from deformzeros.errors import DomainError, PoleError
from deformzeros.funceq import CriticalLineSignal, fe_modulus, max_residual
from deformzeros.zerofind import (
    BISECT_HALF_WIDTH,
    LineGrid,
    Rect,
    ZeroRecord,
    count_line_zeros,
    count_zeros_box,
    scan_line_zeros,
)

# line zeros of L(s, real chi mod 5) on [1, 30], frozen from a 30-digit
# bisection of the completed function (q/pi)^{s/2} Gamma(s/2) L(s)
L5_ZEROS = [
    6.64845334472771472,
    9.83144443288666962,
    11.9588456260835145,
    16.0338211283842357,
    17.5669942923255552,
    19.5407326227847503,
    22.2274054544594109,
    24.5884662174081952,
    26.7760959480041401,
    28.4610351001775225,
    29.7079093504809656,
]

ZETA_ZERO_1 = 14.1347251417346938


def cataloged_chi(q, parity=0):
    entry = next(e for e in catalog_self_dual(q, parity) if e.q == q)
    return entry.character


@pytest.fixture(scope="module")
def fam5():
    return standard_family(5)


@pytest.fixture(scope="module")
def pairing5(fam5):
    return pair_zeros(fam5, (1.0, 30.0))


@pytest.fixture(scope="module")
def report5():
    return run_claim_report(5)


def start_zero(fam, lo, hi):
    recs = scan_line_zeros(fam.member(0.0), (lo, hi))
    assert len(recs) == 1
    return recs[0]


# ---------------------------------------------------------------- blending

def test_member_endpoints_are_the_parents(fam5):
    assert fam5.member(0.0) is fam5.f0
    assert fam5.member(1.0) is fam5.f1


def test_member_is_the_affine_blend(fam5):
    s = 0.7 + 9.0j
    tau = 0.3
    want = (1.0 - tau) * fam5.f0(s) + tau * fam5.f1(s)
    assert fam5.member(tau)(s) == want


def test_member_rejects_tau_outside_unit_interval(fam5):
    for tau in (-0.1, 1.1):
        with pytest.raises(DomainError):
            fam5.member(tau)


def test_phi_difference_scales_with_tau_gap(fam5):
    # (1-a) f0 + a f1 minus (1-b) f0 + b f1 collapses to (b-a)(f0 - f1)
    for s in (0.7 + 9.0j, 0.2 + 0.7j):
        gap = abs(fam5.f0(s) - fam5.f1(s))
        for ta, tb in itertools.product((0.0, 0.35, 1.0), (0.1, 0.9)):
            lhs = abs(fam5.member(ta)(s) - fam5.member(tb)(s))
            assert abs(lhs - abs(ta - tb) * gap) < 1e-12 * max(1.0, gap)


def test_uniform_lipschitz_bound_on_compact_grid(fam5):
    # |phi_a - phi_b| <= 2 M |a - b| with M = sup max(|f0|, |f1|) over the grid
    pts = [complex(-1 + 3 * i / 9, 1 + 29 * j / 4) for i in range(10) for j in range(5)]
    m = max(max(abs(fam5.f0(s)), abs(fam5.f1(s))) for s in pts)
    assert 123.0 < m < 124.0  # the maximum sits on the sigma = -1 edge
    for ta, tb in itertools.combinations(TAU_GRID_DEFAULT, 2):
        worst = max(abs(fam5.member(ta)(s) - fam5.member(tb)(s)) for s in pts)
        assert worst <= 2.0 * m * abs(ta - tb) + 1e-9


def test_every_member_satisfies_the_shared_equation(fam5):
    for tau in TAU_GRID_DEFAULT:
        assert max_residual(fam5.member(tau), fam5.shared_fe) < 1e-8


def test_endpoint_residuals_are_small(fam5):
    assert max_residual(fam5.f0, fam5.shared_fe) < 1e-8
    assert max_residual(fam5.f1, fam5.shared_fe) < 1e-8


# ------------------------------------------------------------- point table

def _bits(result):
    value, err = result
    return (value.real.hex(), value.imag.hex(), err.hex())


def _signed_zero_twins(points):
    """Each point, followed by its copies with the sign of a zero part flipped."""
    out = []
    for s in points:
        res = (s.real, -s.real) if s.real == 0.0 else (s.real,)
        ims = (s.imag, -s.imag) if s.imag == 0.0 else (s.imag,)
        out += [complex(a, b) for a in res for b in ims]
    return out


def _fresh(plan):
    """The function of plan computed afresh at every point, by a new plan
    that has kept nothing."""
    return lambda s: Plan(plan.forms)(s)


# parts that hit the zeros and the branch cut below, and repeat often
_PART = st.one_of(st.sampled_from([0.0, -1.0, 0.5, 2.0]), st.floats(-2.0, 4.0))
_POINTS = st.lists(st.builds(complex, _PART, _PART), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(_POINTS)
@example([complex(-1.0, 0.0)])
def test_memo_hit_is_bit_identical_to_a_fresh_call(fam5, points):
    # sqrt has its cut on the negative real axis: sqrt(-1 + 0j) = i but
    # sqrt(-1 - 0j) = -i, although -1 + 0j == -1 - 0j
    root = FunctionSpec("sqrt", lambda s: (cmath.sqrt(s), abs(s)))
    l5 = named_function("L", 5, 0, None).eval_fn  # fam5.f1 below the family plan
    fam = DeformationFamily(root, fam5.f1._replace(eval_fn=l5), fam5.shared_fe)
    assert isinstance(fam.plan, Plan)
    fresh = {"f0": root.eval_fn, "f1": _fresh(l5)}
    points = _signed_zero_twins(points)
    for s in points + points[::-1]:
        for name, fn in fresh.items():
            assert _bits(getattr(fam, name).eval_fn(s)) == _bits(fn(s)), (name, s)
    assert len(fam.plan.table) <= len(points)


def test_memo_never_holds_more_than_the_cap(monkeypatch):
    fam = standard_family(5)
    want = max_residual(fam.f0._replace(eval_fn=named_function("f0", 5, 0, None).eval_fn),
                        fam.shared_fe)
    monkeypatch.setattr(analytic, "PLAN_POINT_CAP", 16)
    assert max_residual(fam.f0, fam.shared_fe) == want
    assert max_residual(fam.f0, fam.shared_fe) == want
    assert len(fam.plan.table) == 16


@pytest.mark.parametrize("q, parity", [(5, 0), (8, 0), (7, 1)])
def test_report_is_the_same_with_nothing_memoised(q, parity, report5, monkeypatch):
    # the cap reaches every plan: the family's, the named functions' and
    # the division block's f1
    kept = report5 if (q, parity) == (5, 0) else run_claim_report(q, parity)
    monkeypatch.setattr(analytic, "PLAN_POINT_CAP", 0)
    bare = run_claim_report(q, parity)
    assert json.dumps(bare, sort_keys=True) == json.dumps(kept, sort_keys=True)


def _count_calls(monkeypatch, module, *names):
    """Counters of the calls of module.name for each name, from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def counted(*args, fn=fn, name=name):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_report_evaluates_each_endpoint_point_once(monkeypatch):
    # f0 and f1 at 1,239 distinct points, one Euler-Maclaurin tail each
    # (2,477 when each endpoint built its own, at 1,240 points), and one
    # kernel call per Hurwitz parameter and point: a = 1 for f0 and, for
    # f1 = 2 5^-s (zeta(s, 1/5) + zeta(s, 4/5)) - (1 - 5^-s) zeta(s), a = 1/5
    # and 4/5 besides, so 1,239 x 3 (x 5 when f1 summed all four classes).
    # tail_bound's certified edges add 5 tails and 24 calls: 5 classes for
    # each of the 4 boxes tau < 1, and 4 for L(chi 5), whose c_5 is 0.
    counts = _count_calls(monkeypatch, analytic, "_tail_factors", "_zeta_reg")
    run_claim_report(5)
    assert counts["_tail_factors"] == 1_244
    assert counts["_zeta_reg"] == 3_741


def test_degenerate_family_endpoints_keep_their_own_fields():
    # one reader serves both, but f1 = L(chi 3.1) is still the
    # watched endpoint and f0 is not
    fam = standard_family(3, parity=1)
    assert (fam.f0.name, fam.f0.watch_modulus) == ("L(chi 3.1)", None)
    assert (fam.f1.name, fam.f1.watch_modulus) == ("L(chi 3.1)", 3)
    assert fam.f0.natural_fe == fam.f1.natural_fe == fam.shared_fe


def test_degenerate_family_evaluates_its_function_once(monkeypatch):
    # for q = 3 odd, f0 and f1 are both L(chi 3.1): one reader serves both, so
    # an interior member costs what an endpoint does (400 sums, one tail
    # each, not 800)
    fam = standard_family(3, parity=1)
    assert fam.degenerate and fam.f0.eval_fn is fam.f1.eval_fn
    calls = _count_calls(monkeypatch, analytic, "_tail_factors")
    counts = []
    for tau in ("0.5", "0"):
        before = calls["_tail_factors"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify-fe", "--family", "q3", "--parity", "odd", "--tau", tau]) == 0
        counts.append(calls["_tail_factors"] - before)
    assert counts == [400, 400]


# (q, parity) of the families the family-plan tests cover: even q = 5, 8
# and 24 share the tail and zeta(s, 1) (q = 24 with four squarefree
# divisors 1, 2, 3 and 6 in P(s)), odd q = 7 and 11 every Hurwitz value, and
# q = 3 odd is degenerate (f0 = f1 = L(chi 3.1))
_MEMO_FAMILIES = [(5, 0), (8, 0), (24, 0), (7, 1), (11, 1), (3, 1)]


def _outcome(fn, s):
    """fn(s) bit for bit, or the PoleError it raised (f0 has the zeta pole
    at s = 1 in even families)."""
    try:
        return _bits(fn(s))
    except PoleError as exc:
        return str(exc)


@pytest.mark.parametrize("q, parity", _MEMO_FAMILIES, ids=[f"q{q}-{p}" for q, p in _MEMO_FAMILIES])
@settings(max_examples=25, deadline=None)
@given(
    points=_POINTS,
    orders=st.lists(st.sampled_from(["pair", "f0 f1", "f1 f0"]), min_size=12, max_size=12),
    interior=st.booleans(),
)
@example(points=[complex(-1.0, 0.0), complex(1.0, 0.0)], orders=["f1 f0"] * 12, interior=True)
def test_family_values_equal_the_standalone_specs(q, parity, points, orders, interior):
    # one supplier per point (and, with an interior member, kept until the
    # other endpoint comes) must give every endpoint the value its own spec
    # computes alone, in any order
    fam = standard_family(q, parity)
    chi = cataloged_character(q, parity)
    alone = {"f0": _fresh(named_function("f0", q, parity, chi).eval_fn),
             "f1": _fresh(named_function("L", q, parity, chi).eval_fn)}
    member = fam.member(0.3) if interior else None
    for s, order in zip(_signed_zero_twins(points), itertools.cycle(orders)):
        want = {name: _outcome(fn, s) for name, fn in alone.items()}
        if order == "pair":
            try:
                at = fam.plan.values(s)
                got = (_bits(at[0]), _bits(at[-1]))
            except PoleError as exc:
                got = str(exc)
            failed = [w for w in want.values() if isinstance(w, str)]
            assert got == (failed[0] if failed else (want["f0"], want["f1"])), s
            continue
        for name in order.split():
            assert _outcome(getattr(fam, name).eval_fn, s) == want[name], (name, s)
        if member is not None and not any(isinstance(w, str) for w in want.values()):
            (v0, e0), (v1, e1) = alone["f0"](s), alone["f1"](s)
            blend = ((1.0 - 0.3) * v0 + 0.3 * v1, (1.0 - 0.3) * e0 + 0.3 * e1)
            assert _bits(member.eval_fn(s)) == _bits(blend), s


@pytest.mark.parametrize("q, classes", [(7, 6), (11, 10)])
def test_odd_family_point_computes_each_hurwitz_value_once(q, classes, monkeypatch):
    # dh(chi') and L(chi) are sums over the same q - 1 residue classes: an
    # interior member costs one tail and one kernel call per class (two
    # separate sums made 12 and 20 calls)
    fam = standard_family(q, parity=1)
    counts = _count_calls(monkeypatch, analytic, "_tail_factors", "_zeta_reg")
    fam.member(0.5)(complex(0.5, 10.0))
    assert counts == {"_tail_factors": 1, "_zeta_reg": classes}


@pytest.mark.parametrize("q", [8, 24])
def test_named_l_and_the_family_f1_agree_bit_for_bit(q):
    # the family's f1 reads zeta(s, 1) off the plan it shares with f0,
    # while --f L --q <q> computes its own: the two agree bit for bit, s = 1
    # (where f0 has its pole and f1 is computed alone) included
    fam = standard_family(q)
    alone = named_function("L", q, 0, None).eval_fn
    points = [complex(sig, t) for sig in (-1.0, 0.25, 0.5, 2.0) for t in (1.0, 7.5, 23.89, 30.0)]
    for s in points + [1.0 + 0j, complex(1.0, 1e-3)]:
        assert _bits(fam.f1.eval_fn(s)) == _bits(alone(s)), s
    assert len(fam.plan.table) == len(points) + 1


@pytest.mark.parametrize("q, parity, kernel_calls", [(8, 0, 3), (7, 1, 6)])
def test_an_endpoint_asked_later_reuses_the_points_parts(q, parity, kernel_calls, monkeypatch):
    # f1 asked for after f0 at one point shares its tail and its Hurwitz
    # values (even: zeta(s, 1); odd: every class), with no member built: the
    # first request computes the whole point, and f1 then reads it
    s = complex(0.25, 17.0)
    fam = standard_family(q, parity)
    counts = _count_calls(monkeypatch, analytic, "_tail_factors", "_zeta_reg")
    fam.f0(s)
    assert counts == {"_tail_factors": 1, "_zeta_reg": kernel_calls}
    fam.f1(s)
    assert counts == {"_tail_factors": 1, "_zeta_reg": kernel_calls}


@pytest.mark.parametrize("tau, kernel_calls", [("0", 400), ("1", 1_200), ("0.37", 1_200)])
def test_verify_fe_kernel_calls(tau, kernel_calls, monkeypatch):
    # an endpoint alone computes only its own Hurwitz values (f0 = scaled
    # zeta: a = 1; f1 = L(chi 8) from its chi = 1 classes 1/8 and 7/8 and
    # zeta(s): a = 1/8, 7/8 and 1); a member shares one tail and zeta(s, 1)
    # between both (800 tails before the family kept its points; 1,600 and 2,000 kernel
    # calls when L summed its four classes)
    counts = _count_calls(monkeypatch, analytic, "_tail_factors", "_zeta_reg")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify-fe", "--family", "q8", "--tau", tau]) == 0
    assert counts == {"_tail_factors": 400, "_zeta_reg": kernel_calls}


def test_endpoint_fail_bisection_keeps_its_memo(monkeypatch):
    # the off-line pair of the odd q = 7 f0 makes the box a FAIL, whose
    # bisection revisits edge points: an f0 that kept no points made 2,882 tails and
    # 17,292 kernel calls here
    counts = _count_calls(monkeypatch, analytic, "_tail_factors", "_zeta_reg")
    argv = ["zeros", "verify", "--family", "q7", "--parity", "odd", "--tau", "0",
            "--box", "-1:2:1:40"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 1
    assert counts == {"_tail_factors": 1_385, "_zeta_reg": 8_310}


@pytest.mark.parametrize("argv", [["--family", "q7", "--parity", "odd", "--tau", "0"],
                                  ["--family", "q8", "--tau", "1"]], ids=" ".join)
def test_an_endpoint_request_keeps_no_parts(argv, monkeypatch):
    # an endpoint asked for on its own is its named function: its plan
    # holds that function's value alone at each point
    specs = []

    def spy(*args):
        specs.append(deformation.named_function(*args))
        return specs[-1]

    monkeypatch.setattr(cli, "named_function", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify-fe", *argv]) == 0
    (spec,) = specs
    assert len(spec.eval_fn.table) == 400
    assert all(len(entry) == 1 for entry in spec.eval_fn.table.values())


def test_a_named_function_keeps_its_points(monkeypatch):
    # a named function's plan computes a point once, with no family around it
    f = named_function("L", 8, 0, None)
    counts = _count_calls(monkeypatch, analytic, "_tail_factors")
    s = complex(0.5, 14.0)
    assert f.eval_fn(s) is f.eval_fn(s)
    assert counts == {"_tail_factors": 1}


def test_family_memo_holds_values_only():
    # a point keeps its two (value, err) pairs and nothing else: the q = 199
    # odd endpoints share 198 regular parts per point, about 36 KB, which
    # the family's plan must drop even when only f0 is asked for
    points = [complex(0.25, 1.0 + 0.5 * k) for k in range(100)]
    fam = standard_family(199, 1)
    for s in points:
        fam.f0(s)  # grows the plan's own ln(n + a) tables beforehand
    fam.plan.table.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s in points:
            fam.f0(s)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(fam.plan.table) == len(points)
    assert kept < 2_000 * len(points)


def test_dropped_families_leave_nothing_behind():
    # a plan owns its points and its ln(n + a) tables, so families built,
    # read out to t = 60 and dropped keep no memory (768 bytes measured);
    # a process-wide cache of those tables kept 149 KB here
    points = [complex(sigma, t) for sigma in (-5.0, 0.5, 2.0) for t in (5.0, 30.0, 60.0)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for q, parity in ((5, 0), (8, 0), (7, 1), (51, 1)):
            fam = standard_family(q, parity)
            for s in points:
                fam.f0(s)
            del fam
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 4_000


# ------------------------------------------------- complex-pair combination

def _two_l_form(chi, sign=-1.0):
    """(L + Lbar)/2 + sign i tan(theta) (L - Lbar)/2 from two L-series, with
    the error estimate that form carries; sign -1 is dh_construct's.  Lbar is
    read off L by the exact identity L(s, conj chi) = conj L(conj s, chi)."""
    tn = math.tan(cmath.phase(root_number(chi)) / 2.0)

    def ev(s):
        v1, e1 = dirichlet_l_with_error(s, chi)
        v2, e2 = dirichlet_l_with_error(s.conjugate(), chi)
        v2 = v2.conjugate()
        return 0.5 * ((v1 + v2) + sign * 1j * tn * (v1 - v2)), 0.5 * (e1 + e2) * (1 + abs(tn))

    return ev


def test_dh_complex_pair_satisfies_real_equation():
    chi = first_complex_character(5, parity=1)
    g = dh_construct(chi)
    assert g.name == "dh(chi 5.1)"
    assert max_residual(g, fe_modulus(5, 1)) < 1e-8


def test_dh_sign_flip_breaks_the_equation():
    # with +i tan(theta) the combination carries e^{4 i theta}, not +1; the
    # sweep must see an O(1) failure, otherwise it could not tell the signs apart
    chi = first_complex_character(5, parity=1)
    bad = FunctionSpec(name="dh_plus(chi 5.1)", eval_fn=_two_l_form(chi, sign=1.0))
    fe = fe_modulus(5, 1)
    assert max_residual(bad, fe) > 1e-2


def test_dh_tends_to_one_on_the_right():
    g = dh_construct(first_complex_character(5, parity=1))
    v = g(10.0 + 0.0j)
    assert abs(v - 1.0) < 1e-3
    assert v.imag == 0.0  # conjugate pair: real on the real axis


def test_dh_real_character_degenerates_to_plain_l():
    chi = cataloged_chi(5)
    g = dh_construct(chi)
    assert g.name == "L(chi 5.2)"
    s = 0.5 + 6.0j
    assert g(s) == dirichlet_l_spec(chi)(s)


@pytest.mark.parametrize("q", [7, 11])
def test_dh_one_residue_class_sum_matches_the_two_l_form(q):
    chi = first_complex_character(q, parity=1)
    g, ref = dh_construct(chi), _two_l_form(chi)
    for sigma in (-1.0, 0.5, 2.0):
        for k in range(141):
            s = complex(sigma, -10.0 + 0.5 * k)
            v, err = g.eval_fn(s)
            v_ref, err_ref = ref(s)
            # relative to max(1, |L|): the combination vanishes at s = -1
            assert abs(v - v_ref) <= 4e-15 * max(1.0, abs(v_ref)), s
            # sum |c_a| e_a with |c_a| <= 1 + |tan theta|: never above the
            # two-L estimate, and a bound on the truncation whenever each
            # class's e_a bounds its own
            assert err <= err_ref * (1.0 + 1e-12), s


def test_dh_error_is_the_sum_of_class_estimates():
    chi = first_complex_character(7, parity=1)
    tn = math.tan(cmath.phase(root_number(chi)) / 2.0)
    s = complex(0.5, 20.0)
    tail = analytic._tail_factors(s)
    want = sum(
        abs(chi(a).real + tn * chi(a).imag) * analytic._zeta_reg(s, a / 7, tail, [])[1]
        for a in range(1, 7)
    ) * 7 ** -0.5
    assert dh_construct(chi).eval_fn(s)[1] == pytest.approx(want, rel=1e-12)


def _true_coefficients(chi):
    """One period of the coefficients of L(s, chi) and, for complex chi, of
    dh_construct(chi) (c_a = Re chi(a) + tan(theta) Im chi(a) with
    e^{2 i theta} = eps(chi)), from the character values at 30 digits."""
    q = chi.modulus
    l_period = [mpmath.mpc(chi(a).real, chi(a).imag) for a in range(1, q + 1)]
    l_period = [c / abs(c) if abs(c) > 0.5 else mpmath.mpf(0) for c in l_period]
    eps = root_number(chi)
    tn = mpmath.tan(mpmath.arg(mpmath.mpc(eps.real, eps.imag)) / 2)
    return l_period, [c.real + tn * c.imag for c in l_period]


@mpmath.workdps(30)
def _bound_cases():
    """(name, spec, one period of the spec's true coefficients) for every
    builder that sets coeff_bounds."""
    cases = [("zeta", zeta_spec(), [1])]
    for q in (5, 8):
        period = [1] * (q - 1) + [1 + mpmath.sqrt(q)]
        cases.append((f"scaled{q}", analytic.scaled_zeta_spec(q), period))
    for q, parity in ((5, 0), (8, 0), (7, 1)):
        chi = cataloged_character(q, parity)
        cases.append((f"L{q}", dirichlet_l_spec(chi), _true_coefficients(chi)[0]))
    for q in (7, 11):
        chi = first_complex_character(q, parity=1)
        cases.append((f"dh{q}", dh_construct(chi), _true_coefficients(chi)[1]))
    tau = 0.37
    l8 = _true_coefficients(cataloged_character(8, 0))[0]
    scaled8 = [1] * 7 + [1 + mpmath.sqrt(8)]
    member = standard_family(8).member(tau)
    cases.append(("q8_member", member, [(1 - tau) * a + tau * b for a, b in zip(scaled8, l8)]))
    return cases


_BOUND_CASES = _bound_cases()


@pytest.mark.parametrize("name, f, period", _BOUND_CASES, ids=[c[0] for c in _BOUND_CASES])
def test_tail_bound_covers_the_series_and_the_function(name, f, period):
    assert f.coeff_bounds is not None
    n = len(period)
    for sigma in (1.5, 2.0, 3.0):
        bound = f.tail_bound(sigma)
        # sum_{n>=2} |c_n| n^-sigma, one Hurwitz zeta per residue class
        with mpmath.workdps(30):
            series = sum(abs(c) * mpmath.zeta(sigma, mpmath.mpf(a) / n)
                         for a, c in enumerate(period, 1)) * mpmath.mpf(n) ** -sigma - 1
        assert bound >= series, (sigma, bound, series)
        worst = max(abs(f(complex(sigma, 0.2 * k)) - 1.0) for k in range(301))
        assert bound >= worst, (sigma, bound, worst)
    assert f.tail_bound(2.0) < 1.0  # the right edge at sigma = 2 is certified
    # no certificate where the series of bounds diverges, and no pole error
    for sigma in (1.0 + 1e-9, 1.0, 0.5, -1.0):
        assert f.tail_bound(sigma) == math.inf


@pytest.mark.parametrize("q, parity", [(5, 0), (8, 0), (7, 1)], ids=["q5", "q8", "q7odd"])
def test_endpoints_hold_accuracy_to_t_84(q, parity):
    # the tracker reads the line out to T_LIMIT + _GAP_DEPTH + _MAX_TRAVEL =
    # 84; there f0 and f1 stay within 1e-12 of 30-digit mpmath relative to
    # max(1, |ref|) (9.2e-14 measured on a 0.5 grid)
    reach = analytic.T_LIMIT + deformation._GAP_DEPTH + deformation._MAX_TRAVEL
    assert reach == 84.0
    fam = standard_family(q, parity)
    with mpmath.workdps(30):
        l_period = _true_coefficients(cataloged_character(q, parity))[0]
        if parity:
            dh_period = _true_coefficients(first_complex_character(q, 1))[1]
            ref0 = lambda s: mpmath.dirichlet(s, dh_period[-1:] + dh_period[:-1])
        else:
            ref0 = lambda s: (1 + mpmath.power(q, 0.5 - s)) * mpmath.zeta(s)
        # mpmath.dirichlet takes the period from n = 0 (mod q)
        ref1 = lambda s: mpmath.dirichlet(s, l_period[-1:] + l_period[:-1])
        for t in range(60, 85, 2):
            for f, ref in ((fam.f0, ref0), (fam.f1, ref1)):
                want = complex(ref(mpmath.mpc(0.5, t)))
                assert abs(f(complex(0.5, t)) - want) <= 1e-12 * max(1.0, abs(want)), (f.name, t)


def test_member_bounds_need_periods_of_one_length(fam5):
    assert fam5.member(0.5).coeff_bounds == (1.0, 1.0, 1.0, 1.0, 0.5 * (1.0 + math.sqrt(5.0)))
    fam = DeformationFamily(zeta_spec(), fam5.f1, fam5.shared_fe)
    assert fam.member(0.5).coeff_bounds is None
    assert fam.member(0.5).tail_bound(2.0) == math.inf


def test_dh_halves_the_kernel_calls(monkeypatch):
    chi = first_complex_character(7, parity=1)
    g, ref = dh_construct(chi), _two_l_form(chi)
    calls = []
    kernel = analytic._zeta_reg
    monkeypatch.setattr(analytic, "_zeta_reg", lambda *a: calls.append(a) or kernel(*a))
    g(complex(0.5, 10.0))
    assert len(calls) == 6
    del calls[:]
    ref(complex(0.5, 10.0))
    assert len(calls) == 12


def test_dh_is_real_on_the_real_axis():
    g = dh_construct(first_complex_character(7, parity=1))
    for x in (-0.75, 0.5, 3.0):
        assert g(complex(x, 0.0)).imag == 0.0
    s = complex(0.3, 12.0)
    assert g(s.conjugate()) == g(s).conjugate()


def test_dh_rejects_imprimitive_character():
    chi = next(ch for ch in enumerate_characters(10) if not classify(ch).is_real)
    with pytest.raises(DomainError):
        dh_construct(chi)


def test_dh_off_line_zero_matches_the_literature():
    # the odd q = 5 f0 is the Davenport-Heilbronn function; Spira (Math.
    # Comp. 1994) lists its off-line zero 0.808517 + 85.699348i, which the
    # box count finds as a 2-zero discrepancy and Newton refines
    f = named_function("f0", 5, 1, None)
    assert f.name == "dh(chi 5.1)"
    rep, mismatches = zerofind.verify_on_line(f, Rect(-1, 2, 80, 90))
    assert (rep.winding_count, rep.line_count, rep.verdict) == (7, 5, "FAIL")
    (box,) = mismatches
    assert (box.rectangle.t1, box.rectangle.t2) == (85.625, 85.703125)
    spira = complex(0.808517, 85.699348)
    s, h = spira, 1e-6
    for _ in range(6):
        s -= f(s) * 2.0 * h / (f(s + h) - f(s - h))
    # each part rounds to Spira's six decimals
    assert abs(s.real - spira.real) < 5e-7 and abs(s.imag - spira.imag) < 5e-7
    assert abs(s - complex(0.8085171824566, 85.6993484853776)) < 1e-12
    assert abs(f(s)) < 1e-13


# ------------------------------------------------------- family construction

def test_standard_family_shape(fam5):
    assert fam5.f0.name == "scaled_zeta(q=5)"
    assert fam5.f1.name == "L(chi 5.2)"
    assert not fam5.degenerate
    assert fam5.shared_fe.modulus == 5
    assert fam5.shared_fe.kappa == 0


def test_standard_family_without_catalog_entry():
    with pytest.raises(DomainError):
        standard_family(5, parity=1)  # the real character mod 5 is even
    with pytest.raises(DomainError):
        standard_family(7)  # ... and the one mod 7 is odd


@pytest.mark.parametrize("parity", [0, 1])
def test_cataloged_character_is_the_first_entry_of_its_modulus(parity):
    # catalog_self_dual(q, parity) lists modulus q last, so its modulus-q
    # entries are those of the catalog up to 40; the character is the first
    # primitive one, since an imprimitive L(s, chi) lacks the modulus-q
    # equation
    catalog = catalog_self_dual(40, parity)
    for q in range(1, 41):
        entries = [e for e in catalog if e.q == q]
        assert catalog_modulus(q, parity) == entries
        primitive = [e.character for e in entries if e.classification.is_primitive]
        if primitive:
            assert cataloged_character(q, parity) == primitive[0]
        else:
            with pytest.raises(DomainError, match="primitive"):
                cataloged_character(q, parity)


def test_every_family_up_to_40_shares_its_equation():
    # the premise of the half path and of the line signal: both endpoints
    # of every standard family satisfy shared_fe
    worst = {}
    for parity in (0, 1):
        for q in range(1, 41):
            if any(e.classification.is_primitive for e in catalog_modulus(q, parity)):
                fam = standard_family(q, parity)
                worst[q, parity] = max(
                    max_residual(f, fam.shared_fe, n_sigma=6, n_t=6) for f in (fam.f0, fam.f1)
                )
    assert len(worst) == 26
    assert max(worst.values()) < 1e-8, worst


def test_standard_family_odd_blends_from_complex_pair():
    fam = standard_family(7, parity=1)
    assert fam.f0.name == "dh(chi 7.1)"
    assert fam.f1.name == "L(chi 7.3)"
    assert not fam.degenerate
    assert fam.shared_fe.kappa == 1
    assert max(max_residual(f, fam.shared_fe) for f in (fam.f0, fam.f1)) < 1e-8


def test_standard_family_degenerate_when_no_complex_odd_exists():
    # mod 3 there is no primitive complex odd character, so both ends are
    # the same L-function and the family never moves
    fam = standard_family(3, parity=1)
    assert fam.degenerate
    s = 0.3 + 7.0j
    assert fam.member(0.5)(s) == fam.f1(s)


# ----------------------------------------------------------------- tracking

def test_track_zeta_zero_lands_on_l_zero(fam5):
    tr = track_zero(start_zero(fam5, 14.0, 14.2), LineSamples(fam5, 0.0, 0.05))
    assert tr.status == "completed"
    assert tr.reversals == 0
    assert tr.samples[0] == (0.0, tr.start_zero.t)
    assert abs(tr.start_zero.t - ZETA_ZERO_1) < 1e-6
    assert abs(tr.end_zero.t - L5_ZEROS[3]) < 1e-6
    assert max(tr.abs_phi) < 1e-7


def test_track_is_stable_under_grid_refinement(fam5):
    # the branch read on nodes 0.025 apart ends where the 0.05 grid ends it
    z = start_zero(fam5, 14.0, 14.2)
    a = track_zero(z, LineSamples(fam5, 0.0, 0.05))
    b = track_zero(z, LineSamples(fam5, 0.0, 0.05, step=0.025))
    assert a.status == "completed"
    assert b.status == "completed"
    assert abs(a.end_zero.t - b.end_zero.t) < 1e-6


def test_track_pinned_ordinate_zero_moves_off_its_ordinate(fam5):
    # f0 vanishes at 9 pi / ln 5 because of its pinned factor; the L zero it
    # deforms onto sits 8.4e-4 lower, so the ordinate is not preserved
    z = start_zero(fam5, 17.5, 17.6)
    assert z.kind == "trivial_factor"
    tr = track_zero(z, LineSamples(fam5, 0.0, 0.05))
    assert tr.status == "completed"
    assert abs(tr.end_zero.t - L5_ZEROS[4]) < 1e-6
    assert abs(tr.end_zero.t - z.t) > 1e-4
    assert tr.end_zero.kind == "nontrivial"


def test_track_reports_off_line_departure_as_lost(fam5):
    # phi_tau(1/2) is real and affine in tau, so it vanishes at
    # tau* = v0 / (v0 - v1); past that the lowest zero pair sits at real
    # sigma, 1 - sigma off the line and the on-line tracker must stop
    z = start_zero(fam5, 1.9, 2.0)
    assert abs(z.t - math.pi / math.log(5)) < 1e-6
    tr = track_zero(z, LineSamples(fam5, 0.0, 0.05))
    assert tr.status == "lost"
    assert tr.end_zero is None
    v0 = fam5.f0(0.5 + 0.0j).real
    v1 = fam5.f1(0.5 + 0.0j).real
    tau_star = v0 / (v0 - v1)
    assert 0.9264 < tau_star < 0.9265
    last_tau, last_t = tr.samples[-1]
    assert abs(last_tau - tau_star) < 1e-6
    assert last_t < 1e-2


# ------------------------------------------------------ level-set tracking

def closed_form_tau_star(fam):
    v0 = fam.f0(0.5 + 0.0j).real
    v1 = fam.f1(0.5 + 0.0j).real
    return v0 / (v0 - v1)


def times(h, f, name):
    """h f for h(s) = conj h(1 - conj s): the product keeps f's equation."""

    def ev(s):
        v, e = f.eval_fn(s)
        return h(s) * v, abs(h(s)) * e

    return FunctionSpec(name, ev)


@pytest.fixture(scope="module")
def pairing_odd7():
    return pair_zeros(standard_family(7, parity=1), (1.0, 20.0))


@pytest.fixture(scope="module")
def pairing8():
    return pair_zeros(standard_family(8), (1.0, 30.0))


@pytest.mark.parametrize("q", [5, 8])
def test_lost_tau_is_r_at_zero(q, pairing5):
    # the branch that runs into t = 0 ends at R(0) = f0(1/2) / (f0(1/2) - f1(1/2))
    fam = standard_family(q)
    pairing = pairing5 if q == 5 else pair_zeros(fam, (1.0, 30.0))
    (doomed,) = pairing.lost
    assert doomed.samples[-1][1] == 0.0
    assert abs(doomed.samples[-1][0] - closed_form_tau_star(fam)) <= 1e-12
    assert pairing.r_extrema == ()


def test_sample_tau_is_nondecreasing(pairing5, pairing_odd7):
    for tr in pairing5.trajectories + pairing_odd7.trajectories:
        taus = [tau for tau, _ in tr.samples]
        assert taus[0] == 0.0
        assert all(a <= b for a, b in zip(taus, taus[1:]))
        assert all(0.0 <= tau <= 1.0 for tau in taus)


def test_trajectory_end_samples(pairing5):
    for tr in pairing5.trajectories:
        if tr.status == "completed":
            assert tr.samples[-1] == (1.0, tr.end_zero.t)
            assert tr.abs_phi[-1] == tr.end_zero.residual
        else:
            assert tr.samples[-1][1] == 0.0


def test_track_alone_matches_the_shared_table(fam5, pairing5):
    z = start_zero(fam5, 14.0, 14.2)
    alone = track_zero(z, LineSamples(fam5, 0.0, 0.05))
    shared = next(tr for tr in pairing5.trajectories if tr.start_zero.t == z.t)
    assert abs(alone.end_zero.t - shared.end_zero.t) < 1e-9


def test_end_zero_records_its_own_half_width(fam5, pairing5):
    z1 = CriticalLineSignal(fam5.f1, fam5.shared_fe)
    ends = [tr.end_zero for tr in pairing5.trajectories if tr.end_zero is not None]
    assert len(ends) == 10
    for end in ends:
        assert 0.0 <= end.half_width <= BISECT_HALF_WIDTH
        # the recorded bracket holds the sign change of Z1 (1e-14: midpoint rounding)
        pad = end.half_width + 1e-14
        assert z1(end.t - pad) * z1(end.t + pad) <= 0.0
    assert any(end.half_width != BISECT_HALF_WIDTH for end in ends)


def test_odd_family_tracks_every_zero(pairing_odd7):
    # the track-odd7 benchmark oracle: no zero is lost or merged, and every
    # trajectories.csv row sits on a zero of phi_tau
    statuses = [tr.status for tr in pairing_odd7.trajectories]
    assert len(statuses) == 7
    assert statuses.count("lost") == 0
    assert statuses.count("merged") == 0
    assert pairing_odd7.r_extrema == ()
    rows = trajectory_csv_lines(pairing_odd7.trajectories)[2:]
    assert max(float(r.rsplit(",", 1)[1]) for r in rows) < 1e-7


def test_common_zero_at_t0_is_stationary_not_r_of_zero():
    # i (s - 1/2) keeps the odd q = 7 equation and puts a simple zero at
    # s = 1/2 into both endpoints, so Z0(0) = Z1(0) = 0 and R(0) is 0/0
    odd = standard_family(7, parity=1)
    h = lambda s: 1j * (s - 0.5)
    fam = DeformationFamily(times(h, odd.f0, "h f0"), times(h, odd.f1, "h f1"), odd.shared_fe)
    assert max(max_residual(f, fam.shared_fe) for f in (fam.f0, fam.f1)) < 1e-8
    assert math.isnan(LineSamples(fam, 0.0, 0.05).row(0.0)[0])
    rep = pair_zeros(fam, (-1.0, 1.0))
    (tr,) = rep.trajectories
    assert tr.status == "completed"
    assert tr.samples == ((0.0, tr.start_zero.t), (1.0, tr.end_zero.t))
    assert abs(tr.start_zero.t) < 1e-9
    assert abs(tr.end_zero.t) < 1e-9
    assert (rep.n0, rep.n1) == (1, 1)


def test_interior_extremum_of_r_ends_the_branch(fam5):
    # with f0 = h0 L and f1 = (h0 - 8) L, R = h0 / 8 on the line whatever L
    # is; h0 = -w (4 + w), w = (s - 1/2)^2 = -t^2, gives R = t^2 (4 - t^2) / 8:
    # a zero of f0 at t = 2 whose branch turns back at t = sqrt 2, tau = 1/2
    h0 = lambda s: -((s - 0.5) ** 2) * (4.0 + (s - 0.5) ** 2)
    h1 = lambda s: h0(s) - 8.0
    f = fam5.f1
    fam = DeformationFamily(times(h0, f, "h0 L"), times(h1, f, "h1 L"), fam5.shared_fe)
    rep = pair_zeros(fam, (1.0, 3.0))
    (tr,) = rep.trajectories
    assert abs(tr.start_zero.t - 2.0) < 1e-9
    assert tr.status == "lost"
    assert tr.reversals == 1
    last_tau, last_t = tr.samples[-1]
    assert abs(last_t - math.sqrt(2.0)) < 1e-6
    assert abs(last_tau - 0.5) < 1e-12
    assert max(tr.abs_phi) < 1e-7
    ((t_ext, tau_ext),) = rep.r_extrema
    assert abs(t_ext - math.sqrt(2.0)) < 1e-6
    assert abs(tau_ext - 0.5) < 1e-12


def test_branches_ending_on_one_f1_zero_are_merged(fam5, monkeypatch):
    # with f0 = h0 L and f1 = h1 L, h0 = h1 + 8, R = h0 / 8 = 1 + h1 / 8 on the
    # line; u = i (s - 1/2) is -t there, so h1 = -20 ((u + 2)^2 - d^2) puts
    # two f1 zeros at t = 2 -+ d, closer than the merge tolerance, around
    # the grid node t = 2, where R > 1.  The branches of the f0 zeros at
    # t = 2 -+ sqrt(0.4 + d^2) climb to R = 1 from either side and end there.
    d = 2e-9
    u = lambda s: 1j * (s - 0.5)
    h1 = lambda s: -20.0 * (u(s) + 2.0 - d) * (u(s) + 2.0 + d)
    h0 = lambda s: h1(s) + 8.0
    f = fam5.f1
    fam = DeformationFamily(times(h0, f, "h0 L"), times(h1, f, "h1 L"), fam5.shared_fe)
    rep = pair_zeros(fam, (1.0, 3.0))
    lower, upper = rep.trajectories
    for tr, sign in ((lower, -1), (upper, 1)):
        assert tr.status == "merged" and tr.reversals == 0
        assert abs(tr.start_zero.t - (2.0 + sign * math.sqrt(0.4))) < 1e-9
        assert abs(tr.end_zero.t - (2.0 + sign * d)) <= BISECT_HALF_WIDTH
    assert rep.pairs == ()
    # the claim report of the same family flags the merge
    monkeypatch.setattr(deformation, "family_for_character", lambda chi: fam)
    report = run_claim_report(5, t_max=3.0)
    assert (report["pairing"]["completed"], report["pairing"]["merged"]) == (0, 2)
    assert report["flags"] == ["merged_trajectories"]
    assert report["claims"]["all_trajectories_complete"] == "FAIL"


# ------------------------------------------------------------------ pairing

def test_pairing_counts_and_endpoints(pairing5):
    assert pairing5.interval == (1.0, 30.0)
    lo, hi = pairing5.extended
    assert lo < 1.0
    assert hi > 30.0
    assert (pairing5.n0, pairing5.n1) == (12, 11)  # the count gap is exactly 1
    assert len(pairing5.pairs) == 10
    ends = sorted(p[1].t for p in pairing5.pairs)
    for got, want in zip(ends, L5_ZEROS[:10]):
        assert abs(got - want) < 1e-6


@pytest.mark.parametrize("q, counts", [(5, (12, 11)), (8, (13, 13))])
def test_pairing_counts_are_fresh_scan_counts_over_the_extension(q, counts, pairing5, pairing8):
    # n0 and n1 come from the shared table's sign changes; a fresh scan of
    # each endpoint over the extended interval finds as many zeros
    fam = standard_family(q)
    pairing = pairing5 if q == 5 else pairing8
    n0 = len(scan_line_zeros(fam.f0, pairing.extended))
    n1 = len(scan_line_zeros(fam.f1, pairing.extended))
    assert (pairing.n0, pairing.n1) == (n0, n1) == counts


def _sweep_taus(seed):
    """The taus of the sweep-q8 benchmark workload (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sweep_taus(seed)


@pytest.mark.parametrize("q, parity", [(5, 0), (8, 0), (7, 1)], ids=["q5", "q8", "q7odd"])
def test_line_count_equals_located_zeros(q, parity):
    # the line count stops once it reaches the winding, so it would hide a
    # full grid that finds more sign changes than the box holds zeros; the
    # full grid is read here, on the box of the report and of sweep-q8
    fam = standard_family(q, parity)
    taus = sorted(set(TAU_GRID_DEFAULT) | set(_sweep_taus(1)))
    assert len(taus) == 12
    for tau in taus:
        f = fam.member(tau)
        n = len(scan_line_zeros(f, (1.0, 30.0)))
        assert n > 0
        rep = count_zeros_box(f, Rect(-1, 2, 1, 30))
        assert rep.winding_count == rep.line_count == n
        # a target above the full count reads the whole grid
        assert count_line_zeros(f, (1.0, 30.0), 0.05, n + 1) == n


def _cli_spec(*flags):
    """The spec `deform-zeros zeros count` builds from these function flags."""
    return cli._resolve_spec(cli.build_parser().parse_args(["zeros", "count", *flags]))


_cached_family = functools.lru_cache(maxsize=None)(standard_family)


def _agreement_cases():
    """(id, spec maker, t1, t2): the report's and sweep-q8's box -1:2:1:30 at
    every TAU_GRID_DEFAULT tau of q5, q8 and q7-odd and every other sweep-q8
    tau of seeds 1-3, then four boxes of the CLI's `--f zeta` spec, then the
    box -1:2:1:30 of its `--f f0 --q 5`, `--f L --q 5` and
    `--f L --q 7 --parity odd` specs."""

    def member(q, parity, tau):
        return lambda: _cached_family(q, parity).member(tau)

    taus8 = sorted({tau for seed in (1, 2, 3) for tau in _sweep_taus(seed)} - set(TAU_GRID_DEFAULT))
    fams = [(q, parity, tau) for q, parity in ((5, 0), (8, 0), (7, 1)) for tau in TAU_GRID_DEFAULT]
    fams += [(8, 0, tau) for tau in taus8]
    cases = [(f"q{q}{'odd' if parity else ''}-tau{tau:g}", member(q, parity, tau), 1, 30)
             for q, parity, tau in fams]
    cases += [(f"zeta-{t1:g}:{t2:g}", lambda: _cli_spec("--f", "zeta"), t1, t2)
              for t1, t2 in ((1, 10), (10, 15), (1, 30), (13.5, 25.5))]
    flags = (("--f", "f0", "--q", "5"), ("--f", "L", "--q", "5"),
             ("--f", "L", "--q", "7", "--parity", "odd"))
    return cases + [(" ".join(fl), lambda fl=fl: _cli_spec(*fl), 1, 30) for fl in flags]


_AGREEMENT_CASES = _agreement_cases()


def _right_half(f, box):
    """(Backlund's right-half count of the symmetric box before rounding,
    min |f| over the points evaluated, the certified margins), at step 0.05."""
    _, s2, t1, t2 = box
    corners = [complex(0.5, t1), complex(s2, t1), complex(s2, t2), complex(0.5, t2)]
    total, min_mod, margins = zerofind._path(f, corners, 0.05)
    fe = f.natural_fe
    return (total + funceq.theta_q(t2, fe) - funceq.theta_q(t1, fe)) / math.pi, min_mod, margins


@pytest.mark.parametrize("make, t1, t2", [c[1:] for c in _AGREEMENT_CASES],
                         ids=[c[0] for c in _AGREEMENT_CASES])
def test_half_and_full_paths_agree(make, t1, t2):
    assert len(_AGREEMENT_CASES) == 15 + 21 + 4 + 3
    f = make()
    box = Rect(-1, 2, t1, t2)
    # the box is symmetric and above the axis, and f has its equation
    assert f.natural_fe is not None and box.t1 > 0 and 1 - box.sigma1 == box.sigma2
    # the right edge at sigma = 2 is certified; without coeff_bounds it is walked
    assert 1.0 - f.tail_bound(2.0) >= zerofind.BOUNDARY_MIN_MODULUS
    walked = f._replace(coeff_bounds=None)
    half, _, _ = _right_half(f, box)
    half_walked, _, _ = _right_half(walked, box)
    full = count_zeros_box(f._replace(natural_fe=None), box).winding_count
    assert round(half) == round(half_walked) == full
    for turns in (half, half_walked):
        assert abs(turns - round(turns)) < 1e-6
    rep = count_zeros_box(f, box)
    assert rep.winding_count == rep.line_count == full


def test_an_uncertified_right_edge_is_walked():
    # B(1.2) >= 1 for the q = 8 member: the edge at sigma2 = 1.2 is sampled
    # exactly as without coeff_bounds
    f = standard_family(8).member(0.37)
    assert f.tail_bound(1.2) >= 1.0
    box = Rect(-0.2, 1.2, 1, 30)
    calls = {True: [], False: []}
    turns = {}
    for certified in calls:
        g = f if certified else f._replace(coeff_bounds=None)
        counted = g._replace(eval_fn=lambda s, c=calls[certified]: c.append(s) or f.eval_fn(s))
        turns[certified] = _right_half(counted, box)
    assert calls[True] == calls[False] and len(calls[True]) > 600
    assert turns[True] == turns[False]
    assert round(turns[True][0]) == 13


def test_verify_op_evaluates_the_right_half_of_the_box(monkeypatch):
    # one sweep-q8 `zeros verify` op: 1,862 member evaluations on the whole
    # boundary, 1,222 with the right half, 643 with its right edge certified,
    # 136 once the line count stopped at the winding, reading every 8th grid
    # node and refining whole cells, and 82 now that it reads every 32nd
    # node and the last and halves cells (62 on the contour, 20 on the line)
    fam = standard_family(8)
    f = fam.member(0.37)
    calls = []
    counted = f._replace(eval_fn=lambda s: calls.append(s) or f.eval_fn(s))
    rep, mismatches = zerofind.verify_on_line(counted, Rect(-1, 2, 1, 30))
    assert rep.verdict == "PASS" and rep.winding_count == rep.line_count == 13
    assert mismatches == ()
    assert len(calls) <= 85


# Newton from 0.7 + 31.57i on the odd q = 7 family's members
_OFF_LINE_Q7 = {0.0: 1.035699 + 31.580361j, 0.3: 0.697551 + 31.585379j}


@pytest.mark.parametrize("tau", sorted(_OFF_LINE_Q7))
def test_odd_q7_off_line_pair_is_counted_on_both_paths(tau, monkeypatch):
    fam = standard_family(7, 1)
    f = fam.member(tau)
    s = 0.7 + 31.57j
    for _ in range(30):
        h = 1e-6
        s -= f(s) / ((f(s + h) - f(s - h)) / (2 * h))
    assert abs(s - _OFF_LINE_Q7[tau]) < 1e-6
    assert abs(f(s)) < 1e-13 and abs(f(1.0 - s.conjugate())) < 1e-12
    edges = []
    walk = zerofind._edge_walk
    monkeypatch.setattr(
        zerofind, "_edge_walk", lambda *a: edges.append(a) or walk(*a)
    )
    box = Rect(-1, 2, 31.5, 31.7)
    half = count_zeros_box(f, box)
    assert len(edges) == 3
    del edges[:]
    # the whole-boundary reference
    full = count_zeros_box(f._replace(natural_fe=None), box)
    assert len(edges) == 4
    assert (half.winding_count, half.line_count) == (full.winding_count, 0) == (2, 0)


# t_e = 31.586135 + 0.0004 k, the boxes -1.013:2.5:31:t_e at tau 0.343 and
# their counts, frozen from the whole boundary walked at step 0.0005: the
# pair near 0.5 + 31.5861i lies below t_e from k = 0 on
_CLOSE_PAIR_TRUTHS = {k: 0 if k < 0 else 2 for k in range(-10, 11, 2)}


@pytest.mark.parametrize("k", sorted(_CLOSE_PAIR_TRUTHS))
def test_boxes_below_and_above_the_close_pair_count_it_at_the_default_step(k):
    f = standard_family(7, 1).member(0.343)
    rep = count_zeros_box(f, Rect(-1.013, 2.5, 31, 31.586135 + 0.0004 * k))
    assert rep.winding_count == _CLOSE_PAIR_TRUTHS[k]


def test_odd_q7_off_line_pair_fails_with_the_whole_line_read(monkeypatch):
    # winding 2 and no sign change: the line count never reaches the
    # winding, so it reads every grid node, today's grid
    f = standard_family(7, 1).member(0.3431)
    lines = []  # (nodes, nodes read) of each line count
    count = zerofind.sign_change_count

    def counted(z, ts, target):
        lines.append((ts, []))
        return count(lambda t: lines[-1][1].append(t) or z(t), ts, target)

    monkeypatch.setattr(zerofind, "sign_change_count", counted)
    rep, mismatches = zerofind.verify_on_line(f, Rect(-1, 2, 31.5, 31.7))
    assert rep.verdict == "FAIL" and mismatches
    assert (rep.winding_count, rep.line_count) == (2, 0)
    ts, read = lines[0]
    assert ts == LineGrid((31.5, 31.7), 0.05).nodes(31.5, 31.7)
    assert sorted(read) == ts


def test_pairing_statuses(pairing5):
    statuses = [tr.status for tr in pairing5.trajectories]
    assert statuses.count("completed") == 10
    assert statuses.count("lost") == 1
    assert statuses.count("merged") == 0
    (doomed,) = pairing5.lost
    assert abs(doomed.samples[0][1] - math.pi / math.log(5)) < 1e-6


def test_pairing_start_kinds(pairing5):
    kinds = [tr.start_zero.kind for tr in pairing5.trajectories]
    assert kinds.count("trivial_factor") == 8  # (2k+1) pi / ln 5, k = 0..7
    assert kinds.count("nontrivial") == 3
    # no completed endpoint lands back on a watched ordinate
    for tr in pairing5.trajectories:
        if tr.status == "completed":
            assert tr.end_zero.kind == "nontrivial"


def test_gap_ordinate_is_a_table_node_where_min_z_peaks(fam5):
    samples = LineSamples(fam5, 1.0, 30.0)

    def g(t):
        return min(abs(samples.z0(t)), abs(samples.z1(t)))

    hi = deformation._gap_ordinate(samples, 30.0, +1)
    lo = deformation._gap_ordinate(samples, 1.0, -1)
    assert abs(hi - 31.55) < 1e-12 and abs(lo - 0.95) < 1e-12
    for t in (hi, lo):
        assert t in samples.grid.nodes(t - 0.01, t + 0.01)
    assert g(hi) >= g(samples.grid.next_node(hi, +1)) and g(hi) >= g(samples.grid.next_node(hi, -1))
    # below t = 1 min |Z| only falls towards t = 0, so the walk exhausts and
    # takes the sampled argmax
    assert all(g(lo) >= g(t) for t in samples.grid.nodes(0.075, lo))
    # the downward walk stops above t = 0.075; below it lie only mirror images
    (bottom,) = samples.grid.nodes(0.09, 0.11)
    assert deformation._gap_ordinate(samples, bottom, -1) == bottom


def test_symmetric_interval_is_cut_symmetrically(fam5):
    # f0 and f1 are real on the real axis, so the zeros in (-hi, hi) mirror
    # those in (0, hi): a walk down from below 0 is not floored at 0.075
    whole = pair_zeros(fam5, (-30.0, 30.0))
    half = pair_zeros(fam5, (0.0, 30.0))
    lo, hi = whole.extended
    assert abs(lo + 31.55) < 1e-12 and abs(hi - 31.55) < 1e-12
    assert abs(half.extended[1] - hi) < 1e-12
    assert (whole.n0, whole.n1) == (2 * half.n0, 2 * half.n1) == (24, 22)


def test_gap_walk_steps_past_a_start_that_is_a_node_but_for_rounding(fam5):
    # the grid's last node can miss hi by an ulp; the walk must not take that
    # node for the next one and stop on the interval end
    samples = LineSamples(fam5, 1.0, 30.0)
    for node in samples.grid.nodes(20.0, 30.0):
        start = math.nextafter(node, -math.inf)
        assert deformation._gap_ordinate(samples, start, +1) > node + 0.025


def test_next_node_steps_past_a_node_within_rounding_of_t():
    # on the (1, 30) grid the node k = -18 is 0.09999999999999998, not 0.1
    grid = LineGrid((1.0, 30.0), 0.05)
    assert abs(grid.next_node(0.1, -1) - 0.05) < 1e-12
    assert abs(grid.next_node(0.1, +1) - 0.15) < 1e-12


def test_next_node_beyond_hi_is_a_full_cell_away():
    # the last node lo + span n / n can exceed hi by an ulp; next_node(hi, +1)
    # must still be the node after it
    rng = random.Random(20)
    ulp_above = 0
    for _ in range(2000):
        lo = rng.uniform(0.0, 30.0)
        hi = lo + rng.uniform(0.1, 30.0)
        grid = LineGrid((lo, hi), rng.uniform(0.01, 0.1))
        cell = grid.span / grid.n
        ulp_above += grid.node(grid.n) > hi
        assert abs(grid.next_node(hi, +1) - (hi + cell)) < 1e-9
        assert abs(grid.next_node(lo, -1) - (lo - cell)) < 1e-9 or lo - cell < 0.0
    assert ulp_above > 0


def test_pairing_extension_ends_on_grid_nodes_off_the_005_lattice(fam5):
    # node spacing 19.1139 / 383 is not 0.05: the cut still lands on nodes
    rep = pair_zeros(fam5, (1.0, 20.1139))
    grid = LineGrid((1.0, 20.1139), 0.05)
    for t in rep.extended:
        k = (t - 1.0) * grid.n / grid.span
        assert abs(k - round(k)) < 1e-9
    assert rep.extended[0] < 1.0 and rep.extended[1] > 20.1139
    n0 = len(scan_line_zeros(fam5.f0, rep.extended))
    n1 = len(scan_line_zeros(fam5.f1, rep.extended))
    assert (rep.n0, rep.n1) == (n0, n1)


@pytest.mark.parametrize(
    "q, parity, interval",
    [(5, 0, (1.0, 30.0)), (8, 0, (0.0, 30.0)), (7, 1, (1.0, 20.1139))],
    ids=["q5", "q8", "q7odd"],
)
def test_pairing_zeros_are_the_endpoint_scans_records(q, parity, interval):
    # the tracker's table reads the scan grid, so its start zeros are
    # scan_line_zeros(f0) record for record; an end zero's residual is |f1|
    fam = standard_family(q, parity)
    rep = pair_zeros(fam, interval)
    assert [tr.start_zero for tr in rep.trajectories] == scan_line_zeros(fam.f0, interval)
    ends = [tr.end_zero for tr in rep.trajectories if tr.end_zero is not None]
    assert ends and all(z.residual == abs(fam.f1(complex(0.5, z.t))) for z in ends)


@pytest.mark.parametrize(
    "q, parity, inside",
    [(5, 0, [17.5678]), (8, 0, []), (7, 1, []), (11, 1, [])],
    ids=["q5", "q8", "q7odd", "q11odd"],
)
def test_report_end_zeros_are_the_f1_scans_records(q, parity, inside):
    # read on the grid nodes alone, a branch that leaves its start's cell
    # ends in a grid cell and is refined there as the f1 scan refines it;
    # a branch that ends inside its start's cell is refined on [t0, node]
    fam = standard_family(q, parity)
    rep = pair_zeros(fam, (1.0, 30.0))
    samples = LineSamples(fam, 1.0, 30.0)
    nodes = samples.grid.nodes(*rep.extended)
    records = {z.t: z for z in zerofind.sign_change_zeros(fam.f1, samples.z1, nodes)}
    ends_in_start_cell = []
    for tr in rep.trajectories:
        if tr.end_zero is None:
            continue
        k = next(i for i, t in enumerate(nodes) if t > tr.start_zero.t)
        if nodes[k - 1] <= tr.end_zero.t <= nodes[k]:
            ends_in_start_cell.append(round(tr.start_zero.t, 4))
        else:
            assert records[tr.end_zero.t] == tr.end_zero
    assert ends_in_start_cell == inside


def _linear(knots):
    """The function linear between the given (t, value) knots."""

    def fn(t):
        (ta, za), (tb, zb) = next((a, b) for a, b in zip(knots, knots[1:]) if t <= b[0])
        return za + (zb - za) * (t - ta) / (tb - ta)

    return fn


class _SyntheticRows:
    """A line table on LineGrid((0, 1), 0.05), or on `cells` equal cells of
    (0, 1), with the columns Z0 = scale z0(t) and Z1 = scale z1(t), so
    R = Z0 / (Z0 - Z1); a power of two as scale leaves every R
    bit-identical.  fam.f1 is z1 on the line, for the record of an end
    zero."""

    def __init__(self, z0, z1=lambda t: 1.0, scale=1.0, cells=None):
        self.grid = LineGrid((0.0, 1.0), 0.05 if cells is None else 1.0 / cells)
        self.columns, self.scale = (z0, z1), scale
        self.fam = SimpleNamespace(f1=FunctionSpec("z1", lambda s: (complex(z1(s.imag)), 0.0)))

    def row(self, t):
        z0, z1 = (self.scale * z(t) for z in self.columns)
        return (z0 / (z0 - z1) if z0 != z1 else math.nan, z0, z1, 0j, 0j)

    def r(self, t):
        return self.row(t)[0]

    def z1(self, t):
        return self.row(t)[2]


def _turn_table(z0_at_010):
    """R = 0.99 at node 0.05 from a zero of Z0 at 0.01, then R falls before
    node 0.10 (to R(0.10) = 1.2 through a pole of R for z0_at_010 = 6, to a
    nan row, Z0 = Z1, for 1)."""
    return _linear([(0.0, 0.5), (0.01, 0.0), (0.05, -99.0), (0.10, z0_at_010), (1.0, 6.0)])


# None reads the table on its 0.05 grid, whose node 0.10 lies past the pole
# or nan row; on 64 cells R already falls at node 0.0625, so the walk sees
# the turn without halving a cell, and its verdict is the same
@pytest.mark.parametrize("cells", [None, 64])
@pytest.mark.parametrize("z0_at_010", [6.0, 1.0], ids=["pole", "nan"])
def test_follow_splits_a_cell_it_cannot_read(cells, z0_at_010):
    # the halved cell shows the turn, so the branch is lost there
    rows = _SyntheticRows(_turn_table(z0_at_010), cells=cells)
    assert rows.r(0.05) == 0.99
    path, status, reversals, _ = deformation._follow(rows, 0.01, 1)
    assert (status, reversals) == ("lost", 1)
    assert max(t for _, t in path) < 0.10


# 2^-700 ~ 1.9e-211: a scaled column stays normal, so scaling is exact and
# every R is bit-identical, but a product of two scaled values underflows
_TINY = 2.0**-700
# R = (t - 0.01) / 0.49 runs from 0 to 1 over [0.01, 0.5], where Z1 changes sign
_COMPLETING = (lambda t: t - 0.01, lambda t: t - 0.5)


@pytest.mark.parametrize("cells", [None, 64])
@pytest.mark.parametrize(
    "columns, status, reversals, last_t",
    [((_turn_table(6.0),), "lost", 1, (0.01, 0.10)),
     (_COMPLETING, "completed", 0, (0.5 - 1e-9, 0.5 + 1e-9))],
    ids=["turn", "completing"],
)
def test_follow_reads_a_scaled_table_alike(cells, columns, status, reversals, last_t):
    walks = [
        deformation._follow(_SyntheticRows(*columns, scale=c, cells=cells), 0.01, 1)
        for c in (1.0, _TINY)
    ]
    # path (R, t) node by node, status, reversals and the end's half-width
    assert walks[0] == walks[1]
    path, got_status, got_reversals, _ = walks[0]
    assert (got_status, got_reversals) == (status, reversals)
    assert last_t[0] < path[-1][1] < last_t[1]


@pytest.mark.parametrize(
    "columns, shared",
    [(_COMPLETING, False), ((lambda t: t - 0.01, lambda t: 0.02 - 2.0 * t), True)],
    ids=["apart", "shared"],
)
def test_track_zero_decides_a_shared_zero_alike_at_any_scale(columns, shared):
    start = ZeroRecord(0.01, 0.5, 0.0, 0.0, "nontrivial")
    trs = [track_zero(start, _SyntheticRows(*columns, scale=c)) for c in (1.0, _TINY)]
    assert trs[0] == trs[1]
    assert trs[0].status == "completed"
    # a shared zero stands still; the other walks its branch to t = 0.5
    assert abs(trs[0].end_zero.t - (0.01 if shared else 0.5)) < 1e-9


def test_r_extrema_reads_a_scaled_table_alike():
    # Z0 - Z1 = 8 scale: R = t^2 (4 - t^2) / 8, with no pole, peaks at
    # t = sqrt 2, tau = 1/2
    z0 = lambda t: t * t * (4.0 - t * t)
    found = [
        deformation._r_extrema(_SyntheticRows(z0, lambda t: z0(t) - 8.0, scale=c), 1.0, 3.0)
        for c in (1.0, _TINY)
    ]
    assert found[0] == found[1]
    ((t, tau),) = found[0]
    assert abs(t - math.sqrt(2.0)) < 1e-6 and abs(tau - 0.5) < 1e-12


def test_next_node_crosses_zero_from_the_smallest_float():
    # -0.05 * 5e-324 rounds to -0.0, yet -0.05 lies across t = 0 from t
    assert LineGrid((0.0, 1.0), 0.05).next_node(5e-324, -1) == 0.0


def test_pairing_endpoints_stay_inside_extension(pairing5):
    lo, hi = pairing5.extended
    for tr in pairing5.trajectories:
        if tr.status == "completed":
            assert lo < tr.end_zero.t < hi


def test_pairing_continuity_budget(pairing5, pairing_odd7):
    # a path reads the grid nodes, so no sample is more than one cell (at
    # most `step` = 0.05, plus rounding) from the one before it
    for tr in pairing5.trajectories + pairing_odd7.trajectories:
        ts = [t for _, t in tr.samples]
        assert max(abs(b - a) for a, b in zip(ts, ts[1:])) <= 0.05 + 1e-12


def test_pairing_refines_each_end_zero_once(monkeypatch):
    # one walk per branch, and its end cell is refined once
    calls = []
    refine = deformation._bracket_correct

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(deformation, "_bracket_correct", counted)
    rep = pair_zeros(standard_family(5), (1.0, 30.0))
    completed = [tr for tr in rep.trajectories if tr.status == "completed"]
    assert len(completed) == 10
    assert len(calls) == len(completed)
    for tr in completed:
        assert tr.end_zero.half_width <= BISECT_HALF_WIDTH


def test_pairing_zero_condition_holds_along_paths(pairing5):
    assert max(max(tr.abs_phi) for tr in pairing5.trajectories) < 1e-7


def test_pairing_singleton_interval(fam5):
    rep = pair_zeros(fam5, (14.0, 14.2))
    assert len(rep.pairs) == 1
    assert (rep.n0, rep.n1) == (1, 1)
    start, end = rep.pairs[0]
    assert abs(start.t - ZETA_ZERO_1) < 1e-6
    assert abs(end.t - L5_ZEROS[3]) < 1e-6
    assert rep.extended[1] > end.t  # the gap walk pushed past the far endpoint


def test_pairing_empty_interval(fam5):
    rep = pair_zeros(fam5, (2.5, 3.5))
    assert rep.pairs == ()
    assert rep.trajectories == ()
    assert (rep.n0, rep.n1) == (0, 0)
    assert rep.extended == rep.interval


def test_pairing_rejects_bad_interval(fam5):
    with pytest.raises(DomainError):
        pair_zeros(fam5, (3.0, 2.0))


def test_trajectory_csv_shape(pairing5):
    lines = trajectory_csv_lines(pairing5.trajectories)
    assert lines[0] == "# deform-zeros v1"
    assert lines[1] == "trajectory_id,tau,t,abs_phi"
    rows = [ln.split(",") for ln in lines[2:]]
    assert all(len(r) == 4 for r in rows)
    assert sorted({int(r[0]) for r in rows}) == list(range(11))
    # ids follow the starting ordinate: id 0 is the lowest (the lost one)
    first = next(r for r in rows if r[0] == "0")
    assert abs(float(first[2]) - math.pi / math.log(5)) < 1e-6


# ------------------------------------------------------------ exact division

# one period of chi_5 = (n/5): the coefficients of n = 1, 2, 3, 4, 5 (mod 5)
CHI5_PERIOD = [1, -1, -1, 1, 0]


def chi_period(q, parity=0):
    chi = cataloged_chi(q, parity)
    return [round(chi(n).real) for n in range(1, q + 1)]


def closed_form_quotient(c, q, n):
    """b_n = sum over q^k | n of (-sqrt q)^k c_{n/q^k}, as the integer pair
    (x, y) of x + y sqrt(q): even k add q^(k/2) c to x, odd k add
    -q^((k-1)/2) c to y."""
    x = y = 0
    k, m = 0, n
    while True:
        cm = c[(m - 1) % len(c)]
        if k % 2 == 0:
            x += q ** (k // 2) * cm
        else:
            y -= q ** (k // 2) * cm
        if m % q:
            return x, y
        k, m = k + 1, m // q


@pytest.mark.parametrize("q,parity", [(5, 0), (8, 0), (12, 0), (13, 0), (7, 1), (11, 1), (19, 1)])
def test_division_matches_the_closed_form(q, parity):
    c = chi_period(q, parity)
    x, y = divide_by_trivial_factor(c, q)
    assert len(x) == len(y) == 10**4
    for n in range(1, 10**4 + 1):
        assert (x[n - 1], y[n - 1]) == closed_form_quotient(c, q, n), n
    assert convolution_roundtrip(c, q, x, y)


def _coefficient_strs(c, q, n_max, ns):
    x, y = divide_by_trivial_factor(c, q, n_max)
    return [deformation._coefficient_str(x[n - 1], y[n - 1], q) for n in ns]


def test_division_first_coefficients():
    x, y = divide_by_trivial_factor(CHI5_PERIOD, 5, n_max=1000)
    assert type(x) is type(y) is tuple and len(x) == 1000
    want = [(1, 0), (-1, 0), (-1, 0), (1, 0), (0, -1), (1, 0), (-1, 0), (-1, 0), (1, 0), (0, 1)]
    assert list(zip(x, y))[:10] == want
    # powers of 5 accumulate sqrt(5) factors: b_25 = 5, b_125 = -5 sqrt(5)
    assert (x[24], y[24]) == (5, 0)
    assert (x[124], y[124]) == (0, -5)
    assert (x[249], y[249]) == (0, 5)
    assert _coefficient_strs(CHI5_PERIOD, 5, 1000, (1, 2, 5, 10, 25, 125)) == [
        "1", "-1", "-1*sqrt(5)", "sqrt(5)", "5", "-5*sqrt(5)",
    ]
    # both parts: b_5 = 1 - sqrt 5, b_25 = 6 - sqrt 5, b_125 = 6 - 6 sqrt 5
    assert _coefficient_strs([1], 5, 125, (5, 25, 125)) == ["1-sqrt(5)", "6-sqrt(5)", "6-6*sqrt(5)"]
    assert _coefficient_strs([-1], 5, 5, (5,)) == ["-1+sqrt(5)"]
    assert _coefficient_strs([-1], 5, 25, (25,)) == ["-6+sqrt(5)"]


def test_division_roundtrip_is_exact():
    x, y = divide_by_trivial_factor(CHI5_PERIOD, 5)
    assert len(x) == 10**4
    assert convolution_roundtrip(CHI5_PERIOD, 5, x, y)


def test_roundtrip_detects_corruption():
    x, y = divide_by_trivial_factor(CHI5_PERIOD, 5, n_max=100)
    assert convolution_roundtrip(CHI5_PERIOD, 5, x, y)
    assert not convolution_roundtrip(CHI5_PERIOD, 5, x[:49] + (2,) + x[50:], y)
    # b_10 = sqrt(5): a wrong sqrt(5) part fails the check too
    assert not convolution_roundtrip(CHI5_PERIOD, 5, x, y[:9] + (2,) + y[10:])
    assert not convolution_roundtrip([1, -1, -1, 1, 1], 5, x, y)
    # away from the multiples of 5, x is the period and y is 0: b_7 = c_2 = -1
    # and b_3 = c_3 = -1 exactly
    assert not convolution_roundtrip(CHI5_PERIOD, 5, x[:6] + (0,) + x[7:], y)
    assert not convolution_roundtrip(CHI5_PERIOD, 5, x, y[:2] + (1,) + y[3:])


def test_division_rejects_bad_arguments():
    with pytest.raises(DomainError):
        divide_by_trivial_factor(CHI5_PERIOD, 1, n_max=10)
    with pytest.raises(DomainError):
        divide_by_trivial_factor(CHI5_PERIOD, 5, n_max=0)
    with pytest.raises(DomainError):
        divide_by_trivial_factor([], 5, n_max=10)


def test_partial_sums_of_divided_stream_grow():
    # the periodic source has bounded partial sums; the divided stream grows
    # like sqrt(N), so the division moved the abscissa of convergence
    x, y = divide_by_trivial_factor(CHI5_PERIOD, 5)
    peaks = dict(deformation._partial_sum_peaks([u + v * math.sqrt(5) for u, v in zip(x, y)]))
    assert set(peaks) == {10, 100, 1000, 10000}
    assert peaks[100] > 2.0 * peaks[10]
    assert peaks[10000] > 2.0 * peaks[1000]
    assert 8.0 < peaks[10000] / peaks[100] < 16.0  # measured 12.2, sqrt(100) nominal


def _reference_divided_sum(x, y, q, s):
    """The divided series at s as the coefficient stream once summed it:
    floats b_n = x_n + y_n sqrt(q), n from n_max down, zeros skipped."""
    root = math.sqrt(q)
    b = tuple(u + v * root for u, v in zip(x, y))
    total = 0.0 + 0.0j
    for n in range(len(x), 0, -1):
        if x[n - 1] or y[n - 1]:
            total += b[n - 1] * n ** (-s)
    return total


@pytest.mark.parametrize("q,parity", [(5, 0), (7, 1), (8, 0), (11, 1), (13, 0)])
def test_division_summary_sums_the_series_in_its_old_order(q, parity):
    # the report's halfplane_diff keeps every bit it had when a record class
    # carried the floats and their sum
    chi = cataloged_chi(q, parity)
    f1 = dirichlet_l_spec(chi)
    div = deformation._division_summary(chi, f1)
    x, y = divide_by_trivial_factor(chi_period(q, parity), q)
    s = 2.5 + 0.0j
    want = abs(_reference_divided_sum(x, y, q, s) - f1(s) / deformation.trivial_factor(s, q))
    assert div["halfplane_diff"].hex() == want.hex()
    assert div["halfplane_diff"] < 1e-6
    assert div["roundtrip_exact"] is True


# ------------------------------------------------------------- claim reports

def test_report_top_level_shape(report5):
    assert set(report5) == {
        "q",
        "chi_label",
        "parity",
        "family",
        "fe",
        "fe_residuals",
        "on_line",
        "pairing",
        "watch",
        "division",
        "gauss_sum_collisions",
        "claims",
        "flags",
    }
    assert report5["q"] == 5
    assert report5["chi_label"] == catalog_modulus(5, 0)[0].character.label
    assert report5["parity"] == 0
    assert report5["fe"] == {"modulus": 5, "kappa": 0, "epsilon": [1.0, 0.0]}
    assert report5["family"]["f0"] == "scaled_zeta(q=5)"
    assert report5["family"]["degenerate"] is False


def test_report_verdicts(report5):
    assert report5["claims"] == {
        "shared_fe": "PASS",
        "all_zeros_on_line": "PASS",
        "all_trajectories_complete": "FAIL",
        "count_gap_at_most_one": "PASS",
        "preserved_trivial_zeros": "FAIL",
    }
    assert report5["flags"] == ["lost_trajectories"]


def test_report_equation_residuals(report5):
    fe = report5["fe_residuals"]
    assert fe["f0"] < 1e-8
    assert fe["f1"] < 1e-8
    assert set(fe["phi"]) == {"0", "0.25", "0.5", "0.75", "1"}
    assert max(fe["phi"].values()) < 1e-8


def test_report_computes_each_residual_once(monkeypatch):
    # one sweep over the five grid members, on the standard grid whatever
    # t_max is; the endpoint residuals are the tau = 0 and tau = 1 members'
    sweeps = []
    sweep = funceq.residual_sweep

    def counted(fs, fe, **kwargs):
        sweeps.append((tuple(f.name for f in fs), kwargs))
        return sweep(fs, fe, **kwargs)

    monkeypatch.setattr(funceq, "residual_sweep", counted)
    rep = run_claim_report(5, t_max=12.5)
    names = ("scaled_zeta(q=5)", "phi(tau=0.25)", "phi(tau=0.5)", "phi(tau=0.75)", "L(chi 5.2)")
    assert sweeps == [(names, {})]
    fe = rep["fe_residuals"]
    assert (fe["f0"], fe["f1"]) == (fe["phi"]["0"], fe["phi"]["1"])
    fam = standard_family(5)
    assert fe["f0"] == max_residual(fam.f0, fam.shared_fe)
    assert fe["phi"]["0.5"] == max_residual(fam.member(0.5), fam.shared_fe)


def test_report_computes_w_once_per_grid_point(monkeypatch):
    # W depends on s and the equation alone: one per point of the 20 x 20
    # grid serves all five members (2,000 when each member swept alone), and
    # the grid is mirror-closed, so the 10 columns below 1/2 take W from
    # their mirrors (400 when every point computed its own)
    counts = _count_calls(monkeypatch, funceq, "w_factor")
    run_claim_report(5)
    assert counts["w_factor"] == 200


def test_report_counts_each_members_box_once(monkeypatch):
    # the on-line verdicts are the five box counts' own; at tau 0 and 0.25
    # the off-line q = 7 pair fails them and nothing localizes it here
    calls = []
    count = zerofind.count_zeros_box

    def counted(f, rect, step=0.05):
        calls.append(f.name)
        return count(f, rect, step)

    monkeypatch.setattr(zerofind, "count_zeros_box", counted)
    monkeypatch.setattr(deformation, "count_zeros_box", counted)
    rep = run_claim_report(7, 1, 40.0)
    assert len(calls) == 5
    fail = {"line_count": 16, "verdict": "FAIL", "winding_count": 18}
    ok = {"line_count": 18, "verdict": "PASS", "winding_count": 18}
    assert rep["on_line"] == {"0": fail, "0.25": fail, "0.5": ok, "0.75": ok, "1": ok}


def test_report_on_line_counts(report5):
    on = report5["on_line"]
    assert set(on) == {"0", "0.25", "0.5", "0.75", "1"}
    for v in on.values():
        assert v["verdict"] == "PASS"
        assert v["winding_count"] == v["line_count"]
    assert on["0"]["winding_count"] == 11
    assert on["1"]["winding_count"] == 11


def test_report_records_the_departure(report5):
    pairing = report5["pairing"]
    assert pairing["n0"] == 12
    assert pairing["n1"] == 11
    assert pairing["count_gap"] == 1
    assert pairing["completed"] == 10
    assert pairing["merged"] == 0
    assert pairing["lost"] == 1
    (det,) = pairing["lost_detail"]
    assert abs(det["start_t"] - math.pi / math.log(5)) < 1e-6
    assert abs(det["last_tau"] - 0.926485681) < 1e-6  # v0 / (v0 - v1) at s = 1/2
    assert det["last_t"] < 1e-2
    assert pairing["reversals"] == [0] * 11


def test_report_watch_values_refute_preservation(report5):
    watch = report5["watch"]
    assert len(watch["ordinates"]) == 8
    assert abs(watch["ordinates"][0] - math.pi / math.log(5)) < 1e-12
    assert watch["preserved_zeros_verdict"] == "FAIL"
    # closest approach is 1.3e-3 at the fifth ordinate: near, but no zero
    assert all(v > 1e-4 for v in watch["abs_f1"])
    assert min(watch["abs_f1"]) < 2e-3
    assert watch["abs_f1"].index(min(watch["abs_f1"])) == 4


def test_report_division_section(report5):
    div = report5["division"]
    assert div["roundtrip_exact"] is True
    assert div["b_first_10"] == [
        "1", "-1", "-1", "1", "-1*sqrt(5)", "1", "-1", "-1", "1", "sqrt(5)",
    ]
    assert div["halfplane_diff"] < 1e-6


def test_report_lists_no_interior_extrema_of_r(report5):
    assert report5["pairing"]["r_extrema"] == []


def test_report_degenerate_family():
    rep = run_claim_report(3, 1, t_max=20.0)
    assert rep["chi_label"] == catalog_modulus(3, 1)[0].character.label
    assert rep["family"]["degenerate"] is True
    assert rep["flags"] == ["degenerate_family"]
    assert rep["claims"]["all_trajectories_complete"] == "PASS"
    assert rep["claims"]["count_gap_at_most_one"] == "PASS"
    assert rep["pairing"]["n0"] == rep["pairing"]["n1"] == 5
    assert rep["pairing"]["lost"] == 0


def test_report_departure_matches_closed_form_for_q8():
    fam = standard_family(8)
    v0 = fam.f0(0.5 + 0.0j).real
    v1 = fam.f1(0.5 + 0.0j).real
    rep = run_claim_report(8)
    assert rep["chi_label"] == catalog_modulus(8, 0)[0].character.label
    assert rep["pairing"]["n0"] == rep["pairing"]["n1"] == 13
    (det,) = rep["pairing"]["lost_detail"]
    assert abs(det["start_t"] - math.pi / math.log(8)) < 1e-6
    assert abs(det["last_tau"] - v0 / (v0 - v1)) < 1e-6
    assert rep["claims"]["count_gap_at_most_one"] == "PASS"
    assert rep["claims"]["all_zeros_on_line"] == "PASS"


def test_report_rejects_bad_inputs():
    with pytest.raises(DomainError):
        run_claim_report(5, 0, t_max=61.0)
    with pytest.raises(DomainError):
        run_claim_report(5, 0, t_max=0.0)
    # no cataloged character: the real character mod 5 is even
    with pytest.raises(DomainError):
        run_claim_report(5, 1)


@pytest.mark.parametrize("step", [0.0, -0.05, math.nan, math.inf])
def test_report_checks_its_step_before_any_evaluation(step, monkeypatch):
    def evaluated(s):
        raise AssertionError(f"a function evaluated at {s}")

    monkeypatch.setattr(analytic, "_tail_factors", evaluated)
    with pytest.raises(DomainError, match="scan step"):
        run_claim_report(5, 0, step=step)
