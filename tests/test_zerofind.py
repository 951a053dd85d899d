"""Line scans, trivial ordinates, winding counts, line-vs-box verification."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deformzeros import analytic, zerofind
from deformzeros.analytic import (
    FunctionSpec,
    dirichlet_l_spec,
    scaled_zeta_spec,
    zeta_spec,
)
from deformzeros.characters import classify, enumerate_characters
from deformzeros.cli import zero_csv_lines
from deformzeros.errors import BoundaryZeroError, DomainError, PrecisionError
from deformzeros.funceq import (
    CriticalLineSignal,
    fe_modulus,
    fe_zeta,
)
from deformzeros.zerofind import (
    BISECT_HALF_WIDTH,
    LINE_COUNT_STRIDE,
    LineGrid,
    Rect,
    count_line_zeros,
    count_zeros_box,
    refine_sign_change,
    scan_line_zeros,
    sign_change_count,
    sign_changes,
    trivial_ordinates,
    verdict_of,
    verify_on_line,
)

# classical ordinates, computed independently at 30 digits (siegelz bisection)
ZETA_ZEROS = [14.1347251417346938, 21.0220396387715550, 25.0108575801456888]

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


def _own(f, fe):
    """f declaring fe as the equation it satisfies."""
    return f._replace(natural_fe=fe)


def _own_zeta():
    return _own(zeta_spec(), fe_zeta())


def _own_f0_5():
    return _own(scaled_zeta_spec(5), fe_modulus(5, 0))


def real_chi(q):
    for chi in enumerate_characters(q):
        cls = classify(chi)
        if cls.is_real and not cls.is_principal:
            return chi
    raise AssertionError


# ------------------------------------------------------- trivial ordinates

def test_trivial_ordinates_closed_form():
    got = trivial_ordinates(5, (0.0, 10.0))
    want = [math.pi / math.log(5) * k for k in (1, 3, 5)]
    assert len(got) == 3
    assert all(abs(a - b) < 1e-14 for a, b in zip(got, want))
    assert trivial_ordinates(5, (0.0, 1.0)) == []
    got8 = trivial_ordinates(8, (0.0, 10.0))
    want8 = [math.pi / math.log(8) * k for k in (1, 3, 5)]
    assert all(abs(a - b) < 1e-14 for a, b in zip(got8, want8))
    # negative ranges pick up the mirrored ordinates
    sym = trivial_ordinates(5, (-10.0, 10.0))
    assert len(sym) == 6 and sym == sorted(sym)
    with pytest.raises(DomainError):
        trivial_ordinates(1, (0.0, 10.0))


# ----------------------------------------------------------------- scanning

def test_zeta_scan_finds_the_classical_three():
    recs = scan_line_zeros(_own_zeta(), (1.0, 30.0))
    assert len(recs) == 3
    for rec, want in zip(recs, ZETA_ZEROS):
        assert abs(rec.t - want) < 1e-6
        assert rec.kind == "nontrivial"
        assert rec.half_width <= 1e-9
        assert rec.residual <= 1e-8


def test_scaled_zeta_scan_interleaves_trivial_and_nontrivial():
    recs = scan_line_zeros(_own_f0_5(), (1.0, 30.0))
    assert len(recs) == 11
    assert [r.t for r in recs] == sorted(r.t for r in recs)
    triv = [r for r in recs if r.kind == "trivial_factor"]
    nontriv = [r for r in recs if r.kind == "nontrivial"]
    assert len(triv) == 8 and len(nontriv) == 3
    want = trivial_ordinates(5, (1.0, 30.0))
    assert max(abs(r.t - w) for r, w in zip(triv, want)) < 1e-9
    for rec, w in zip(nontriv, ZETA_ZEROS):
        assert abs(rec.t - w) < 1e-6


def test_dirichlet_scan_matches_independent_oracle():
    f = _own(dirichlet_l_spec(real_chi(5)), fe_modulus(5, 0))
    recs = scan_line_zeros(f, (1.0, 30.0))
    assert len(recs) == len(L5_ZEROS)
    assert max(abs(r.t - w) for r, w in zip(recs, L5_ZEROS)) < 1e-8
    # none of these sit on the q=5 trivial ordinates (nearest miss ~8e-4)
    assert all(r.kind == "nontrivial" for r in recs)


def test_scan_step_stability():
    for f in (_own_zeta(), _own_f0_5()):
        coarse = scan_line_zeros(f, (1.0, 30.0), 0.05)
        fine = scan_line_zeros(f, (1.0, 30.0), 0.025)
        assert len(coarse) == len(fine)
        assert max(abs(a.t - b.t) for a, b in zip(coarse, fine)) <= 1e-9


def test_scan_residual_against_local_scale():
    f = _own_f0_5()
    recs = scan_line_zeros(f, (1.0, 30.0))
    for r in recs:
        scale = max(abs(f(complex(0.5, r.t + dt))) for dt in (-0.5, 0.5))
        assert r.residual <= 1e-8 * max(1.0, scale)


def test_scan_reflection_symmetry_at_zeros():
    # line zeros satisfy f(1 - sigma + it) = f(sigma + it) on sigma = 1/2;
    # assert the reflected evaluation is equally small
    f = _own_f0_5()
    for r in scan_line_zeros(f, (1.0, 10.0)):
        assert abs(f(complex(1.0 - r.sigma, r.t))) <= 1e-8


def test_watched_ordinates_are_unclassified_not_trivial():
    watched = FunctionSpec(
        "watched", scaled_zeta_spec(5).eval_fn, pole=1 + 0j, watch_modulus=5,
        natural_fe=fe_modulus(5, 0),
    )
    recs = scan_line_zeros(watched, (1.0, 10.0))
    kinds = {r.kind for r in recs if min(abs(r.t - w) for w in trivial_ordinates(5, (1.0, 10.0))) < 1e-6}
    assert kinds == {"unclassified"}


def test_scan_input_validation():
    with pytest.raises(DomainError):
        scan_line_zeros(_own_zeta(), (1.0, 30.0), 0.0)
    with pytest.raises(DomainError):
        scan_line_zeros(_own_zeta(), (3.0, 2.0))


@pytest.mark.parametrize("step", [math.nan, math.inf, -0.05])
def test_scan_rejects_non_finite_steps(step):
    with pytest.raises(DomainError):
        scan_line_zeros(_own_zeta(), (1.0, 30.0), step)


@pytest.mark.parametrize("t_range", [(1.0, math.inf), (-math.inf, 30.0), (-math.inf, math.inf)])
def test_line_grid_rejects_non_finite_ends(t_range):
    # an infinite end has no node count: ceil(inf) overflows
    with pytest.raises(DomainError, match="finite"):
        LineGrid(t_range, 0.05)


def test_line_grid_nodes_are_the_closed_form():
    # every line reader (scan, line count, the tracker's table) takes its
    # nodes from LineGrid; on its own range they are the closed form
    rng = random.Random(2024)
    for _ in range(20_000):
        lo = rng.uniform(-60.0, 60.0)
        hi = lo + rng.uniform(1e-3, 10.0)
        step = rng.uniform(1e-3, 0.5)
        n = max(1, math.ceil((hi - lo) / step))
        assert LineGrid((lo, hi), step).nodes(lo, hi) == [lo + (hi - lo) * k / n for k in range(n + 1)]


def test_sign_changes_compare_signs_not_the_product():
    # 1e-200 * -1e-200 underflows to -0.0, which is not < 0
    assert sign_changes([1e-200, -1e-200]) == [0]
    assert sign_changes([-1e-200, 1e-200]) == [0]
    assert sign_changes([5e-324, -5e-324, 5e-324]) == [0, 1]


def test_sign_changes_count_an_exact_zero_once():
    # a zero belongs to the cell it starts; the one before it sees no change
    assert sign_changes([0.0, 1.0, -1.0, 0.0, 0.0, 2.0, -3.0, 0.0]) == [0, 1, 3, 4, 5, 7]
    assert sign_changes([-1.0, 0.0, 1.0]) == [1]
    assert sign_changes([1.0, 0.0, 1.0]) == [1]
    assert sign_changes([-0.0, 2.0]) == [0]
    assert sign_changes([2.0, -0.0]) == [1]
    assert sign_changes([0.0]) == [0]
    assert sign_changes([1.0]) == sign_changes([]) == []


# every sign, exact zeros and both underflowing products among them
_SAMPLE = st.sampled_from([-3.0, -0.5, -1e-200, -0.0, 0.0, 1e-200, 0.5, 3.0])


@settings(max_examples=300, deadline=None)
@given(zs=st.lists(_SAMPLE, min_size=2, max_size=70), extra=st.integers(0, 80))
@example(zs=[1.0, -1.0], extra=0)  # one cell
@example(zs=[0.0, 1.0, 0.0], extra=0)  # two cells, both ends zero
@example(zs=[1.0] * 8 + [-1.0], extra=0)  # one whole coarse cell
@example(zs=[1.0, -1.0] * 6 + [0.0], extra=3)
def test_sign_change_count_stops_at_its_target(zs, extra):
    ts = [float(k) for k in range(len(zs))]
    full = len(sign_changes(zs))
    for target in (full, full + 1 + extra, extra):
        read = []
        got = sign_change_count(lambda t: read.append(t) or zs[int(t)], ts, target)
        assert len(read) == len(set(read))  # no node read twice
        assert min(target, full) <= got <= full
        if target >= full:
            assert got == full
        if target > full:
            assert sorted(read) == ts


def test_sign_change_count_reads_the_coarse_grid_first():
    zs = [math.cos(0.12 * k) for k in range(321)]
    ts = [float(k) for k in range(321)]
    full = len(sign_changes(zs))
    read = []
    assert sign_change_count(lambda t: read.append(t) or zs[int(t)], ts, full) == full == 12
    coarse = ts[::LINE_COUNT_STRIDE]
    assert coarse[-1] == ts[-1] and read[:len(coarse)] == coarse
    # then halvings, the first at the middle of the coarse cell whose ends
    # are nearest a zero (the smallest min |z|, ties by position)
    cells = [(int(a), int(b)) for a, b in zip(coarse, coarse[1:])]
    a, b = min(cells, key=lambda c: (min(abs(zs[c[0]]), abs(zs[c[1]])), c[0]))
    assert read[len(coarse)] == ts[(a + b) // 2]
    assert len(read) < len(ts) // 10


def test_bisection_helper():
    t, hw = refine_sign_change(math.sin, 3.0, 3.5, math.sin(3.0), math.sin(3.5))
    assert abs(t - math.pi) <= hw <= BISECT_HALF_WIDTH
    # an exact zero on the way, or at the left end, ends the search there
    assert refine_sign_change(lambda x: x - 0.5, 0.0, 1.0, -0.5, 0.5) == (0.5, 0.0)
    assert refine_sign_change(lambda x: x, 0.0, 1.0, 0.0, 1.0) == (0.0, 0.0)


def _counted(fn):
    calls = []

    def wrapped(x):
        calls.append(x)
        return fn(x)

    return wrapped, calls


def _bisection_steps(width):
    steps = 0
    while width / 2 > BISECT_HALF_WIDTH:
        width /= 2
        steps += 1
    return steps


def _brackets(t, hw, roots):
    # the returned bracket [t - hw, t + hw], to the rounding of its midpoint
    return any(abs(t - r) <= hw + 1e-15 for r in roots)


_ROOT = st.floats(-2.0, 2.0)
_SIDE = st.floats(1e-3, 1.0)


@settings(max_examples=150, deadline=None)
@given(r=_ROOT, left=_SIDE, right=_SIDE, c1=st.floats(-3.0, 3.0), c2=st.floats(-3.0, 3.0))
def test_refinement_brackets_a_smooth_simple_root(r, left, right, c1, c2):
    fn = lambda x: (x - r) * math.exp(c1 * x + c2 * math.sin(3.0 * x))
    a, b = r - left, r + right
    t, hw = refine_sign_change(fn, a, b, fn(a), fn(b))
    assert hw <= BISECT_HALF_WIDTH
    assert _brackets(t, hw, [r])


@settings(max_examples=150, deadline=None)
@given(r=_ROOT, k=st.floats(0.5, 3.0), u=st.floats(0.01, 0.99), v=st.floats(0.01, 0.99))
def test_refinement_brackets_the_root_of_a_sine(r, k, u, v):
    # the bracket stays inside (r - pi/k, r + pi/k), so r is its only root
    fn = lambda x: math.sin(k * (x - r))
    a, b = r - u * math.pi / k, r + v * math.pi / k
    t, hw = refine_sign_change(fn, a, b, fn(a), fn(b))
    assert hw <= BISECT_HALF_WIDTH
    assert _brackets(t, hw, [r])


_HOSTILE = {
    "step": (lambda r: lambda x: -1.0 if x < r else 1.0, lambda r: [r]),
    "cusp": (lambda r: lambda x: (x - r) * abs(x - r) ** 0.1, lambda r: [r]),
    "cube": (lambda r: lambda x: (x - r) ** 3, lambda r: [r]),
    "ninth": (lambda r: lambda x: (x - r) ** 9, lambda r: [r]),
    # interpolation alone crawls here (~500 evaluations); the budget bisects
    "power_21": (lambda r: lambda x: (1e3 * (x - r)) ** 21, lambda r: [r]),
    "roots_1e-9_apart": (
        lambda r: lambda x: (x - r) * (x - r - 1e-9) * (x - r - 2e-9),
        lambda r: [r, r + 1e-9, r + 2e-9],
    ),
}


@pytest.mark.parametrize("name", sorted(_HOSTILE))
@settings(max_examples=60, deadline=None)
@given(r=_ROOT, offset=st.floats(0.01, 0.99))
def test_refinement_costs_at_most_twice_bisection(name, r, offset):
    make_fn, roots = _HOSTILE[name]
    fn = make_fn(r)
    a, b = r - offset, r - offset + 1.0
    counted, calls = _counted(fn)
    t, hw = refine_sign_change(counted, a, b, fn(a), fn(b))
    assert hw <= BISECT_HALF_WIDTH
    assert _brackets(t, hw, roots(r))
    assert len(calls) <= 2 * _bisection_steps(b - a)


def test_refinement_is_superlinear_on_the_line_signal():
    # the first zeta zero from its scan cell: plain bisection needs 26 steps
    z = CriticalLineSignal(zeta_spec(), fe_zeta())
    counted, calls = _counted(z)
    t, hw = refine_sign_change(counted, 14.1, 14.15, z(14.1), z(14.15))
    assert abs(t - ZETA_ZEROS[0]) <= hw <= BISECT_HALF_WIDTH
    assert _bisection_steps(0.05) == 26
    assert len(calls) <= 8


def test_empty_scan_below_first_zero():
    assert scan_line_zeros(_own_zeta(), (1.0, 13.0)) == []


# ------------------------------------------------------------- box counting

def test_box_count_fixtures():
    assert count_zeros_box(_own_zeta(), Rect(-1, 2, 1, 10)).winding_count == 0
    rep = count_zeros_box(_own_zeta(), Rect(0, 1, 13, 15))
    assert rep.winding_count == 1 and rep.line_count == 1
    rep = count_zeros_box(_own_f0_5(), Rect(0, 1, 1.9, 2.0))
    assert rep.winding_count == 1 and rep.line_count == 1
    assert rep.boundary_min_modulus > 0


def test_box_count_without_fe_leaves_line_count_unset():
    rep = count_zeros_box(zeta_spec(), Rect(0, 1, 13, 15))
    assert rep.winding_count == 1 and rep.line_count is None


def test_line_zeros_need_an_equation():
    # zeta_spec() declares none, so it has no real line signal to scan
    with pytest.raises(DomainError, match="no functional equation"):
        scan_line_zeros(zeta_spec(), (1.0, 30.0))
    with pytest.raises(DomainError, match="no functional equation"):
        count_line_zeros(zeta_spec(), (1.0, 30.0), 0.05, 0)
    with pytest.raises(DomainError, match="no functional equation"):
        verify_on_line(zeta_spec(), Rect(-1, 2, 1, 30))


def test_winding_additivity_for_stacked_boxes():
    w1 = count_zeros_box(_own_zeta(), Rect(-1, 2, 1, 10)).winding_count
    w2 = count_zeros_box(_own_zeta(), Rect(-1, 2, 10, 15)).winding_count
    w = count_zeros_box(_own_zeta(), Rect(-1, 2, 1, 15)).winding_count
    assert w1 + w2 == w == 1


def test_boundary_zero_triggers_perturbed_retry():
    # asymmetric about 1/2, so every attempt winds the whole boundary
    rep = count_zeros_box(_own_zeta(), Rect(0, 2, ZETA_ZEROS[0], 20))
    # the retry expands outward, so the boundary zero lands inside
    assert rep.rectangle.t1 < ZETA_ZEROS[0]
    assert rep.winding_count == rep.line_count == 1
    assert rep.boundary_min_modulus >= 1e-6


def test_zero_on_every_retry_is_a_boundary_zero_error():
    flat = FunctionSpec("flat", lambda s: (0j, 0.0))
    rect = Rect(0, 2, 1, 2)
    with pytest.raises(BoundaryZeroError) as info:
        count_zeros_box(flat, rect)
    assert str(info.value) == f"|flat| < 1e-06 on the contour after 3 perturbed retries of {rect}"
    # the last attempt's edge walk stopped at the corner it started from
    last = rect.expand(3 * zerofind.PERTURB)
    assert str(info.value.__cause__) == f"|flat| < 1e-06 at {complex(last.sigma1, last.t1)}"


def test_pole_inside_contour_rejected():
    with pytest.raises(DomainError):
        count_zeros_box(_own_zeta(), Rect(0, 2, -1, 1))


def test_degenerate_rectangles_rejected():
    with pytest.raises(DomainError):
        Rect(0, 1, 5, 5)
    with pytest.raises(DomainError):
        Rect(1, 0, 1, 2)


@pytest.mark.parametrize("bounds", [
    (-1, 2, 1, math.inf), (-math.inf, 2, 1, 30), (-1, math.inf, 1, 30), (-1, 2, -math.inf, 30),
])
def test_rect_rejects_non_finite_bounds(bounds):
    # no edge walk can sample an infinite edge
    with pytest.raises(DomainError, match="need a finite box"):
        Rect(*bounds)


@pytest.mark.parametrize("box", [Rect(0.6, 2, 1, 30), Rect(-1, 2, 1, 30)], ids=["off_line", "half_path"])
@pytest.mark.parametrize("step", [0.0, -0.05, math.nan, math.inf])
def test_count_checks_its_step_before_any_evaluation(box, step, monkeypatch):
    # a box off the line builds no LineGrid, so the count checks the step
    # itself, before its first contour
    def evaluated(s):
        raise AssertionError(f"f evaluated at {s}")

    monkeypatch.setattr(analytic, "_tail_factors", evaluated)
    with pytest.raises(DomainError, match="scan step"):
        count_zeros_box(_own_zeta(), box, step)


# ------------------------------------------------------ half-contour counts

def _edges_walked(monkeypatch):
    """The list that every later _edge_walk call appends its segment to:
    three segments for the right-half path, four for the whole boundary."""
    edges = []
    walk = zerofind._edge_walk

    def counted(f, sa, sb, v_start, step):
        edges.append((sa, sb))
        return walk(f, sa, sb, v_start, step)

    monkeypatch.setattr(zerofind, "_edge_walk", counted)
    return edges


def _paths_walked(monkeypatch):
    """The list that every later _path call appends its corners to: one
    path per right-half walk or whole boundary."""
    paths = []
    path = zerofind._path

    def counted(f, corners, step):
        paths.append(corners)
        return path(f, corners, step)

    monkeypatch.setattr(zerofind, "_path", counted)
    return paths


def test_half_path_winds_the_right_half_only(monkeypatch):
    edges = _edges_walked(monkeypatch)
    f = _own_zeta()
    rep = count_zeros_box(f, Rect(-1, 2, 1, 30))
    assert rep.winding_count == rep.line_count == 3
    assert len(edges) == 3
    assert min(min(a.real, b.real) for a, b in edges) == 0.5
    # the whole-boundary reference walks four edges to the same count
    del edges[:]
    assert count_zeros_box(f._replace(natural_fe=None), Rect(-1, 2, 1, 30)).winding_count == 3
    assert len(edges) == 4


def test_half_path_retry_keeps_the_box_symmetric(monkeypatch):
    edges = _edges_walked(monkeypatch)
    paths = _paths_walked(monkeypatch)
    f = _own_zeta()
    rep = count_zeros_box(f, Rect(-1, 2, ZETA_ZEROS[0], 20))
    r = rep.rectangle
    assert r == Rect(-1, 2, ZETA_ZEROS[0], 20).expand(zerofind.PERTURB)
    assert r.t1 < ZETA_ZEROS[0] and abs(r.sigma1 + r.sigma2 - 1.0) <= 1e-12
    assert rep.winding_count == rep.line_count == 1
    # one walk an attempt, of 3 edges, none left of 1/2; the boundary zero
    # stops the first attempt at its first point, in its first edge
    assert [p[0].imag for p in paths] == [ZETA_ZEROS[0], r.t1]
    assert [len(p) - 1 for p in paths] == [3, 3]
    assert min(z.real for p in paths for z in p) == 0.5
    assert len(edges) == 1 + 3
    assert min(min(a.real, b.real) for a, b in edges) == 0.5


def test_an_asymmetric_box_walks_two_right_halves(monkeypatch):
    # Rect(0, 2) holds (sym(1) + sym(2)) / 2 zeros, both walks right of 1/2
    edges = _edges_walked(monkeypatch)
    rep = count_zeros_box(_own_zeta(), Rect(0, 2, 13, 15))
    assert rep.winding_count == rep.line_count == 1
    assert len(edges) == 6
    assert min(min(a.real, b.real) for a, b in edges) == 0.5
    assert sorted({max(a.real, b.real) for a, b in edges}) == [1.0, 2.0]


def test_a_box_with_an_edge_on_the_line_counts_its_line_zeros(monkeypatch):
    # the minus walk at 1/2 runs along the line into its zeros; the retry's
    # box reaches past the line, so that walk becomes a plus walk at 1/2 + 1e-4
    paths = _paths_walked(monkeypatch)
    rep = count_zeros_box(_own_zeta(), Rect(0.5, 2, 1, 30))
    assert rep.rectangle == Rect(0.5, 2, 1, 30).expand(zerofind.PERTURB)
    assert rep.winding_count == rep.line_count == 3
    assert [p[1].real for p in paths] == [0.5, 0.5 + zerofind.PERTURB, 2 + zerofind.PERTURB]


def test_an_odd_mirror_sum_is_a_precision_error(monkeypatch):
    # one extra turn on the walk at 1 = m(0) leaves sym(1) + sym(2) odd
    path = zerofind._path

    def one_turn_more(f, corners, step):
        total, min_mod, margins = path(f, corners, step)
        return total + (math.pi if corners[1].real == 1.0 else 0.0), min_mod, margins

    monkeypatch.setattr(zerofind, "_path", one_turn_more)
    with pytest.raises(PrecisionError, match="odd"):
        count_zeros_box(_own_zeta(), Rect(0, 2, 13, 15))
    # a symmetric box's one walk counts twice, so its sum is never odd
    assert count_zeros_box(_own_zeta(), Rect(-1, 2, 13, 15)).winding_count == 1


@pytest.mark.parametrize(
    "case, winding",
    [
        ("t1_zero", 2),
        ("t1_negative", 2),
        ("no_natural_fe", 1),
    ],
)
def test_whole_boundary_only_for_t1_at_most_zero_or_no_equation(case, winding, monkeypatch):
    # real chi mod 7 is odd: no trivial zero on the real-axis edge at t = 0
    own_l7 = _own(dirichlet_l_spec(real_chi(7)), fe_modulus(7, 1))
    f, rect = {
        "t1_zero": (own_l7, Rect(-0.5, 1.5, 0, 10)),
        "t1_negative": (own_l7, Rect(-0.5, 1.5, -10, -1)),
        "no_natural_fe": (zeta_spec(), Rect(-1, 2, 1, 15)),
    }[case]

    def no_half_path(*args):
        raise AssertionError("the half path ran")

    monkeypatch.setattr(zerofind, "theta_q", no_half_path)
    edges = _edges_walked(monkeypatch)
    rep = count_zeros_box(f, rect)
    assert len(edges) == 4
    assert rep.winding_count == winding


# ----------------------------------------------------------------- verdicts

@given(st.lists(st.booleans()))
@example([])  # no parts is PASS, as all([]) is True
def test_verdict_of_fails_on_any_failed_part(parts):
    assert verdict_of(parts) == ("FAIL" if False in parts else "PASS")
    assert verdict_of(iter(parts)) == verdict_of(parts)


@pytest.mark.parametrize("line_count, verdict", [(3, "PASS"), (2, "FAIL"), (None, None)])
def test_box_verdict_compares_line_count_and_winding(line_count, verdict):
    rep = zerofind.BoxCountReport(Rect(-1, 2, 1, 30), 3, line_count, 1.0, None)
    assert rep.verdict == verdict


# ------------------------------------------------------------ verify_on_line

def test_verify_on_line_zeta():
    rep, mismatches = verify_on_line(_own_zeta(), Rect(-1, 2, 1, 30))
    assert rep.verdict == "PASS"
    assert rep.winding_count == rep.line_count == 3
    assert mismatches == ()


def test_verify_on_line_scaled_zeta():
    rep, _ = verify_on_line(_own_f0_5(), Rect(-1, 2, 1, 30))
    assert rep.verdict == "PASS"
    assert rep.winding_count == rep.line_count == 11


def test_counts_never_refine(monkeypatch):
    def refined(*args, **kwargs):
        raise AssertionError("a count refined a zero")

    monkeypatch.setattr(zerofind, "refine_sign_change", refined)
    rep, _ = verify_on_line(_own_f0_5(), Rect(-1, 2, 1, 30))
    assert rep.verdict == "PASS"
    assert rep.winding_count == rep.line_count == 11
    assert count_line_zeros(_own_zeta(), (1.0, 30.0), 0.05, 3) == 3
    with pytest.raises(AssertionError, match="refined"):
        scan_line_zeros(_own_zeta(), (1.0, 30.0))


def test_verify_requires_straddling_rect():
    with pytest.raises(DomainError):
        verify_on_line(_own_zeta(), Rect(0.6, 2, 1, 30))


# -------------------------------------------------------------------- output

def test_zero_csv_shape():
    recs = scan_line_zeros(_own_zeta(), (1.0, 15.0))
    lines = zero_csv_lines(recs)
    assert lines[0] == "# deform-zeros v1"
    assert lines[1] == "t,sigma,kind,residual"
    assert len(lines) == 2 + len(recs)
    assert lines[2].startswith("14.134725141") and ",nontrivial," in lines[2]
