"""Character enumeration, classification, Gauss sums, root numbers, catalogs."""

import cmath
import math

import pytest

from deformzeros import characters
from deformzeros.characters import (
    CatalogEntry,
    catalog_modulus,
    catalog_self_dual,
    classify,
    enumerate_characters,
    first_complex_character,
    gauss_sum,
    gauss_sum_collisions,
    root_number,
)
from deformzeros.errors import DomainError

TWO_PI = 2.0 * math.pi


def euler_phi(q):
    return sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)


def brute_force_characters(q):
    """Oracle: all multiplicative maps (Z/q)* -> roots of unity, by exhaustion.

    Values are kept as integer exponents mod D (D = exponent of the group) so
    the multiplicativity check is exact.  Exponential in phi(q); q <= 10 only.
    """
    units = [n for n in range(1, q) if math.gcd(n, q) == 1] or [1 % q]
    orders = {}
    for u in units:
        k, x = 1, u % q
        while x != 1 % q:
            x = x * u % q
            k += 1
        orders[u] = k
    D = 1
    for k in orders.values():
        D = D * k // math.gcd(D, k)

    chars = []
    import itertools

    for assign in itertools.product(*(range(0, D, D // orders[u]) for u in units)):
        f = dict(zip(units, assign))
        if all(f[a * b % q] == (f[a] + f[b]) % D for a in units for b in units):
            chars.append(f)
    return chars, D


def test_enumeration_counts_and_principal_first():
    for q in [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 21, 24, 45]:
        chars = enumerate_characters(q)
        assert len(chars) == euler_phi(q)
        assert classify(chars[0]).is_principal
        assert all(ch.label == i for i, ch in enumerate(chars))


def test_enumeration_deterministic():
    a = enumerate_characters(24)
    b = enumerate_characters(24)
    assert [ch.exponents for ch in a] == [ch.exponents for ch in b]


def test_q1_single_principal():
    (chi,) = enumerate_characters(1)
    assert chi(0) == 1 and chi(7) == 1
    cls = classify(chi)
    assert cls.is_principal and cls.conductor == 1 and cls.parity == 0


def test_q5_has_four_characters_with_known_real_one():
    chars = enumerate_characters(5)
    assert len(chars) == 4
    real_nonprincipal = [c for c in chars if classify(c).is_real and not classify(c).is_principal]
    assert len(real_nonprincipal) == 1
    chi = real_nonprincipal[0]
    got = [chi(n) for n in range(1, 6)]
    assert got == [1, -1, -1, 1, 0]


def test_q8_against_brute_force_oracle():
    oracle, D = brute_force_characters(8)
    assert len(oracle) == 4  # frozen from the oracle
    chars = enumerate_characters(8)
    assert len(chars) == 4
    # oracle says every character mod 8 is real: exponents all 0 or D/2
    assert all(all(2 * e % D == 0 for e in f.values()) for f in oracle)
    reals = [c for c in chars if classify(c).is_real]
    assert len(reals) == 4
    nonprincipal_real = [c for c in reals if not classify(c).is_principal]
    assert len(nonprincipal_real) == 3  # frozen from the oracle (C2 x C2 dual)
    even_primitive = [
        c for c in chars if classify(c).parity == 0 and classify(c).is_primitive
    ]
    assert len(even_primitive) == 1
    assert [even_primitive[0](n) for n in (1, 3, 5, 7)] == [1, -1, -1, 1]
    # value sets agree with the oracle exactly
    oracle_sets = {tuple(sorted(f.items())) for f in oracle}
    ours = set()
    for c in chars:
        scale = D // c.order
        ours.add(tuple(sorted((n, c.exponents[n] * scale) for n in (1, 3, 5, 7))))
    assert ours == oracle_sets


def test_multiplicativity_and_zero_off_units():
    for q in [5, 8, 9, 12, 15]:
        for chi in enumerate_characters(q):
            for m in range(q):
                for n in range(q):
                    lhs = chi(m * n)
                    rhs = chi(m) * chi(n)
                    assert abs(lhs - rhs) < 1e-12
            for n in range(q):
                if math.gcd(n, q) != 1:
                    assert chi(n) == 0


def test_classify_real_even_mod5():
    chi = enumerate_characters(5)[2]
    cls = classify(chi)
    assert cls.parity == 0
    assert cls.conductor == 5
    assert cls.is_primitive and cls.is_real and not cls.is_principal


def test_classify_principal_mod6():
    chi = enumerate_characters(6)[0]
    cls = classify(chi)
    assert cls.is_principal
    assert cls.conductor == 1
    assert not cls.is_primitive


def induced_from(chi, d, q):
    """Oracle: does some character mod d induce chi (agreement on units of q)?"""
    cands, D = brute_force_characters(d)
    scale_chi = None
    for f in cands:
        ok = True
        for n in range(1, q + 1):
            if math.gcd(n, q) != 1:
                continue
            want = chi(n)
            have = cmath.exp(2j * math.pi * f.get(n % d if d > 1 else 1, 0) / D) if (d == 1 or math.gcd(n, d) == 1) else None
            if have is None or abs(want - have) > 1e-9:
                ok = False
                break
        if ok:
            return True
    return False


def test_mod10_real_nonprincipal_conductor_five():
    chars = enumerate_characters(10)
    real_np = [c for c in chars if classify(c).is_real and not classify(c).is_principal]
    assert len(real_np) == 1
    chi = real_np[0]
    cls = classify(chi)
    # oracle: try induction from every divisor of 10
    inducible = [d for d in (1, 2, 5, 10) if induced_from(chi, d, 10)]
    assert min(inducible) == 5
    assert cls.conductor == 5
    assert not cls.is_primitive
    # induced from the real character mod 5: the two agree on every unit mod 10
    real5 = enumerate_characters(5)[2]
    assert [real5(n) for n in range(1, 6)] == [1, -1, -1, 1, 0]
    assert all(chi(n) == real5(n) for n in range(10) if math.gcd(n, 10) == 1)


def test_gauss_sum_real_mod5_is_sqrt5():
    chi = enumerate_characters(5)[2]
    # oracle: the four-term sum written out directly
    direct = sum(
        chi(k) * cmath.exp(2j * math.pi * k / 5) for k in range(1, 6)
    )
    tau = gauss_sum(chi)
    assert abs(tau - direct) < 1e-14
    assert abs(tau - math.sqrt(5)) < 1e-12


def test_gauss_sum_principal_mod_prime_is_minus_one():
    for p in (3, 5, 7, 11):
        tau = gauss_sum(enumerate_characters(p)[0])
        assert abs(tau - (-1)) < 1e-12


def test_gauss_sum_squared_is_parity_times_q_for_real_primitive():
    for q in range(3, 51):
        for chi in enumerate_characters(q):
            cls = classify(chi)
            if cls.is_real and cls.is_primitive and not cls.is_principal:
                tau = gauss_sum(chi)
                want = (1 if cls.parity == 0 else -1) * q
                assert abs(tau * tau - want) < 1e-8 * q


def test_root_number_modulus_one_for_primitive_complex_mod5():
    chi = first_complex_character(5, 1)
    assert abs(abs(root_number(chi)) - 1.0) < 1e-12


def test_root_number_nonprimitive_flagged():
    chi = [c for c in enumerate_characters(10) if classify(c).is_real and not classify(c).is_principal][0]
    # an induced character carries its inducing character's root number,
    # while its direct tau(chi) / sqrt(q) shrinks by sqrt(conductor/q)
    assert root_number(chi) == root_number(enumerate_characters(5)[2])
    assert abs(root_number(chi) - 1.0) < 1e-12
    assert abs(gauss_sum(chi) / math.sqrt(10) - 1 / math.sqrt(2)) < 1e-12


@pytest.mark.parametrize("parity", [0, 1])
def test_imprimitive_entries_carry_their_conductors_root_number(parity):
    entries = catalog_self_dual(200, parity)
    primitive = {e.q: e for e in entries if e.classification.is_primitive}
    induced = {}
    for e in entries:
        if not e.classification.is_primitive:
            prim = primitive[e.classification.conductor]
            assert e.epsilon == prim.epsilon, (e.q, e.character.label)  # bit for bit
            induced[(e.q, e.character.label)] = (prim.q, prim.character.label)
    assert len(induced) == (84, 127)[parity]
    if parity == 0:
        assert induced[(10, 2)] == (5, 2) and induced[(24, 2)] == (8, 1)
        assert induced[(26, 6)] == (13, 6)


def test_real_characters_are_built_alone_with_their_full_labels():
    # the generator restricted to real exponents builds the real characters
    # of the full enumeration, labels and values included
    for q in range(1, 61):
        want = [c for c in enumerate_characters(q) if classify(c).is_real]
        assert list(characters._characters(q, lambda d: (0, d // 2))) == want


@pytest.mark.parametrize("parity", [0, 1])
def test_exact_catalog_rule_matches_the_float_oracle(parity, monkeypatch):
    built = []
    make = characters.DirichletCharacter

    def counted(*args):
        built.append(make(*args))
        return built[-1]

    monkeypatch.setattr(characters, "DirichletCharacter", counted)
    entries = catalog_self_dual(200, parity)
    monkeypatch.undo()
    # only real characters are built, all of them: as many per modulus as
    # square roots of 1 mod q, the 2-torsion of (Z/q)* and of its dual
    assert all(classify(c).is_real for c in built)
    for q in range(3, 201):
        roots = sum(1 for x in range(q) if x * x % q == 1)
        assert len({c.exponents for c in built if c.modulus == q}) == roots, q
    # the exact rule keeps exactly those the direct Gauss sum does not zero
    oracle = [
        (c.modulus, c.label)
        for c in built
        if not classify(c).is_principal
        and classify(c).parity == parity
        and abs(gauss_sum(c)) > 1e-9
    ]
    assert [(e.q, e.character.label) for e in entries] == oracle
    assert all(abs(e.epsilon - 1.0) <= 1e-12 for e in entries)


def test_orthogonality_sum_over_period_vanishes():
    for q in range(2, 51):
        for chi in enumerate_characters(q):
            total = sum(chi(n) for n in range(q))
            if classify(chi).is_principal:
                assert abs(total - euler_phi(q)) < 1e-9
            else:
                assert abs(total) < 1e-9


def test_group_closure_products_are_characters():
    for q in [5, 8, 12, 21, 24, 30, 47, 50]:
        chars = enumerate_characters(q)
        index = {c.exponents: c.label for c in chars}
        for a in chars:
            for b in chars:
                prod = tuple(
                    None if ea is None else (ea + eb) % a.order
                    for ea, eb in zip(a.exponents, b.exponents)
                )
                assert prod in index


def test_catalog_even_up_to_21():
    entries = catalog_self_dual(21, 0)
    assert sorted({e.q for e in entries}) == [5, 8, 10, 12, 13, 15, 17, 21]
    for e in entries:
        assert e.classification.is_real and not e.classification.is_principal
        assert e.classification.parity == 0
        assert abs(e.epsilon - 1.0) <= 1e-9
    flags = {e.q: e.classification.is_primitive for e in entries}
    assert flags[10] is False and flags[15] is False
    assert flags[5] and flags[8] and flags[12] and flags[13] and flags[17] and flags[21]
    conds = {e.q: e.classification.conductor for e in entries}
    assert conds[10] == 5 and conds[15] == 5


def test_catalog_odd_up_to_19():
    entries = catalog_self_dual(19, 1)
    qs = sorted({e.q for e in entries})
    for q in [3, 4, 6, 7, 11, 12, 14, 15, 19]:
        assert q in qs
    for e in entries:
        assert e.classification.parity == 1
        assert abs(e.epsilon - 1.0) <= 1e-9
        assert abs(gauss_sum(e.character)) > 1e-9


def test_catalog_sorted_and_empty_below_q3():
    entries = catalog_self_dual(21, 0)
    assert entries == sorted(entries, key=lambda e: (e.q, e.character.label))
    assert catalog_self_dual(2, 0) == []
    assert catalog_self_dual(2, 1) == []


def test_catalog_rejects_bad_parity():
    with pytest.raises(DomainError):
        catalog_self_dual(10, 2)


def test_enumerate_rejects_bad_modulus():
    # one check in the generator all three share, before any 1 % q
    with pytest.raises(DomainError):
        enumerate_characters(0)
    with pytest.raises(DomainError):
        catalog_modulus(0, 0)
    with pytest.raises(DomainError):
        first_complex_character(0, 1)


def test_gauss_sum_collisions_reported():
    # distinctness of Gauss sums is a construction assumption; measure it
    assert gauss_sum_collisions(5) == []
    assert gauss_sum_collisions(7) == []
    coll = gauss_sum_collisions(12)
    assert (0, 1) in coll  # principal and the conductor-3 induced one share tau = 0


def test_first_complex_character_parities():
    for parity in (0, 1):
        assert first_complex_character(3, parity) is None
        assert first_complex_character(4, parity) is None
    assert first_complex_character(5, 0) is None
    chi5 = first_complex_character(5, 1)
    assert chi5.label == 1 and classify(chi5).parity == 1
    chi7 = first_complex_character(7, parity=1)
    assert chi7 is not None and classify(chi7).parity == 1
