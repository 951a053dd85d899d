"""Dirichlet characters mod q with exact root-of-unity bookkeeping.

Characters are enumerated through the CRT decomposition of (Z/q)* using the
smallest primitive root of each odd prime-power component (and <-1, 5> for
2^e, e >= 3).  A character is labeled by the lexicographic rank of its
exponent vector on that generator set, so label 0 is always the principal
character and the ordering is reproducible run to run.  One generator builds
them, restricted per component where a caller keeps only some (the catalog
builds only the real characters).

Values are carried both as complex doubles and as exact exponents k with
chi(n) = exp(2*pi*i*k/D), D the exponent of the group.  Parity, conductor,
primitivity, realness and catalog membership are decided on the exact
exponents and on integers; only Gauss sums and root numbers are floating
point.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from collections.abc import Iterator

from .errors import DomainError

TWO_PI = 2.0 * math.pi


def _cis_exact(m: int, d: int) -> complex:
    """exp(2*pi*i*m/d), exact at quarter turns so real characters are exactly +-1."""
    num = 4 * m
    if num % d == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[(num // d) % 4]
    return cmath.exp(1j * TWO_PI * m / d)


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _prime_factors(n: int) -> list[int]:
    return [p for p, _ in _factorize(n)]


def _smallest_primitive_root(p: int, e: int) -> int:
    """Smallest primitive root mod p^e for odd prime p."""
    phi_p = p - 1
    qs = _prime_factors(phi_p)
    g = 0
    for cand in range(2, p):
        if all(pow(cand, phi_p // f, p) != 1 for f in qs):
            g = cand
            break
    if e == 1:
        return g
    # g generates mod p^e unless g^(p-1) == 1 mod p^2, in which case g+p does
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _crt_lift(v: int, pk: int, q: int) -> int:
    """x with x = v mod pk, x = 1 mod q/pk."""
    m = q // pk
    if m == 1:
        return v % q
    inv = pow(m, -1, pk)
    return (v * m * inv + pk * pow(pk, -1, m)) % q


def _unit_group(q: int) -> list[tuple[int, int]]:
    """(generator mod q, order) pairs for the CRT components of (Z/q)*."""
    comps: list[tuple[int, int]] = []
    for p, e in _factorize(q):
        pk = p**e
        if p == 2:
            if e == 2:
                comps.append((_crt_lift(3, 4, q), 2))
            elif e >= 3:
                comps.append((_crt_lift(pk - 1, pk, q), 2))
                comps.append((_crt_lift(5, pk, q), pk // 4))
            # e == 1: trivial component
        else:
            g = _smallest_primitive_root(p, e)
            comps.append((_crt_lift(g, pk, q), pk // p * (p - 1)))
    return comps


class DirichletCharacter(namedtuple(
    "DirichletCharacter", "modulus label values exponents order"
)):
    """A character mod q: complex values plus exact exponents of order `order`.

    modulus, label and order are ints.  values (tuple[complex, ...]) has
    values[n] = chi(n mod q); exponents (tuple[int | None, ...]) has
    exponents[n] the k with chi(n) = exp(2*pi*i*k/order), or None when
    gcd(n, q) > 1.
    """

    __slots__ = ()

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    def __repr__(self) -> str:  # keep reprs short in failure output
        return f"chi({self.modulus}.{self.label})"


class CharacterClassification(namedtuple(
    "CharacterClassification", "parity conductor is_primitive is_real is_principal"
)):
    """parity (int) is 0 if chi(-1) = 1 and 1 if chi(-1) = -1; conductor is
    an int; is_primitive, is_real and is_principal are bools."""

    __slots__ = ()


def enumerate_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) characters mod q, principal first, exponent-lexicographic."""
    return tuple(_characters(q, range))


def _characters(q: int, choices) -> Iterator[DirichletCharacter]:
    """The characters mod q whose exponent on each CRT component of order d
    lies in choices(d), in label order; a label is the mixed-radix rank of
    the whole exponent vector, so it does not depend on choices."""
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    comps = _unit_group(q)
    orders = [d for _, d in comps]
    # discrete logs: exponent tuple -> residue, built by direct enumeration
    dlog: dict[int, tuple[int, ...]] = {}
    for exps in itertools.product(*(range(d) for d in orders)):
        n = 1 % q
        for (g, _), e in zip(comps, exps):
            n = n * pow(g, e, q) % q
        dlog[n] = exps

    big_d = 1
    for d in orders:
        big_d = big_d * d // math.gcd(big_d, d)
    weights = [big_d // d for d in orders]

    for ks in itertools.product(*(choices(d) for d in orders)):
        label = 0
        for k, d in zip(ks, orders):
            label = label * d + k
        exp_row: list[int | None] = [None] * q
        val_row: list[complex] = [0.0 + 0.0j] * q
        for n, es in dlog.items():
            m = 0
            for k, w, e in zip(ks, weights, es):
                m += k * w * e
            m %= big_d
            exp_row[n] = m
            val_row[n] = _cis_exact(m, big_d)
        yield DirichletCharacter(q, label, tuple(val_row), tuple(exp_row), big_d)


def classify(chi: DirichletCharacter) -> CharacterClassification:
    """Parity, conductor, primitivity, realness and principality, decided
    exactly; the one test of each (dirichlet_l_spec takes its pole from
    is_principal)."""
    q = chi.modulus
    d_ord = chi.order
    units = [n for n in range(q) if chi.exponents[n] is not None]

    parity = 0 if chi.exponents[q - 1] == 0 else 1
    is_real = all(2 * chi.exponents[n] % d_ord == 0 for n in units)
    is_principal = all(chi.exponents[n] == 0 for n in units)

    conductor = q
    for d in _divisors(q):
        # chi is induced from modulus d iff chi(n) = 1 whenever n = 1 mod d, gcd(n, q) = 1
        if all(chi.exponents[n] == 0 for n in units if n % d == 1 % d):
            conductor = d
            break
    return CharacterClassification(parity, conductor, conductor == q, is_real, is_principal)


def _divisors(q: int) -> list[int]:
    out = [1]
    for p, e in _factorize(q):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def gauss_sum(chi: DirichletCharacter) -> complex:
    """sum_{k=1}^{q} chi(k) exp(2*pi*i*k/q)."""
    return _gauss_sum(chi.values, chi.modulus)


def _gauss_sum(values: list[complex] | tuple[complex, ...], q: int) -> complex:
    return sum(values[k % q] * cmath.exp(1j * TWO_PI * k / q) for k in range(1, q + 1))


def root_number(chi: DirichletCharacter) -> complex:
    """The root number epsilon = tau(chi*) / (i^kappa sqrt(f)) of L(s, chi*),
    chi* the primitive character mod the conductor f that induces chi.

    chi*(k) is chi(m) for any m = k mod f with gcd(m, q) = 1, and 0 where
    gcd(k, f) > 1; every unit k mod f lifts to such an m.  So an induced chi
    carries the root number of its inducing character, which has unit
    modulus, while tau(chi) / sqrt(q) is smaller by sqrt(f / q)."""
    cls = classify(chi)
    f = cls.conductor
    lifted = [0j] * f
    for m, e in enumerate(chi.exponents):
        if e is not None:
            lifted[m % f] = chi.values[m]
    return _gauss_sum(lifted, f) / (1j**cls.parity * math.sqrt(f))


# two Gauss sums closer than this coincide
_COLLISION_TOL = 1e-9


def gauss_sum_collisions(q: int) -> list[tuple[int, int]]:
    """Label pairs of distinct characters mod q whose Gauss sums coincide.

    The construction of distinct functional equations leans on these being
    distinct; measured here, not assumed (tau = 0 pairs do occur for induced
    characters).
    """
    chars = enumerate_characters(q)
    taus = [gauss_sum(c) for c in chars]
    out = []
    for i in range(len(chars)):
        for j in range(i + 1, len(chars)):
            if abs(taus[i] - taus[j]) <= _COLLISION_TOL:
                out.append((chars[i].label, chars[j].label))
    return out


class CatalogEntry(namedtuple("CatalogEntry", "q character classification epsilon")):
    """A catalog row: modulus q (int), its DirichletCharacter character, the
    character's CharacterClassification, and epsilon (complex), the
    root_number of the character, that of its inducing character."""

    __slots__ = ()


def catalog_self_dual(q_max: int, parity: int) -> list[CatalogEntry]:
    """Real non-principal characters of the given parity whose Gauss sum does
    not vanish, for every modulus up to q_max, ordered by (q, label).

    Membership is exact.  A real primitive chi* mod f has tau(chi*) =
    i^kappa sqrt(f) (Gauss), so root number 1.  The chi mod q it induces has
    tau(chi) = mu(m) chi*(m) tau(chi*), m = q/f (Montgomery-Vaughan, Thm
    9.10), which vanishes unless m is squarefree and prime to f.  An entry's
    epsilon is root_number's, the measured root number of chi*: 1 up to
    rounding.
    """
    if parity not in (0, 1):
        raise DomainError(f"parity must be 0 or 1, got {parity}")
    if q_max < 1:
        raise DomainError(f"q_max must be >= 1, got {q_max}")
    return [e for q in range(3, q_max + 1) for e in catalog_modulus(q, parity)]


def catalog_modulus(q: int, parity: int) -> list[CatalogEntry]:
    """The catalog_self_dual entries of modulus q alone, in label order; only
    real characters are built."""
    if parity not in (0, 1):
        raise DomainError(f"parity must be 0 or 1, got {parity}")
    out = []
    for chi in _characters(q, lambda d: (0, d // 2)):
        cls = classify(chi)
        m = q // cls.conductor
        if (
            not cls.is_principal
            and cls.parity == parity
            and math.gcd(m, cls.conductor) == 1
            and all(e == 1 for _, e in _factorize(m))
        ):
            out.append(CatalogEntry(q, chi, cls, root_number(chi)))
    return out


def first_complex_character(q: int, parity: int) -> DirichletCharacter | None:
    """First (canonical order) primitive non-real character mod q of the
    given parity; None when the unit group admits none."""
    for chi in _characters(q, range):
        cls = classify(chi)
        if not cls.is_real and cls.is_primitive and cls.parity == parity:
            return chi
    return None
