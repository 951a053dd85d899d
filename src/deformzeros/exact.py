"""Exact arithmetic in the ring Z[sqrt(d)].

Coefficient streams of the series studied here live in Z[sqrt(q)] for a fixed
modulus q; doing the bookkeeping with integer pairs keeps divisions of
Dirichlet series exact instead of drowning them in float noise.  d is stored
as given (no square-free reduction: Z[sqrt(8)] is a subring of Z[sqrt(2)] and
that is all we need).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QuadInt:
    """a + b*sqrt(d) with integer a, b and a fixed non-square d >= 2."""

    a: int
    b: int
    d: int

    def _check(self, other: "QuadInt") -> None:
        if self.d != other.d:
            raise ValueError(f"mixed rings Z[sqrt({self.d})] and Z[sqrt({other.d})]")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.d)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def to_float(self) -> float:
        return self.a + self.b * math.sqrt(self.d)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        if self.a == 0:
            return f"{self.b}*{root}" if self.b != 1 else root
        sign = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        tail = root if mag == 1 else f"{mag}*{root}"
        return f"{self.a}{sign}{tail}"


def sqrt_of(d: int) -> QuadInt:
    return QuadInt(0, 1, d)
