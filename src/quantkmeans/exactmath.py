"""Exact rational arithmetic for quantized-fraction states.

Every protocol decision (event triggers, nearest-centroid assignment,
extrema comparisons, termination tests) is made on integers via
cross-multiplication.  No floating point enters the decision path; floats
exist only as projections for plot data.

A node's state is a ``FractionVector``: integer numerators over one counter
denominator, NOT reduced on construction, so a state such as 12/3 keeps its
counter denominator until ``reduced()`` is called.  Equality is value-based,
so 12/3 == 4/1.  Scalars are the standard library's ``fractions.Fraction``;
``Fraction`` here adds only the ``num/den`` text every artifact uses.
"""

from __future__ import annotations

import fractions
from math import gcd
from typing import Iterable, Sequence


class Fraction(fractions.Fraction):
    """``fractions.Fraction`` written ``num/den``, integers as ``N/1``."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class FractionVector:
    """A d-dimensional rational point: integer numerators over one positive
    integer denominator.  This is the shape of a node's state estimate
    (value-mass vector over counter mass) and of a centroid."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: Iterable[int], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("fraction denominator must be nonzero")
        nums = tuple(nums)
        if den < 0:
            nums = tuple(-v for v in nums)
            den = -den
        self.nums = nums
        self.den = den

    @property
    def dim(self) -> int:
        return len(self.nums)

    def components(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    def reduced(self) -> "FractionVector":
        g = gcd(self.den, *self.nums)
        if g <= 1:
            return self
        return FractionVector(tuple(v // g for v in self.nums), self.den // g)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FractionVector):
            return NotImplemented
        if len(self.nums) != len(other.nums):
            return False
        a, b = self.den, other.den
        return all(x * b == y * a for x, y in zip(self.nums, other.nums))

    def __hash__(self) -> int:
        r = self.reduced()
        return hash((r.nums, r.den))

    def elementwise_max(self, other: "FractionVector") -> "FractionVector":
        """Per-dimension maximum, in reduced form."""
        return self._elementwise(other, max)

    def elementwise_min(self, other: "FractionVector") -> "FractionVector":
        """Per-dimension minimum, in reduced form."""
        return self._elementwise(other, min)

    def _elementwise(self, other: "FractionVector", pick) -> "FractionVector":
        if len(self.nums) != len(other.nums):
            raise ValueError("dimension mismatch")
        a, b = self.den, other.den
        nums = tuple(pick(x * b, y * a) for x, y in zip(self.nums, other.nums))
        return FractionVector(nums, a * b).reduced()

    def __str__(self) -> str:
        """Each component reduced, ``num/den``, space separated."""
        return " ".join(map(str, self.components()))

    def __repr__(self) -> str:
        return f"FractionVector({self.nums!r}, {self.den})"


def sq_dist_exact(x: Sequence[int], c: FractionVector) -> int:
    """Exact squared Euclidean distance between an integer point and a
    rational point: the integer numerator over ``c.den ** 2``."""
    if len(x) != len(c.nums):
        raise ValueError("dimension mismatch")
    den = c.den
    num = 0
    for xi, ci in zip(x, c.nums):
        diff = xi * den - ci
        num += diff * diff
    return num
