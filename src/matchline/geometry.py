"""Exact dyadic fixed-point coordinates on the line.

Every coordinate is an integer multiple of 2**-k, stored as (numerator, k).
Comparisons, sums and distances align scales and work on integers, so cost
accounting never rounds.  Floats appear only where numbers leave the exact
layer, i.e. in Monte Carlo aggregates and human-readable reports.

Coord is the API and JSON form of a value; the run path works on the
numerators themselves, as int64 arrays, so numerators must fit a signed
64-bit word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

MAX_COORD_BITS = 62


class CoordOverflowError(OverflowError):
    """A numerator would leave the signed 64-bit range."""


class CoordDomainError(ValueError):
    """Input outside the allowed interval, or an invalid scale."""


@dataclass(frozen=True, slots=True, eq=False)
class Coord:
    """Dyadic rational num / 2**k.

    Binary operations align both operands to the larger of the two scales,
    which is exact, and the result keeps that scale.  Equality and ordering
    compare values, not representations, so Coord(1, 0) == Coord(2, 1).
    """

    num: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise CoordDomainError(f"scale must be non-negative, got {self.k}")
        if self.num.bit_length() > 63:
            raise CoordOverflowError(f"numerator {self.num} does not fit 64 bits")

    def at_scale(self, k: int) -> int:
        """Numerator of this value at the (finer or equal) scale k."""
        if k < self.k:
            raise CoordDomainError(f"cannot rescale from {self.k} down to {k}")
        return self.num << (k - self.k)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.k)

    def normalized(self) -> "Coord":
        """Equivalent Coord with the smallest scale (0 for zero)."""
        num, k = self.num, self.k
        if num == 0:
            return Coord(0, 0)
        shift = min(k, (num & -num).bit_length() - 1)
        return Coord(num >> shift, k - shift)

    def _aligned(self, other: "Coord") -> tuple[int, int, int]:
        k = self.k if self.k >= other.k else other.k
        return self.at_scale(k), other.at_scale(k), k

    def __add__(self, other: "Coord") -> "Coord":
        if not isinstance(other, Coord):
            return NotImplemented
        a, b, k = self._aligned(other)
        return Coord(a + b, k)

    def __sub__(self, other: "Coord") -> "Coord":
        if not isinstance(other, Coord):
            return NotImplemented
        a, b, k = self._aligned(other)
        return Coord(a - b, k)

    def __neg__(self) -> "Coord":
        return Coord(-self.num, self.k)

    def __abs__(self) -> "Coord":
        return Coord(abs(self.num), self.k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coord):
            return NotImplemented
        a, b, _ = self._aligned(other)
        return a == b

    def __hash__(self) -> int:
        norm = self.normalized()
        return hash((norm.num, norm.k))

    def __lt__(self, other: "Coord") -> bool:
        a, b, _ = self._aligned(other)
        return a < b

    def __le__(self, other: "Coord") -> bool:
        a, b, _ = self._aligned(other)
        return a <= b

    def __gt__(self, other: "Coord") -> bool:
        return not self <= other

    def __ge__(self, other: "Coord") -> bool:
        return not self < other

    def to_json(self) -> dict:
        return {"num": self.num, "k": self.k}

    def __repr__(self) -> str:
        return f"Coord({self.num}, {self.k})"


def coord_from_integer(j: int, k: int) -> Coord:
    """Embed the non-negative integer j on the scale-k grid, exactly."""
    if j < 0:
        raise CoordDomainError(f"expected a non-negative integer, got {j}")
    if k + j.bit_length() > MAX_COORD_BITS:
        raise CoordOverflowError(f"{j} at scale {k} exceeds {MAX_COORD_BITS} bits")
    return Coord(j << k, k)


def common_scale(*groups: Iterable[Coord]) -> int:
    k = 0
    for group in groups:
        for c in group:
            if c.k > k:
                k = c.k
    return k

