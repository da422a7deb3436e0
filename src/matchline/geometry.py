"""Exact dyadic fixed-point coordinates on the line.

Every coordinate is an integer multiple of 2**-k, stored as (numerator, k).
The run path works on the numerators themselves, as int64 arrays at one
shared scale, so cost accounting never rounds.  Coord is only the API and
JSON form of a value: it validates a (numerator, scale) pair, rescales it
exactly and writes it out; it has no arithmetic.  Floats appear only where
numbers leave the exact layer, i.e. in Monte Carlo aggregates and
human-readable reports.
"""

from __future__ import annotations

from dataclasses import dataclass


class CoordOverflowError(OverflowError):
    """A numerator would leave the signed 64-bit range."""


class CoordDomainError(ValueError):
    """Input outside the allowed interval, or an invalid scale."""


@dataclass(frozen=True, slots=True)
class Coord:
    """Dyadic rational num / 2**k whose numerator fits a signed 64-bit word.

    Equality is the dataclass's field equality, so it compares
    representations: Coord(1, 0) != Coord(2, 1).  Compare values with
    normalized() or at_scale() at a common scale.
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

    def normalized(self) -> "Coord":
        """Equivalent Coord with the smallest scale (0 for zero)."""
        num, k = self.num, self.k
        if num == 0:
            return Coord(0, 0)
        shift = min(k, (num & -num).bit_length() - 1)
        return Coord(num >> shift, k - shift)

    def to_json(self) -> dict:
        return {"num": self.num, "k": self.k}
