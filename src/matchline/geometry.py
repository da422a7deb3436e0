"""Exact dyadic fixed-point coordinates on the line.

Every coordinate is an integer multiple of 2**-k, stored as (numerator, k).
The run path works on the numerators themselves, as int64 arrays at one
shared scale, so cost accounting never rounds.  Coord is only the API form
of a value: it validates a (numerator, scale) pair and rescales it exactly;
it has no arithmetic.  Floats appear only where numbers leave the exact
layer, i.e. in Monte Carlo aggregates and human-readable reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Coord:
    """Dyadic rational num / 2**k whose numerator fits a signed 64-bit word.

    Equality is the dataclass's field equality, so it compares
    representations: (num, k) = (1, 0) differs from (2, 1).  Compare values
    with at_scale() at a common scale.
    """

    num: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"scale must be non-negative, got {self.k}")
        if self.num.bit_length() > 63:
            raise OverflowError(f"numerator {self.num} does not fit 64 bits")

    def at_scale(self, k: int) -> int:
        """Numerator of this value at the (finer or equal) scale k."""
        if k < self.k:
            raise ValueError(f"cannot rescale from {self.k} down to {k}")
        return self.num << (k - self.k)
