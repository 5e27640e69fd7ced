"""Bit-lane planes for fleet-scale batched simulation.

A *plane* holds one Boolean per fleet instance: bit ``i`` of the plane is
the value for lane ``i``.  Evaluating a compiled reaction kernel then
becomes a straight-line sequence of ``&``/``|``/``^`` operations on
planes — SIMD-within-a-register over the whole fleet at once.

A plane is one arbitrary-precision Python int: zero dependencies, and
CPython's big-int bitwise ops run as one C loop over the whole lane
vector.  :class:`IntBackend` holds the lane count and the tiny surface
the simulator needs on top of the native operators (mask/zero planes,
int round-trip, popcount, lane extraction).  Random planes are drawn
through :func:`random.Random.getrandbits`, one draw per plane.

The complement of a plane is always computed as ``plane ^ ones`` (never
``~plane``): it keeps planes non-negative, so popcounts and digests need
no re-masking.
"""

from __future__ import annotations

import random
from typing import List, Optional

__all__ = [
    "IntBackend",
    "LaneCounter",
    "select",
]

Plane = int


def select(cond: Plane, then: Plane, other: Plane) -> Plane:
    """Lane-wise multiplexer: ``then`` where ``cond`` is set, else ``other``.

    ``f ^ ((f ^ t) & c)`` — two XORs and one AND.
    """
    return other ^ ((other ^ then) & cond)


class IntBackend:
    """Planes of ``n`` lanes as Python ints (bit ``i`` = lane ``i``)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("a fleet needs at least one lane")
        self.n = n
        self._ones = (1 << n) - 1

    # -- plane constructors -------------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def ones(self) -> int:
        return self._ones

    def from_int(self, value: int) -> int:
        """Plane whose lane ``i`` is bit ``i`` of ``value``."""
        return value & self._ones

    def to_int(self, plane: int) -> int:
        """Inverse of :meth:`from_int` (the canonical digest form)."""
        return plane & self._ones

    def rand_plane(self, rng: random.Random) -> int:
        """A uniformly random plane (one ``getrandbits`` draw)."""
        return rng.getrandbits(self.n)

    # -- observation --------------------------------------------------------

    def popcount(self, plane: int) -> int:
        return (plane & self._ones).bit_count()

    def is_zero(self, plane: int) -> bool:
        return plane == 0

    def lane_bit(self, plane: int, lane: int) -> int:
        return (plane >> lane) & 1


class LaneCounter:
    """A per-lane event counter held as bit planes (LSB-first ripple carry).

    ``add(plane)`` increments the counter of every lane whose bit is set.
    The carry chain is walked only while the carry plane is non-zero, so
    an increment is O(1) amortized; the counter grows a plane exactly
    when some lane's count crosses a power of two.
    """

    def __init__(self, backend: IntBackend):
        self.backend = backend
        self.planes: List[Plane] = []

    def add(self, plane: Plane) -> None:
        backend = self.backend
        if backend.is_zero(plane):
            return
        carry = plane
        for i, p in enumerate(self.planes):
            self.planes[i] = p ^ carry
            carry = p & carry
            if backend.is_zero(carry):
                return
        self.planes.append(carry)

    def lane(self, lane: int) -> int:
        """The count of one lane."""
        value = 0
        for i, plane in enumerate(self.planes):
            value |= self.backend.lane_bit(plane, lane) << i
        return value

    def total(self) -> int:
        """Sum of all lane counts."""
        return sum(
            self.backend.popcount(plane) << i
            for i, plane in enumerate(self.planes)
        )

    def to_ints(self) -> List[int]:
        """Canonical plane dump (for digests), LSB first."""
        return [self.backend.to_int(plane) for plane in self.planes]

    def lanes(self, count: Optional[int] = None) -> List[int]:
        """Counts of the first ``count`` lanes (all lanes by default)."""
        n = self.backend.n if count is None else count
        ints = self.to_ints()
        return [
            sum(((p >> lane) & 1) << i for i, p in enumerate(ints))
            for lane in range(n)
        ]
