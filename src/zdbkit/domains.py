"""Finite abelian groups serving as the domain of a balanced function.

Two shapes are used: the additive group of a ring, and the direct
product of a ring's additive group with a multiplicative subgroup.  In
the product shape an element is a pair (ring element, subgroup element)
and its flat index is ring_index * e + group_position, where positions
number the subgroup's elements in ascending index order.  That flat
order is also the codeword coordinate order used throughout.

``op_vec`` and ``inverse_vec`` are the bulk form of the group law.
``difference_counts``, the one kernel behind every certificate, is
built on them and on nothing else.  ``shift_rows`` returns full
translation rows, one permutation of the domain per shift, for callers
that need the shifted tables themselves; it is derived from ``op_vec``
once, for both shapes.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .cosets import Subgroup, subgroup_from_elements
from .rings import Ring, ring_from_json

__all__ = ["AbelianDomain", "RingAdditiveDomain", "RingTimesGroupDomain", "domain_from_json"]

# element pairs combined per group-law call in difference_counts
_PAIR_BLOCK = 1 << 18


def _pair_blocks(start, width):
    """Walk a pair layout in blocks of about _PAIR_BLOCK pairs.

    Entry i pairs with the positions start[i], ..., start[i] + width[i] - 1.
    Yields (lo, hi, partners): the pairs of entries lo..hi-1, in entry
    order, as the partner position of each pair.  An entry with more than
    _PAIR_BLOCK pairs makes a block of its own.
    """
    end = np.cumsum(width)
    begin = end - width  # pairs are numbered consecutively, those of entry i from begin[i]
    lo = 0
    while lo < len(width):
        hi = max(lo + 1, int(np.searchsorted(end, begin[lo] + _PAIR_BLOCK, side="right")))
        shift = np.repeat(start[lo:hi] - begin[lo:hi], width[lo:hi])  # pair number -> partner
        yield lo, hi, shift + np.arange(begin[lo], end[hi - 1])
        lo = hi


class AbelianDomain:
    """Interface shared by both domain shapes."""

    order: int
    identity: int

    def op(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inverse(self, a: int) -> int:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.order)

    def shift_rows(self, deltas: Sequence[int]) -> np.ndarray:
        """Array of shape (len(deltas), order): row i is y -> op(delta_i, y)."""
        d = np.asarray(deltas, dtype=np.int64)
        return self.op_vec(d[:, None], np.arange(self.order, dtype=np.int64)[None, :])

    def difference_counts(self, elements, labels) -> np.ndarray:
        """counts[a] = #{(i, j) : labels[i] == labels[j] and
        op(elements[i], inverse(elements[j])) == a}, for every group element a.

        Only pairs inside one label class are formed, so the cost is the
        sum of squared class sizes rather than the square of their total.
        Repeated elements count once per occurrence.  Every pair (i, i)
        lands on the identity, so counts[identity] >= len(elements).
        """
        labels = np.asarray(labels, dtype=np.int64)
        by_label = np.argsort(labels)
        x = np.asarray(elements, dtype=np.int64)[by_label]
        x_inv = self.inverse_vec(x)
        _, first, size = np.unique(labels[by_label], return_index=True, return_counts=True)
        # sorted position i pairs with the members of its class
        width = np.repeat(size, size)
        counts = np.zeros(self.order, dtype=np.int64)
        for lo, hi, partners in _pair_blocks(np.repeat(first, size), width):
            diffs = self.op_vec(np.repeat(x[lo:hi], width[lo:hi]), x_inv[partners])
            counts += np.bincount(diffs, minlength=self.order)
        return counts

    def to_json(self) -> dict:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class RingAdditiveDomain(AbelianDomain):
    """The additive group (R, +) of a ring."""

    kind = "ring_additive"

    def __init__(self, ring: Ring):
        self.ring = ring
        self.order = ring.order
        self.identity = 0

    def op(self, a: int, b: int) -> int:
        return self.ring.add(a, b)

    def inverse(self, a: int) -> int:
        return self.ring.neg(a)

    # own binding, not only inherited: perfbench/tracer.py wraps each domain class's shift_rows
    shift_rows = AbelianDomain.shift_rows

    def op_vec(self, a, b) -> np.ndarray:
        return self.ring.add_vec(a, b)

    def inverse_vec(self, a) -> np.ndarray:
        return self.ring.neg_vec(a)

    def to_json(self) -> dict:
        return {"kind": self.kind, "ring": self.ring.to_json()}

    def describe(self) -> str:
        return f"additive group of {self.ring!r}"

    def __eq__(self, other) -> bool:
        return isinstance(other, RingAdditiveDomain) and self.ring == other.ring

    def __hash__(self) -> int:
        return hash((self.kind, self.ring))


class RingTimesGroupDomain(AbelianDomain):
    """(R, +) x (G, *) for a multiplicative subgroup G of the units of R.

    Flat element index: ring_index * e + group_position.  The pair form
    (ring index, subgroup element index) is accepted by ``encode`` and
    returned by ``decode``.
    """

    kind = "ring_times_group"

    def __init__(self, ring: Ring, group: Subgroup):
        if group.ring != ring:
            raise ValueError("subgroup belongs to a different ring")
        self.ring = ring
        self.group = group
        self.e = group.order
        self.order = ring.order * self.e
        self.identity = group.identity_pos
        self._mul_pos = np.asarray(group.mul_pos, dtype=np.int64)

    def encode(self, pair: tuple[int, int]) -> int:
        r, g = pair
        return self.ring._check(r) * self.e + self.group.position(g)

    def decode(self, a: int) -> tuple[int, int]:
        r, pos = divmod(a, self.e)
        return r, self.group.elements[pos]

    def op(self, a: int, b: int) -> int:
        ra, pa = divmod(a, self.e)
        rb, pb = divmod(b, self.e)
        return self.ring.add(ra, rb) * self.e + self.group.mul_pos[pa][pb]

    def inverse(self, a: int) -> int:
        r, pos = divmod(a, self.e)
        return self.ring.neg(r) * self.e + self.group.inv_pos[pos]

    # own binding, not only inherited: perfbench/tracer.py wraps each domain class's shift_rows
    shift_rows = AbelianDomain.shift_rows

    def op_vec(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return (
            self.ring.add_vec(a // self.e, b // self.e) * self.e
            + self._mul_pos[a % self.e, b % self.e]
        )

    def inverse_vec(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        inv_pos = np.asarray(self.group.inv_pos, dtype=np.int64)
        return self.ring.neg_vec(a // self.e) * self.e + inv_pos[a % self.e]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "ring": self.ring.to_json(),
            "group": self.group.to_json(),
        }

    def describe(self) -> str:
        return (
            f"additive group of {self.ring!r} times a multiplicative subgroup "
            f"of order {self.e}"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingTimesGroupDomain)
            and self.ring == other.ring
            and self.group == other.group
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.ring, self.group))


def domain_from_json(data: dict) -> AbelianDomain:
    kind = data.get("kind")
    ring = ring_from_json(data["ring"])
    if kind == "ring_additive":
        return RingAdditiveDomain(ring)
    if kind == "ring_times_group":
        group = subgroup_from_elements(ring, data["group"]["elements"])
        gen = data["group"].get("generator")
        if gen is not None:
            group.generator = gen
        return RingTimesGroupDomain(ring, group)
    raise ValueError(f"unknown domain kind {kind!r}")
