"""Multiplicative subgroups and the coset partitions they induce.

A subgroup G of the units of a ring R satisfies the unit-difference
condition when g - 1 is a unit for every g in G other than 1.  Exactly
under that condition the left cosets aG partition the nonzero elements
of R into classes of size |G|, and together with {0} they partition R;
so ``CosetPartition`` checks the partition itself and needs no separate
pass over g - 1 (see its docstring for why).  Each
nonzero element r then factors uniquely as r = a * g with a the
smallest-index member of its coset; we call a the row indicator and g
the column indicator of r.  Everything downstream (the balanced
functions and the codes derived from them) is built on this partition.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConditionNotSatisfiedError,
    DegenerateDoublingError,
    NotAUnitError,
)
from .rings import Ring

__all__ = [
    "Subgroup",
    "CosetPartition",
    "cyclic_subgroup",
    "subgroup_from_elements",
    "doubled_subgroup",
    "check_unit_difference",
    "check_plus_one",
    "coset_partition",
]


class Subgroup:
    """A finite subgroup of the unit group of a ring.

    Elements are stored as a sorted, duplicate-free tuple of ring
    indices.  Position tables (element position -> position) for
    products and inverses are precomputed; group orders at desk scale
    are tiny, so eager tables cost nothing and make the hot paths
    table lookups.
    """

    def __init__(self, ring: Ring, elements: Sequence[int], generator: int | None = None):
        self.ring = ring
        elems = tuple(sorted(set(int(x) for x in elements)))
        if not elems:
            raise ValueError("subgroup cannot be empty")
        one = ring.one()
        if one not in elems:
            raise ValueError("subgroup must contain the multiplicative identity")
        for g in elems:
            ring._check(g)
        e = len(elems)
        ordered = np.asarray(elems, dtype=np.int64)
        products = ring.mul_vec(ordered[:, None], ordered[None, :])  # [i, j] = g_i * g_j
        mul_pos = np.searchsorted(ordered, products)
        closed = ordered[np.minimum(mul_pos, e - 1)] == products
        one_pos = elems.index(one)
        # a closed row is a unit's exactly when it holds the identity: a unit's
        # left multiplication is injective, and a right inverse makes a unit in a finite ring
        good = closed.all(axis=1) & (mul_pos == one_pos).any(axis=1)
        if not good.all():
            i = int(np.argmin(good))
            g = elems[i]
            if ring.try_invert(g) is None:
                raise NotAUnitError(f"subgroup element {g} is not a unit")
            j = int(np.argmin(closed[i]))
            raise ValueError(
                f"not closed under multiplication: {g}*{elems[j]} = {int(products[i, j])}"
            )
        self.elements = elems
        self.generator = generator
        self.order = e
        self._pos = {g: i for i, g in enumerate(elems)}
        self.identity_pos = one_pos
        self.mul_pos = tuple(map(tuple, mul_pos.tolist()))
        self.inv_pos = tuple(np.argmax(mul_pos == one_pos, axis=1).tolist())

    def __contains__(self, x: int) -> bool:
        return x in self._pos

    def position(self, x: int) -> int:
        return self._pos[x]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.ring == other.ring
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.elements))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, elements={list(self.elements)})"

    def to_json(self) -> dict:
        return {"elements": list(self.elements), "generator": self.generator}


def cyclic_subgroup(ring: Ring, b: int) -> Subgroup:
    """The subgroup generated by the powers of a unit b."""
    if ring.try_invert(b) is None:
        raise NotAUnitError(f"generator {b} is not a unit in {ring!r}")
    one = ring.one()
    elems = [one]
    x = b
    while x != one:  # a unit's powers return to 1 in a finite ring
        elems.append(x)
        x = ring.mul(x, b)
    return Subgroup(ring, elems, generator=b)


def subgroup_from_elements(ring: Ring, elements: Iterable[int]) -> Subgroup:
    """Validate an explicit element list as a subgroup of the units."""
    return Subgroup(ring, list(elements), generator=None)


def check_unit_difference(ring: Ring, group: Subgroup) -> bool:
    """True when g - 1 is a unit for every g != 1 in the group."""
    one = ring.one()
    for g in group.elements:
        if g == one:
            continue
        if ring.try_invert(ring.sub(g, one)) is None:
            return False
    return True


def check_plus_one(ring: Ring, group: Subgroup) -> bool:
    """True when g + 1 is a unit for every g in the group."""
    one = ring.one()
    for g in group.elements:
        if ring.try_invert(ring.add(g, one)) is None:
            return False
    return True


def doubled_subgroup(ring: Ring, group: Subgroup) -> Subgroup:
    """The union of G and -G, which doubles the order when -1 is not in G."""
    minus_one = ring.neg(ring.one())
    if minus_one in group:
        raise DegenerateDoublingError(
            f"-1 (index {minus_one}) already lies in the subgroup; doubling is degenerate"
        )
    doubled = list(group.elements) + [ring.neg(g) for g in group.elements]
    return Subgroup(ring, doubled, generator=None)


class CosetPartition:
    """The partition of a ring into {0} and left cosets of a subgroup.

    Built from the product table P[j, r] = r * g_j (``mul_vec``): column
    r holds the coset rG, which contains r, so the representatives, the
    smallest-index member of each coset, are the columns whose minimum is
    their own index, and they come out ascending.

    The partition is checked exactly: the representatives' columns must
    hold every nonzero element once.  That check is the unit-difference
    condition, so no separate test of g - 1 runs first.  If every g - 1
    with g != 1 is a unit, then r * g = r * h with g != h gives
    r * (g h^-1 - 1) * h = 0, so r = 0: a nonzero column holds e distinct
    nonzero elements, and the representatives' columns are the cosets.  If
    some g - 1 is not a unit, then r * (g - 1) = 0 for some r != 0, since
    in a finite ring an element x with r * x != 0 for every r != 0 is a
    unit: r -> r * x is then injective, hence onto, so r * x = 1 for some
    r, and a one-sided inverse is two-sided.  Then r * g = r, the
    coset of r has fewer than e members, and its representative's column
    repeats one; the check fails and raises the unit-difference message.

    Arrays: ``rep_array`` holds the representatives, ascending;
    ``coset_index[r]`` is the number of the coset holding r (0 for r = 0),
    and ``column_positions[r]`` the subgroup position of g in r = rep * g
    (-1 for r = 0).  The indicator arrays ``row_indicators`` and
    ``column_indicators`` (entry 0 is 0 and -1) and the tuples ``reps``
    and ``cosets`` are built from them when first read.
    """

    def __init__(self, ring: Ring, group: Subgroup):
        self.ring = ring
        self.subgroup = group
        n = ring.order
        e = group.order
        elems = np.asarray(group.elements, dtype=np.int64)
        index = np.arange(n, dtype=np.int64)
        products = ring.mul_vec(index[None, :], elems[:, None])  # [j, r] = r * g_j
        reps = np.flatnonzero(products.min(axis=0) == index)  # 0 comes first
        members = products[:, reps[1:]]  # column c: the coset of reps[c + 1]
        del products
        covered = np.zeros(n, dtype=bool)
        covered[members] = True
        if members.size != n - 1 or not covered[1:].all():
            raise ConditionNotSatisfiedError(
                "subgroup fails the unit-difference condition: some g - 1 is not a unit"
            )
        self.rep_array = reps
        self.coset_index = np.zeros(n, dtype=np.int64)
        self.coset_index[members] = np.arange(1, len(reps))
        self.column_positions = np.full(n, -1, dtype=np.int64)
        self.column_positions[members] = np.arange(e)[:, None]
        for arr in (self.rep_array, self.coset_index, self.column_positions):
            arr.flags.writeable = False  # the derived indicators and tuples read them

    @functools.cached_property
    def row_indicators(self) -> np.ndarray:
        return self.rep_array[self.coset_index]

    @functools.cached_property
    def column_indicators(self) -> np.ndarray:
        elems = np.asarray(self.subgroup.elements + (-1,), dtype=np.int64)
        return elems[self.column_positions]  # position -1 reads the appended -1

    @functools.cached_property
    def reps(self) -> tuple[int, ...]:
        """Representatives of all cosets, ascending; 0 first."""
        return tuple(self.rep_array.tolist())

    def _coset_lists(self) -> list[list[int]]:
        by_coset = np.argsort(self.coset_index, kind="stable")  # ascending inside a coset
        return [[0]] + by_coset[1:].reshape(-1, self.subgroup.order).tolist()

    @functools.cached_property
    def cosets(self) -> tuple[tuple[int, ...], ...]:
        """The cosets in representative order, each ascending; (0,) first."""
        return tuple(map(tuple, self._coset_lists()))

    @property
    def nonzero_reps(self) -> tuple[int, ...]:
        """Representatives of the nonzero cosets, ascending."""
        return self.reps[1:]

    def row_indicator(self, r: int) -> int:
        """The representative a of the coset containing nonzero r."""
        if r == 0:
            raise ValueError("indicators are defined for nonzero elements only")
        return int(self.row_indicators[self.ring._check(r)])

    def column_indicator(self, r: int) -> int:
        """The group element g with r = row_indicator(r) * g."""
        if r == 0:
            raise ValueError("indicators are defined for nonzero elements only")
        return int(self.column_indicators[self.ring._check(r)])

    def __repr__(self) -> str:
        return (
            f"CosetPartition(ring={self.ring!r}, subgroup_order={self.subgroup.order}, "
            f"cosets={len(self.rep_array)})"
        )

    def to_json(self) -> dict:
        return {
            "subgroup": self.subgroup.to_json(),
            "cosets": self._coset_lists(),
            "reps": self.rep_array.tolist(),
        }


def coset_partition(ring: Ring, group: Subgroup) -> CosetPartition:
    """Partition the ring by the subgroup, checking the preconditions."""
    return CosetPartition(ring, group)
