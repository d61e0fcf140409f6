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

A cyclic subgroup is built from the exponents of the powers its
generator walks through, with no product table; ``Subgroup(ring,
elements)`` validates any other element list on its e x e products.
The partition's (e, n) table of r * g_j takes one ``mul_vec`` over the
ring per subgroup generator, and gathers fill the other rows: the row
of g_i * s is the row of s gathered through the row of g_i.  The
generators are read off ``mul_pos``, largest element order first, so a
cyclic group needs one ``mul_vec``.
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

    ``Subgroup(ring, elements)`` validates any element list (JSON,
    explicit and doubled groups) through its e x e product table.
    ``cyclic_subgroup`` needs no such check: it fills the tables from the
    exponents of the powers it walked.
    """

    def __init__(self, ring: Ring, elements: Sequence[int], generator: int | None = None):
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
            if not ring.is_unit(g):
                raise NotAUnitError(f"subgroup element {g} is not a unit")
            j = int(np.argmin(closed[i]))
            raise ValueError(
                f"not closed under multiplication: {g}*{elems[j]} = {int(products[i, j])}"
            )
        inv_pos = np.argmax(mul_pos == one_pos, axis=1)
        self._set_tables(ring, elems, mul_pos, one_pos, inv_pos, generator)

    def _set_tables(self, ring, elements, mul_pos, identity_pos, inv_pos, generator) -> None:
        self.ring = ring
        self.elements = elements
        self.generator = generator
        self.order = len(elements)
        self._pos = {g: i for i, g in enumerate(elements)}
        self.identity_pos = identity_pos
        self.mul_pos = tuple(map(tuple, mul_pos.tolist()))
        self.inv_pos = tuple(inv_pos.tolist())

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
    """The subgroup generated by the powers of a unit b.

    The walk 1, b, b^2, ... back to 1 is the whole group, so it needs no
    closure check: if the i-th smallest power is b^k_i, then
    g_i * g_j = b^((k_i + k_j) mod e) and g_i^-1 = b^(-k_i mod e).
    """
    if not ring.is_unit(b):
        raise NotAUnitError(f"generator {b} is not a unit in {ring!r}")
    one = ring.one()
    powers = [one]
    x = ring._check(b)
    while x != one:  # a unit's powers return to 1 in a finite ring
        powers.append(x)
        x = ring.mul(x, b)
    e = len(powers)
    exps = np.argsort(powers)  # exps[i] = k_i
    pos = np.empty(e, dtype=np.int64)  # exponent -> position
    pos[exps] = np.arange(e)
    mul_pos = pos[(exps[:, None] + exps[None, :]) % e]
    group = Subgroup.__new__(Subgroup)
    group._set_tables(ring, tuple(sorted(powers)), mul_pos, int(pos[0]), pos[-exps % e], b)
    return group


def subgroup_from_elements(ring: Ring, elements: Iterable[int]) -> Subgroup:
    """Validate an explicit element list as a subgroup of the units."""
    return Subgroup(ring, list(elements), generator=None)


def check_unit_difference(ring: Ring, group: Subgroup) -> bool:
    """True when g - 1 is a unit for every g != 1 in the group."""
    one = ring.one()
    for g in group.elements:
        if g == one:
            continue
        if not ring.is_unit(ring.sub(g, one)):
            return False
    return True


def check_plus_one(ring: Ring, group: Subgroup) -> bool:
    """True when g + 1 is a unit for every g in the group."""
    one = ring.one()
    for g in group.elements:
        if not ring.is_unit(ring.add(g, one)):
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


def _largest_order_first(group: Subgroup) -> list[int]:
    """Subgroup positions to try as generators: by descending element order,
    ties ascending, or only the first element whose order is |G|, which
    generates the group alone.  Orders are read off mul_pos by walking
    each element's powers."""
    mul_pos, one, e = group.mul_pos, group.identity_pos, group.order
    orders = []
    for i in range(e):
        k, j = 1, i
        while j != one:
            j = mul_pos[j][i]
            k += 1
        if k == e:
            return [i]
        orders.append(k)
    return sorted(range(e), key=orders.__getitem__, reverse=True)


def _product_rows(ring: Ring, group: Subgroup, index: np.ndarray) -> np.ndarray:
    """The (e, n) table whose row j is r -> r * g_j over the ring's indices.

    The row of g_i * s is the row of s, r -> r * s, gathered through the
    row of g_i, since r * (g_i * s) = (r * g_i) * s.  So one ``mul_vec``
    over the ring per generator s fills the table, and gathers do the
    rest.  Generators are taken largest order first, and only while they
    add rows, so a cyclic group takes one ``mul_vec``.
    """
    mul_pos = group.mul_pos
    products = np.empty((group.order, len(index)), dtype=np.int64)
    products[group.identity_pos] = index
    filled = [False] * group.order
    filled[group.identity_pos] = True
    generators = []  # (position of s, the row r -> r * s)
    for s in _largest_order_first(group):
        if filled[s]:
            continue
        generators.append((s, ring.mul_vec(index, group.elements[s])))
        todo = [i for i, done in enumerate(filled) if done]
        while todo:  # the rows of everything the generators so far reach
            i = todo.pop()
            for t, perm in generators:
                j = mul_pos[i][t]
                if not filled[j]:
                    perm.take(products[i], out=products[j])
                    filled[j] = True
                    todo.append(j)
    return products


class CosetPartition:
    """The partition of a ring into {0} and left cosets of a subgroup.

    Built from the product table P[j, r] = r * g_j, filled by one
    ``mul_vec`` per subgroup generator plus gathers (``_product_rows``):
    column r holds the coset rG, which contains r, so the
    representatives, the smallest-index member of each coset, are the
    columns whose minimum is their own index, and they come out ascending.

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
        index = np.arange(n, dtype=np.int64)
        products = _product_rows(ring, group, index)  # [j, r] = r * g_j
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
