"""The coset partitions that multiplicative subgroups induce.

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

The subgroups themselves live in ``groups``, which the domains read
without loading this module; the three names are re-exported here.  The
partition's (e, n) table of r * g_j takes one ``mul_vec`` over the
ring per subgroup generator, and gathers fill the other rows: the row
of g_i * s is the row of s gathered through the row of g_i.  The
generators are read off ``mul_pos``, largest element order first, so a
cyclic group needs one ``mul_vec``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConditionNotSatisfiedError, DegenerateDoublingError
from .groups import Subgroup, _check_table, cyclic_subgroup, subgroup_from_elements
from .rings import Ring, _position_dtype

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


def doubled_subgroup(ring: Ring, group: Subgroup, max_table: int | None = None) -> Subgroup:
    """The union of G and -G, which doubles the order when -1 is not in G."""
    minus_one = ring.neg(ring.one())
    if minus_one in group:
        raise DegenerateDoublingError(
            f"-1 (index {minus_one}) already lies in the subgroup; doubling is degenerate"
        )
    doubled = list(group.elements) + [ring.neg(g) for g in group.elements]
    return Subgroup(ring, doubled, None, max_table)


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
    """The (e, n) table whose row j is r -> r * g_j over the ring's indices,
    in the dtype of the index array.

    The row of g_i * s is the row of s, r -> r * s, gathered through the
    row of g_i, since r * (g_i * s) = (r * g_i) * s.  So one ``mul_vec``
    over the ring per generator s fills the table, and gathers do the
    rest.  Generators are taken largest order first, and only while they
    add rows, so a cyclic group takes one ``mul_vec``.
    """
    mul_pos = group.mul_pos
    products = np.empty((group.order, len(index)), dtype=index.dtype)
    products[group.identity_pos] = index
    filled = [False] * group.order
    filled[group.identity_pos] = True
    generators = []  # (position of s, the row r -> r * s)
    for s in _largest_order_first(group):
        if filled[s]:
            continue
        perm = ring.mul_vec(index, group.elements[s]).astype(index.dtype, copy=False)
        generators.append((s, perm))
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
    ``column_indicators`` (entry 0 is 0 and -1) are built from them when
    first read.  Every array holds positions in the ring, int32 while its
    order is below 2**31.
    """

    def __init__(self, ring: Ring, group: Subgroup):
        self.ring = ring
        self.subgroup = group
        n = ring.order
        e = group.order
        dtype = _position_dtype(n)
        index = np.arange(n, dtype=dtype)
        products = _product_rows(ring, group, index)  # [j, r] = r * g_j
        reps = (products.min(axis=0) == index).nonzero()[0].astype(dtype)  # 0 comes first
        members = products.take(reps[1:], axis=1)  # column c: the coset of reps[c + 1], all nonzero
        del products
        positions = np.full(n, -1, dtype=dtype)
        positions[members] = np.arange(e, dtype=dtype)[:, None]
        if members.size != n - 1 or positions[1:].min() < 0:  # not every nonzero r once
            raise ConditionNotSatisfiedError(
                "subgroup fails the unit-difference condition: some g - 1 is not a unit"
            )
        self.rep_array = reps
        self.coset_index = np.zeros(n, dtype=dtype)
        self.coset_index[members] = np.arange(1, len(reps), dtype=dtype)
        self.column_positions = positions
        for arr in (self.rep_array, self.coset_index, self.column_positions):
            arr.flags.writeable = False  # the derived indicators read them

    @functools.cached_property
    def row_indicators(self) -> np.ndarray:
        return self.rep_array[self.coset_index]

    @functools.cached_property
    def column_indicators(self) -> np.ndarray:
        elems = np.asarray(self.subgroup.elements + (-1,), dtype=np.int64)
        return elems[self.column_positions]  # position -1 reads the appended -1

    def __repr__(self) -> str:
        return (
            f"CosetPartition(ring={self.ring!r}, subgroup_order={self.subgroup.order}, "
            f"cosets={len(self.rep_array)})"
        )

    def to_json(self) -> dict:
        """The subgroup, the cosets in representative order, each ascending
        and (0,) first, and the representatives."""
        by_coset = np.argsort(self.coset_index, kind="stable")  # ascending inside a coset
        return {
            "subgroup": self.subgroup.to_json(),
            "cosets": [[0]] + by_coset[1:].reshape(-1, self.subgroup.order).tolist(),
            "reps": self.rep_array.tolist(),
        }


def coset_partition(ring: Ring, group: Subgroup, max_table: int | None = None) -> CosetPartition:
    """Partition the ring by the subgroup, checking the preconditions.
    Given max_table, a larger e x n product table is refused before it exists."""
    n, e = ring.order, group.order
    _check_table(f"a partition of a ring of order {n} by a subgroup of order {e}", e * n, max_table)
    return CosetPartition(ring, group)
