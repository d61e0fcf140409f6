"""Finite subgroups of the unit group of a ring.

A subgroup is held as its sorted element indices with position tables
for products and inverses, ``mul_pos`` and ``inv_pos``; the domains, the
coset partitions and the constructions all read it so.  A cyclic
subgroup is built from the exponents of the powers its generator walks
through, with no product table; ``Subgroup(ring, elements)`` validates
any other element list on its e x e products.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import NotAUnitError, OversizedError
from .rings import Ring

__all__ = ["Subgroup", "cyclic_subgroup", "subgroup_from_elements"]


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
    exponents of the powers it walked.  Given max_table, both refuse a
    subgroup whose e x e table has more entries with OversizedError before
    building it; ``cyclic_subgroup`` stops its walk as soon as the order is
    known to be too large.
    """

    def __init__(
        self,
        ring: Ring,
        elements: Sequence[int],
        generator: int | None = None,
        max_table: int | None = None,
    ):
        elems = tuple(sorted(set(int(x) for x in elements)))
        if not elems:
            raise ValueError("subgroup cannot be empty")
        one = ring.one()
        if one not in elems:
            raise ValueError("subgroup must contain the multiplicative identity")
        for g in elems:
            ring._check(g)
        e = len(elems)
        _check_table(f"a subgroup of order {e}", e * e, max_table)
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


def _check_table(what: str, entries: int, max_table: int | None) -> None:
    if max_table is not None and entries > max_table:
        raise OversizedError(
            f"{what} needs {entries:,} product table entries, over the limit of {max_table:,}"
        )


def cyclic_subgroup(ring: Ring, b: int, max_table: int | None = None) -> Subgroup:
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
        if max_table is not None and x != one and len(powers) ** 2 > max_table:
            # the order is past len(powers): stop before walking all of it
            raise OversizedError(
                f"the subgroup generated by {b} has order over {len(powers):,} and needs over "
                f"{len(powers) ** 2:,} product table entries, over the limit of {max_table:,}"
            )
    e = len(powers)
    _check_table(f"a subgroup of order {e}", e * e, max_table)
    exps = np.array(powers).argsort()  # exps[i] = k_i
    pos = exps.argsort()  # exponent -> position
    mul_pos = pos[(exps[:, None] + exps) % e]
    group = Subgroup.__new__(Subgroup)
    group._set_tables(ring, tuple(sorted(powers)), mul_pos, int(pos[0]), pos[-exps % e], b)
    return group


def subgroup_from_elements(
    ring: Ring, elements: Iterable[int], max_table: int | None = None
) -> Subgroup:
    """Validate an explicit element list as a subgroup of the units."""
    return Subgroup(ring, list(elements), None, max_table)
