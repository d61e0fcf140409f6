"""Construction of zero-difference balanced functions from coset data.

A function f on a finite abelian group A is zero-difference balanced
when every nonzero shift produces the same number of coincidences:
|{y : f(y + a) = f(y)}| = lambda for all a != 0.  Three constructions
are provided.

``construct_generic`` maps each ring element to its coset in the
partition induced by a subgroup G satisfying the unit-difference
condition, giving parameters (n, (n-1)/e + 1, e-1) with e = |G|.

``construct_product`` works on (R, +) x (G, *) with a second subgroup H
of order |G| - 1 that also satisfies the unit-difference condition.
Its image alphabet has four label shapes: a zero label for (0, 1), a
tag for the remaining (0, x), the H-coset representative of r for
(r, 1), and the pair (G-coset representative of r, x * column
indicator of r) otherwise.  Parameters: (en, (en-1)/(e-1) + 1, e-2).

``construct_doubled`` replaces G by G union -G (requires g + 1 to be a
unit for every g in G, and -1 outside G) and delegates to the generic
construction, giving (n, (n-1)/(2e) + 1, 2e-1).

Symbols are dense integers starting at 0; the label behind each symbol
is retained in the provenance block for diagnostics, as a
``SymbolLabels`` sequence over the partition's arrays that writes the
label dicts only in ``to_json``.  A fixed symbol order makes every
construction byte-deterministic.  Each construction returns a
``ZdbFunction``; the class lives in ``function``, which knows nothing of
how a table is built, and this namespace keeps the name.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

from .cosets import Subgroup, check_plus_one, coset_partition, doubled_subgroup
from .domains import RingAdditiveDomain, RingTimesGroupDomain
from .errors import ConditionNotSatisfiedError
from .function import ZdbFunction
from .rings import Ring, _position_dtype

__all__ = ["construct_generic", "construct_product", "construct_doubled"]


class SymbolLabels(Sequence):
    """The provenance labels of a construction's symbols, held as arrays.

    Symbols are numbered segment by segment.  A segment (kind, reps, gs)
    labels one symbol per rep, or one per (rep, g) pair, rep-major, when gs
    is given; reps None labels a single symbol by its kind alone.  Item s
    is the dict {"kind": kind} for such a symbol, with "rep" and then "g"
    added when its segment has them; the dicts are made only when read, and
    ``to_json`` makes the whole list.
    """

    def __init__(self, *segments: tuple[str, np.ndarray | None, np.ndarray | None]):
        self._segments = segments
        sizes = [1 if reps is None else len(reps) * (1 if gs is None else len(gs))
                 for _, reps, gs in segments]
        self._ends = np.cumsum(sizes)

    def __len__(self) -> int:
        return int(self._ends[-1])

    def __getitem__(self, s) -> dict:
        s = operator.index(s)
        if not -len(self) <= s < len(self):
            raise IndexError(f"symbol {s} out of range for {len(self)} symbols")
        s %= len(self)
        i = int(np.searchsorted(self._ends, s, side="right"))
        kind, reps, gs = self._segments[i]
        offset = s - (int(self._ends[i - 1]) if i else 0)
        if reps is not None:
            r, j = divmod(offset, 1 if gs is None else len(gs))
            reps = reps[r : r + 1]
            gs = None if gs is None else gs[j : j + 1]
        return _segment_labels(kind, reps, gs)[0]

    def to_json(self) -> list[dict]:
        out: list[dict] = []
        for segment in self._segments:
            out += _segment_labels(*segment)
        return out


def _segment_labels(kind: str, reps: np.ndarray | None, gs: np.ndarray | None) -> list[dict]:
    """The label dicts of one SymbolLabels segment, rep-major."""
    if reps is None:
        return [{"kind": kind}]
    if gs is None:
        return [{"kind": kind, "rep": rep} for rep in reps.tolist()]
    gs = gs.tolist()
    return [{"kind": kind, "rep": rep, "g": g} for rep in reps.tolist() for g in gs]


def construct_generic(ring: Ring, group: Subgroup) -> ZdbFunction:
    """Coset-indicator function on (R, +) for a unit-difference subgroup."""
    partition = coset_partition(ring, group)  # enforces the unit-difference condition
    n = ring.order
    e = group.order
    # symbol s is the coset of the s-th representative
    return ZdbFunction(
        RingAdditiveDomain(ring),
        q=(n - 1) // e + 1,
        table=partition.coset_index,
        claimed_lambda=e - 1,
        provenance={
            "construction": "generic",
            "group": group.to_json(),
            "symbols": SymbolLabels(("coset", partition.rep_array, None)),
        },
    )


def construct_product(ring: Ring, g_group: Subgroup, h_group: Subgroup) -> ZdbFunction:
    """Four-case function on (R, +) x (G, *) from subgroups of orders e and e-1."""
    e = g_group.order
    if e < 2:
        raise ConditionNotSatisfiedError("the first subgroup must have order at least 2")
    if h_group.order != e - 1:
        raise ConditionNotSatisfiedError(
            f"subgroup orders must differ by one: |G| = {e}, |H| = {h_group.order}"
        )
    pg = coset_partition(ring, g_group)  # each enforces the unit-difference condition
    ph = coset_partition(ring, h_group)
    n = ring.order

    # symbols: 0 zero, 1 zero_pair, then one per nonzero H coset, then
    # e per nonzero G coset, in the order of g_group.elements
    symbols = SymbolLabels(
        ("zero", None, None),
        ("zero_pair", None, None),
        ("h_coset", ph.rep_array[1:], None),
        ("g_coset_pair", pg.rep_array[1:], np.asarray(g_group.elements)),
    )
    q = len(symbols)
    pair_base = 2 + len(ph.rep_array) - 1  # after zero, zero_pair and the H cosets
    expected_q = (e * n - 1) // (e - 1) + 1
    if q != expected_q:
        raise RuntimeError(f"alphabet size {q} != {expected_q}")  # unreachable

    # row r, column pos holds (r, x) with x = g_group.elements[pos]; for r != 0
    # and x != 1 the symbol is the pair (G coset of r, x * column indicator of r),
    # whose subgroup position is mul_pos[pos, column position of r]
    one_pos = g_group.identity_pos
    dtype = _position_dtype(q)  # every symbol is below q
    mul_pos = np.asarray(g_group.mul_pos, dtype=dtype)
    table = np.empty((n, e), dtype=dtype)
    np.take(mul_pos.T, pg.column_positions[1:], axis=0, out=table[1:])
    # every sum in the table's dtype: the partitions hold ring positions, int32
    # while the ring's order is below 2**31, and a symbol can pass that
    offsets = pg.coset_index[1:].astype(dtype)  # G coset c >= 1 starts at pair_base + (c - 1) e
    offsets -= 1
    offsets *= e
    offsets += pair_base
    table[1:] += offsets[:, None]
    np.add(ph.coset_index[1:], 1, out=table[1:, one_pos], dtype=dtype)
    table[0] = 1
    table[0, one_pos] = 0

    return ZdbFunction(
        RingTimesGroupDomain(ring, g_group),
        q=q,
        table=table.ravel(),
        claimed_lambda=e - 2,
        provenance={
            "construction": "product",
            "g_group": g_group.to_json(),
            "h_group": h_group.to_json(),
            "symbols": symbols,
        },
    )


def construct_doubled(ring: Ring, group: Subgroup, max_table: int | None = None) -> ZdbFunction:
    """Generic construction over G union -G; needs g+1 invertible throughout.
    Given max_table, a doubled group with a larger e x e table is refused."""
    if ring.order < 3:
        raise ConditionNotSatisfiedError("doubling needs a ring of order at least 3")
    doubled = doubled_subgroup(ring, group, max_table)  # rejects -1 in G first
    if not check_plus_one(ring, group):
        raise ConditionNotSatisfiedError(
            "subgroup fails the plus-one condition: some g + 1 is not a unit"
        )
    # the partition by G union -G checks g - 1 for every g in G
    fn = construct_generic(ring, doubled)
    fn.provenance = {
        "construction": "doubled",
        "group": group.to_json(),
        "doubled_group": doubled.to_json(),
        "symbols": fn.provenance["symbols"],
    }
    return fn
