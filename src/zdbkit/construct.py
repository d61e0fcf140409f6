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
is retained in the provenance block for diagnostics.  A fixed symbol
order makes every construction byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosets import (
    Subgroup,
    check_plus_one,
    coset_partition,
    doubled_subgroup,
)
from .domains import (
    AbelianDomain,
    RingAdditiveDomain,
    RingTimesGroupDomain,
    domain_from_json,
)
from .errors import ConditionNotSatisfiedError
from .rings import Ring

__all__ = ["ZdbFunction", "construct_generic", "construct_product", "construct_doubled"]


@dataclass(frozen=True)
class Label:
    """Provenance label of one image symbol."""

    kind: str  # zero | zero_pair | h_coset | g_coset_pair | coset
    rep: int | None = None
    g: int | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.rep is not None:
            out["rep"] = self.rep
        if self.g is not None:
            out["g"] = self.g
        return out


class ZdbFunction:
    """A candidate zero-difference balanced function as a lookup table.

    ``table[i]`` is the symbol at domain element index i; q is the size
    of the image alphabet and claimed_lambda the balance level the
    construction promises.  Claims are exactly that: claims.  The
    verification module re-derives them from the table alone.
    """

    def __init__(
        self,
        domain: AbelianDomain,
        q: int,
        table: list[int],
        claimed_lambda: int,
        provenance: dict | None = None,
    ):
        if len(table) != domain.order:
            raise ValueError(
                f"table length {len(table)} does not match domain order {domain.order}"
            )
        if any(not 0 <= s < q for s in table):
            raise ValueError(f"table contains symbols outside range(0, {q})")
        self.domain = domain
        self.q = q
        self.table = list(int(s) for s in table)
        self.claimed_lambda = int(claimed_lambda)
        self.provenance = provenance or {}

    @property
    def n(self) -> int:
        return self.domain.order

    def claimed_parameters(self) -> tuple[int, int, int]:
        return (self.n, self.q, self.claimed_lambda)

    def _flat(self, y) -> int:
        if isinstance(y, tuple):
            if not isinstance(self.domain, RingTimesGroupDomain):
                raise ValueError("pair elements apply to product domains only")
            return self.domain.encode(y)
        return int(y)

    def evaluate(self, y) -> int:
        """Symbol at y; y is a flat index, or a (ring, group) pair on product domains."""
        return self.table[self._flat(y)]

    def shift_evaluate(self, y, delta) -> int:
        """Symbol at y + delta."""
        return self.table[self.domain.op(self._flat(y), self._flat(delta))]

    def to_json(self) -> dict:
        return {
            "domain": self.domain.to_json(),
            "q": self.q,
            "lambda": self.claimed_lambda,
            "table": list(self.table),
            "provenance": self.provenance,
        }

    @staticmethod
    def from_json(data: dict) -> "ZdbFunction":
        return ZdbFunction(
            domain_from_json(data["domain"]),
            data["q"],
            data["table"],
            data["lambda"],
            data.get("provenance") or {},
        )

    def __repr__(self) -> str:
        n, m, lam = self.claimed_parameters()
        return f"ZdbFunction(({n}, {m}, {lam}), domain={self.domain.describe()})"


def construct_generic(ring: Ring, group: Subgroup) -> ZdbFunction:
    """Coset-indicator function on (R, +) for a unit-difference subgroup."""
    partition = coset_partition(ring, group)  # enforces the unit-difference condition
    n = ring.order
    e = group.order
    symbol_of_rep = {0: 0}
    labels = [Label("coset", rep=0)]
    for rep in partition.nonzero_reps:
        symbol_of_rep[rep] = len(labels)
        labels.append(Label("coset", rep=rep))
    table = [0] * n
    for rep, coset in zip(partition.reps, partition.cosets):
        s = symbol_of_rep[rep]
        for r in coset:
            table[r] = s
    fn = ZdbFunction(
        RingAdditiveDomain(ring),
        q=(n - 1) // e + 1,
        table=table,
        claimed_lambda=e - 1,
        provenance={
            "construction": "generic",
            "group": group.to_json(),
            "symbols": [lab.to_json() for lab in labels],
        },
    )
    return fn


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
    one = ring.one()

    labels = [Label("zero"), Label("zero_pair")]
    h_symbol = {}
    for rep in ph.nonzero_reps:
        h_symbol[rep] = len(labels)
        labels.append(Label("h_coset", rep=rep))
    pair_symbol = {}
    for rep in pg.nonzero_reps:
        for g in g_group.elements:
            pair_symbol[(rep, g)] = len(labels)
            labels.append(Label("g_coset_pair", rep=rep, g=g))
    q = len(labels)
    expected_q = (e * n - 1) // (e - 1) + 1
    if q != expected_q:
        raise RuntimeError(f"alphabet size {q} != {expected_q}")  # unreachable

    table = [0] * (n * e)
    for r in range(n):
        if r == 0:
            row = None
        else:
            ri = pg.row_indicator(r)
            ci = pg.column_indicator(r)
        for pos, x in enumerate(g_group.elements):
            flat = r * e + pos
            if r == 0:
                table[flat] = 0 if x == one else 1
            elif x == one:
                table[flat] = h_symbol[ph.row_indicator(r)]
            else:
                table[flat] = pair_symbol[(ri, ring.mul(x, ci))]

    return ZdbFunction(
        RingTimesGroupDomain(ring, g_group),
        q=q,
        table=table,
        claimed_lambda=e - 2,
        provenance={
            "construction": "product",
            "g_group": g_group.to_json(),
            "h_group": h_group.to_json(),
            "symbols": [lab.to_json() for lab in labels],
        },
    )


def construct_doubled(ring: Ring, group: Subgroup) -> ZdbFunction:
    """Generic construction over G union -G; needs g+1 invertible throughout."""
    if ring.order < 3:
        raise ConditionNotSatisfiedError("doubling needs a ring of order at least 3")
    doubled = doubled_subgroup(ring, group)  # rejects -1 in G first
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
