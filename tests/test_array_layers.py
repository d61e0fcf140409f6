"""The array layers against the scalar loops they replaced.

The subgroup position tables, the coset partition, the generic and
product constructions and the generator search run on ``mul_vec``
product tables.  Here the scalar versions they replaced, one
``ring.mul`` per product, serve as oracles on rings of every kind up to
order about 300: the subgroup tables and refusal messages, the
partitions, the full ``ZdbFunction.to_json()`` and the search results
must be equal, and a subgroup failing the unit-difference condition
must be refused by both.  A function's ``provenance["symbols"]`` must
read, item by item and through ``to_json()``, as the oracles' label
dicts.
"""

import functools
import random
from dataclasses import dataclass
from unittest.mock import patch

import pytest

from zdbkit import (
    ConditionNotSatisfiedError,
    GaloisField,
    MatrixRing,
    NotAUnitError,
    ProductRing,
    ResidueRing,
    RingAdditiveDomain,
    RingTimesGroupDomain,
    Subgroup,
    ZdbFunction,
    check_plus_one,
    check_unit_difference,
    construct_doubled,
    construct_generic,
    construct_product,
    coset_partition,
    cyclic_subgroup,
    doubled_subgroup,
    find_element_of_order,
    subgroup_from_elements,
)
from zdbkit import catalog
from zdbkit.arith import prime_power


@dataclass(frozen=True)
class Label:
    """Provenance label of one image symbol, as the scalar constructions made it."""

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


def scalar_subgroup(ring, elements):
    """The subgroup tables (mul_pos, identity_pos, inv_pos) by the scalar
    loop: in ascending order, each element must be a unit (try_invert) and
    its products with every element (ring.mul) must stay inside."""
    elems = tuple(sorted(set(elements)))
    pos = {g: i for i, g in enumerate(elems)}
    mul_pos = []
    for g in elems:
        if ring.try_invert(g) is None:
            raise NotAUnitError(f"subgroup element {g} is not a unit")
        row = []
        for h in elems:
            gh = ring.mul(g, h)
            if gh not in pos:
                raise ValueError(f"not closed under multiplication: {g}*{h} = {gh}")
            row.append(pos[gh])
        mul_pos.append(tuple(row))
    identity_pos = pos[ring.one()]
    inv_pos = tuple(row.index(identity_pos) for row in mul_pos)
    return tuple(mul_pos), identity_pos, inv_pos


def scalar_partition(ring, group):
    """The coset scan: indices in increasing order, each unseen one opens
    the coset a * G; returns (cosets, reps, row, col)."""
    if not check_unit_difference(ring, group):
        raise ConditionNotSatisfiedError("unit-difference")
    n = ring.order
    e = group.order
    row = [-1] * n
    col = [-1] * n
    cosets = [[0]]
    reps = [0]
    row[0] = 0
    for a in range(1, n):
        if row[a] >= 0:
            continue
        members = []
        for g in group.elements:
            m = ring.mul(a, g)
            if row[m] >= 0:
                raise ConditionNotSatisfiedError(f"cosets overlap at element {m}")
            row[m] = a
            col[m] = g
            members.append(m)
        if len(set(members)) != e:
            raise ConditionNotSatisfiedError(f"coset of {a} has the wrong size")
        cosets.append(sorted(members))
        reps.append(a)
    if (n - 1) % e != 0 or len(cosets) != (n - 1) // e + 1:
        raise ConditionNotSatisfiedError("the nonzero elements do not split")
    return cosets, reps, row, col


def scalar_generic(ring, group):
    cosets, reps, _, _ = scalar_partition(ring, group)
    n, e = ring.order, group.order
    table = [0] * n
    for s, coset in enumerate(cosets):
        for r in coset:
            table[r] = s
    symbols = [Label("coset", rep=rep).to_json() for rep in reps]
    provenance = {"construction": "generic", "group": group.to_json(), "symbols": symbols}
    return ZdbFunction(RingAdditiveDomain(ring), (n - 1) // e + 1, table, e - 1, provenance)


def scalar_product(ring, g_group, h_group):
    """The four-case loop, one table entry and one ring.mul at a time."""
    _, g_reps, g_row, g_col = scalar_partition(ring, g_group)
    _, h_reps, h_row, _ = scalar_partition(ring, h_group)
    n, e = ring.order, g_group.order
    one = ring.one()
    labels = [Label("zero"), Label("zero_pair")]
    h_symbol = {}
    for rep in h_reps[1:]:
        h_symbol[rep] = len(labels)
        labels.append(Label("h_coset", rep=rep))
    pair_symbol = {}
    for rep in g_reps[1:]:
        for g in g_group.elements:
            pair_symbol[(rep, g)] = len(labels)
            labels.append(Label("g_coset_pair", rep=rep, g=g))
    table = [0] * (n * e)
    for r in range(n):
        for pos, x in enumerate(g_group.elements):
            flat = r * e + pos
            if r == 0:
                table[flat] = 0 if x == one else 1
            elif x == one:
                table[flat] = h_symbol[h_row[r]]
            else:
                table[flat] = pair_symbol[(g_row[r], ring.mul(x, g_col[r]))]
    provenance = {
        "construction": "product",
        "g_group": g_group.to_json(),
        "h_group": h_group.to_json(),
        "symbols": [lab.to_json() for lab in labels],
    }
    return ZdbFunction(RingTimesGroupDomain(ring, g_group), len(labels), table, e - 2, provenance)


@functools.lru_cache(maxsize=None)
def scalar_find(ring, e, require_unit_difference=False):
    """The candidate loop: units in index order, powers up to e by ring.mul;
    cached, since both tests ask it the same questions."""
    one = ring.one()
    for b in range(1, ring.order):
        if not ring.is_unit(b):
            continue
        x = b
        order = None
        for j in range(1, e + 1):
            if x == one:
                order = j
                break
            x = ring.mul(x, b)
        if order != e:
            continue
        if require_unit_difference and not check_unit_difference(ring, cyclic_subgroup(ring, b)):
            continue
        return b
    return None


def outcome(build, *args):
    """to_json() of a build, or the exception type it raised."""
    try:
        return build(*args).to_json()
    except ConditionNotSatisfiedError:
        return ConditionNotSatisfiedError


PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41,
                43, 47, 49, 53, 59, 61, 64, 81, 97, 101, 121, 125, 127, 128, 169, 211, 243,
                251, 256, 289, 293]
RINGS = (
    [ResidueRing(n) for n in [*range(2, 41), 45, 49, 63, 64, 91, 105, 121, 125, 169, 217,
                              255, 273, 289, 300]]
    + [GaloisField(*prime_power(q)) for q in PRIME_POWERS]
    + [
        ProductRing([ResidueRing(2), ResidueRing(3)]),
        ProductRing([GaloisField(2, 2), ResidueRing(5)]),
        ProductRing([GaloisField(3), GaloisField(3, 2)]),
        ProductRing([ResidueRing(6), GaloisField(5, 2)]),
        ProductRing([GaloisField(7), GaloisField(13)]),
        ProductRing([ResidueRing(7), GaloisField(13)]),
        ProductRing([GaloisField(7), GaloisField(7)]),
        ProductRing([GaloisField(2, 2)] * 3),
        ProductRing([ResidueRing(4), ResidueRing(9), ResidueRing(5)]),
        ProductRing([GaloisField(2, 4), GaloisField(17)]),
        ProductRing([ResidueRing(5), MatrixRing(2, GaloisField(2))]),
    ]
    + [
        MatrixRing(1, GaloisField(7)),
        MatrixRing(1, GaloisField(2, 3)),
        MatrixRing(2, GaloisField(2)),
        MatrixRing(2, GaloisField(3)),
        MatrixRing(2, GaloisField(2, 2)),
        MatrixRing(3, GaloisField(2)),
    ]
)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_search_matches_the_scalar_loop(ring):
    for e in range(1, 9):
        for ud in (False, True):
            assert find_element_of_order(ring, e, ud) == scalar_find(ring, e, ud), (e, ud)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_search_is_the_same_across_candidate_chunks(chunk):
    with patch.object(catalog, "_SEARCH_CHUNK", chunk):
        for ring in (ResidueRing(91), GaloisField(5, 2), MatrixRing(2, GaloisField(3))):
            for e in range(1, 9):
                for ud in (False, True):
                    assert find_element_of_order(ring, e, ud) == scalar_find(ring, e, ud)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_partitions_and_constructions_match_the_scalar_loops(ring):
    for e in range(1, 9):
        g = scalar_find(ring, e)  # the smallest of order e, unit-difference or not
        if g is None:
            continue
        groups = [cyclic_subgroup(ring, g)]
        if ring.neg(ring.one()) not in groups[0]:
            groups.append(doubled_subgroup(ring, groups[0]))
        for group in groups:
            try:
                expected = scalar_partition(ring, group)
            except ConditionNotSatisfiedError:
                with pytest.raises(ConditionNotSatisfiedError):
                    coset_partition(ring, group)
            else:
                part = coset_partition(ring, group)
                cosets, reps, row, col = expected
                assert (part.to_json()["cosets"], part.rep_array.tolist()) == (cosets, reps)
                assert part.row_indicators[1:].tolist() == row[1:]
                assert part.column_indicators[1:].tolist() == col[1:]
            assert outcome(construct_generic, ring, group) == outcome(scalar_generic, ring, group)
        if e >= 2:
            h = scalar_find(ring, e - 1)
            pairs = [(g, h), (scalar_find(ring, e, True), scalar_find(ring, e - 1, True))]
            for gg, hh in pairs:
                if gg is None or hh is None:
                    continue
                args = (ring, cyclic_subgroup(ring, gg), cyclic_subgroup(ring, hh))
                assert outcome(construct_product, *args) == outcome(scalar_product, *args)


def subgroup_outcome(build, ring, elements):
    """The tables of a subgroup build, or the type and message it raised."""
    try:
        return build(ring, elements)
    except (NotAUnitError, ValueError) as exc:
        return type(exc), str(exc)


def vector_subgroup(ring, elements):
    group = Subgroup(ring, elements)
    return group.mul_pos, group.identity_pos, group.inv_pos


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_subgroup_tables_and_refusals_match_the_scalar_loop(ring):
    rnd = random.Random(ring.order)
    one = ring.one()
    units = [u for u in range(ring.order) if ring.is_unit(u)]
    subsets = []
    for e in range(1, 9):
        g = scalar_find(ring, e)
        if g is not None:
            group = cyclic_subgroup(ring, g)
            subsets.append(group.elements)
            if ring.neg(one) not in group:
                subsets.append(doubled_subgroup(ring, group).elements)
    for _ in range(24):
        # bad subsets: random units (mostly not closed) or any elements (non-units too)
        pool = units if rnd.random() < 0.5 else range(ring.order)
        subsets.append([one, *rnd.sample(pool, min(len(pool), rnd.randint(1, 6)))])
    for elements in subsets:
        expected = subgroup_outcome(scalar_subgroup, ring, elements)
        assert subgroup_outcome(vector_subgroup, ring, elements) == expected, elements


@pytest.mark.parametrize(
    "ring",
    [ResidueRing(31), GaloisField(5, 2), ProductRing([GaloisField(7), GaloisField(13)]),
     MatrixRing(2, GaloisField(3))],
    ids=repr,
)
def test_symbol_labels_read_as_the_label_dicts(ring):
    """provenance["symbols"] keeps its length and per-symbol dicts, read by
    index (an int32 table entry included), by iteration and through
    to_json(), for generic, doubled and product functions."""
    builds = []
    for e in range(2, 5):
        g, h = scalar_find(ring, e, True), scalar_find(ring, e - 1, True)
        if g is None:
            continue
        group = cyclic_subgroup(ring, g)
        builds.append((construct_generic(ring, group), scalar_generic(ring, group)))
        if ring.neg(ring.one()) not in group and check_plus_one(ring, group):
            doubled = doubled_subgroup(ring, group)
            if check_unit_difference(ring, doubled):
                builds.append((construct_doubled(ring, group), scalar_generic(ring, doubled)))
        if h is not None:
            args = (ring, group, cyclic_subgroup(ring, h))
            builds.append((construct_product(*args), scalar_product(*args)))
    kinds = {fn.provenance["construction"] for fn, _ in builds}
    assert kinds == {"generic", "product"} | ({"doubled"} if ring.is_commutative() else set())
    for fn, oracle in builds:
        symbols, expected = fn.provenance["symbols"], oracle.provenance["symbols"]
        assert len(symbols) == len(expected) == fn.q
        assert [symbols[s] for s in range(fn.q)] == list(symbols) == expected
        assert symbols[fn.table[-1]] == expected[fn.table[-1]]
        assert symbols[-1] == expected[-1]
        with pytest.raises(IndexError):
            symbols[fn.q]
        assert symbols.to_json() == expected
        assert fn.to_json()["provenance"]["symbols"] == expected


def test_product_keeps_x_on_the_left_for_a_noncommutative_group():
    # the quaternion group Q8 in M2(F13) passes the unit-difference check, and
    # so does a cyclic H of order 7 (7 divides 13 + 1); a g_coset_pair symbol
    # carries x * c, x the group coordinate and c the column indicator, and
    # x * c != c * x here
    ring = MatrixRing(2, GaloisField(13))
    i, j = ring._encode([[0, 12], [1, 0]]), ring._encode([[3, 4], [4, 10]])
    powers = [ring.one(), i, ring.mul(i, i), ring.mul(i, ring.mul(i, i))]
    g_group = subgroup_from_elements(ring, powers + [ring.mul(x, j) for x in powers])
    h_group = cyclic_subgroup(ring, find_element_of_order(ring, 7, True))
    fn = construct_product(ring, g_group, h_group)
    part = coset_partition(ring, g_group)
    one, e = ring.one(), g_group.order
    noncommuting = 0
    for r in range(1, ring.order, 101):
        rep, c = int(part.row_indicators[r]), int(part.column_indicators[r])
        for pos, x in enumerate(g_group.elements):
            if x == one:
                continue
            label = fn.provenance["symbols"][fn.table[r * e + pos]]
            assert label == {"kind": "g_coset_pair", "rep": rep, "g": ring.mul(x, c)}
            noncommuting += ring.mul(x, c) != ring.mul(c, x)
    assert noncommuting > 0
