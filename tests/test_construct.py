"""Construction tables against hand-derived values, and the invariants
the builders promise."""

import numpy as np
import pytest

from zdbkit import (
    ConditionNotSatisfiedError,
    DegenerateDoublingError,
    GaloisField,
    ResidueRing,
    RingAdditiveDomain,
    RingTimesGroupDomain,
    ZdbFunction,
    construct_doubled,
    construct_generic,
    construct_product,
    cyclic_subgroup,
    doubled_subgroup,
)

# f on Z_7 with G = <2>: symbol = index of the coset of y, zero coset first
Z7_GENERIC_TABLE = [0, 1, 1, 2, 1, 2, 2]

# the (21, 11, 1) table on Z_7 x <2> with H = <6>, flat index y = 3r + i
Z7_PRODUCT_TABLE = [
    0, 1, 1, 2, 6, 7, 3, 7, 5, 4, 9, 10, 4, 5, 6, 3, 8, 9, 2, 10, 8,
]


def test_generic_z7_table():
    ring = ResidueRing(7)
    fn = construct_generic(ring, cyclic_subgroup(ring, 2))
    assert list(fn.table) == Z7_GENERIC_TABLE
    assert fn.claimed_parameters() == (7, 3, 2)
    assert fn.provenance["construction"] == "generic"


def test_product_z7_table(z7_product):
    fn = z7_product
    assert list(fn.table) == Z7_PRODUCT_TABLE
    assert fn.claimed_parameters() == (21, 11, 1)
    assert fn.provenance["construction"] == "product"
    assert sorted(set(fn.table)) == list(range(11))


def test_product_alphabet_counts(z7_product):
    # one element maps to the zero symbol, two to every other symbol
    counts = [list(z7_product.table).count(s) for s in range(11)]
    assert counts == [1] + [2] * 10


def test_generic_trivial_subgroup():
    ring = ResidueRing(11)
    fn = construct_generic(ring, cyclic_subgroup(ring, 1))
    # e = 1 separates every element
    assert fn.claimed_parameters() == (11, 11, 0)
    assert sorted(fn.table) == list(range(11))


def test_doubled_delegates_to_generic():
    ring = ResidueRing(31)
    g = cyclic_subgroup(ring, 2)
    doubled = construct_doubled(ring, g)
    plain = construct_generic(ring, doubled_subgroup(ring, g))
    assert list(doubled.table) == list(plain.table)
    assert doubled.claimed_parameters() == (31, 4, 9)
    assert doubled.provenance["construction"] == "doubled"


def test_doubled_rejects_group_containing_minus_one():
    ring = ResidueRing(11)
    with pytest.raises(DegenerateDoublingError):
        construct_doubled(ring, cyclic_subgroup(ring, 2))  # 2^5 = -1 mod 11


def test_doubled_trivial_group_on_z9():
    # G = {1} doubles to {1, 8}; 8 - 1 = 7 is a unit mod 9
    ring = ResidueRing(9)
    fn = construct_doubled(ring, cyclic_subgroup(ring, 1))
    assert fn.claimed_parameters() == (9, 5, 1)
    assert list(fn.table) == [0, 1, 2, 3, 4, 4, 3, 2, 1]


def test_product_requires_h_order():
    ring = ResidueRing(7)
    g = cyclic_subgroup(ring, 2)
    with pytest.raises(ConditionNotSatisfiedError):
        construct_product(ring, g, cyclic_subgroup(ring, 1))  # |H| = 1 != 2


def test_product_rejects_unit_difference_failures():
    ring = ResidueRing(15)
    with pytest.raises(ConditionNotSatisfiedError):
        construct_product(ring, cyclic_subgroup(ring, 4), cyclic_subgroup(ring, 14))


def test_construction_is_deterministic():
    ring = GaloisField(5, 2)
    g = cyclic_subgroup(ring, cyclic_generator_of_order(ring, 4))
    h = cyclic_subgroup(ring, cyclic_generator_of_order(ring, 3))
    a = construct_product(ring, g, h)
    b = construct_product(ring, g, h)
    assert list(a.table) == list(b.table)
    assert a.to_json() == b.to_json()


def cyclic_generator_of_order(ring, e):
    for b in range(1, ring.order):
        if not ring.is_unit(b):
            continue
        acc, k = b, 1
        while acc != ring.one():
            acc = ring.mul(acc, b)
            k += 1
        if k == e:
            return b
    raise AssertionError(f"no element of order {e}")


def test_evaluate_pairs_on_product_domain(z7_product):
    fn = z7_product
    dom = fn.domain
    assert isinstance(dom, RingTimesGroupDomain)
    for flat in range(fn.n):
        pair = dom.decode(flat)
        assert dom.encode(pair) == flat
        assert fn.table[dom.encode(pair)] == fn.table[flat]
    # shifting by the identity pair (ring zero, group identity) is a no-op
    ident = (0, dom.group.elements[dom.identity])
    assert dom.encode(ident) == 0
    for flat in range(fn.n):
        assert fn.table[dom.op(flat, dom.encode(ident))] == fn.table[flat]


def test_zdb_function_json_round_trip(z7_product):
    data = z7_product.to_json()
    again = ZdbFunction.from_json(data)
    assert list(again.table) == list(z7_product.table)
    assert again.q == z7_product.q
    assert again.claimed_lambda == z7_product.claimed_lambda
    assert again.domain == z7_product.domain
    assert again.to_json() == data


def test_zdb_function_validates_table():
    ring = ResidueRing(7)
    fn = construct_generic(ring, cyclic_subgroup(ring, 2))
    data = fn.to_json()
    data["table"] = data["table"][:-1]
    with pytest.raises(ValueError):
        ZdbFunction.from_json(data)
    data = fn.to_json()
    data["table"][0] = 99
    with pytest.raises(ValueError):
        ZdbFunction.from_json(data)
    # an int array table is range-checked at once and stored as a read-only int32 array
    same = ZdbFunction(fn.domain, fn.q, np.asarray(fn.table, np.int64), fn.claimed_lambda)
    assert np.array_equal(same.table, fn.table) and same.table.dtype == np.int32
    for bad in (fn.q, -1):
        table = np.array(fn.table)
        table[3] = bad
        with pytest.raises(ValueError):
            ZdbFunction(fn.domain, fn.q, table, fn.claimed_lambda)


Z3 = RingAdditiveDomain(ResidueRing(3))


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize(
    "table, match",
    [
        ([0.9, 1.5, 0], "must be integers"),  # once truncated to [0, 1, 0]
        ([0.0, 1.0, 2.0], "must be integers"),
        (["0", 1, 2], "must be integers"),
        ([0, 1, 3], r"outside range\(0, 3\)"),
        ([0, -1, 2], r"outside range\(0, 3\)"),
        ([0, 1], "table length 2 does not match domain order 3"),
        # numpy reads this list as float64: the list is out of range, the array not integers
        ([0, 2**63, -1], (r"outside range\(0, 3\)", "must be integers")),
        # numpy reads this list as [0, 1, 1]: the list is refused, the array is a valid table
        ([0, 1, True], ("must be integers", None)),
    ],
)
def test_zdb_function_refuses_non_integer_and_out_of_range_tables(table, match, as_array):
    if isinstance(match, tuple):
        match = match[as_array]
    if match is None:
        assert ZdbFunction(Z3, 3, np.array(table), 0).table.tolist() == [0, 1, 1]
        return
    with pytest.raises(ValueError, match=match):
        ZdbFunction(Z3, 3, np.array(table) if as_array else table, 0)


@pytest.mark.parametrize("table", [[0, 1, 2], [np.int64(0), 1, np.uint8(2)], range(3)])
def test_zdb_function_accepts_integer_sequences(table):
    fn = ZdbFunction(Z3, 3, table, 0)
    assert fn.table.tolist() == [0, 1, 2] and fn.table.dtype == np.int32
    assert [fn.table[y] for y in range(3)] == [0, 1, 2]


def test_zdb_function_table_width_follows_q():
    assert ZdbFunction(Z3, 2**31 - 1, [0, 1, 2], 0).table.dtype == np.int32
    assert ZdbFunction(Z3, 2**31, [0, 1, 2], 0).table.dtype == np.int64
    big = ZdbFunction(Z3, 2**64, [0, 1, 2**62], 0)
    assert big.table.dtype == np.int64 and big.table.tolist() == [0, 1, 2**62]
    # an int64 table cannot hold 2**63, whatever q claims
    with pytest.raises(ValueError, match=r"outside range\(0, 9223372036854775808\)"):
        ZdbFunction(Z3, 2**64, np.array([0, 1, 2**63], dtype=np.uint64), 0)
    # a list is checked before numpy reads it (as floats)
    with pytest.raises(ValueError, match=r"outside range\(0, 9223372036854775808\)"):
        ZdbFunction(Z3, 2**64, [0, 1, 2**63], 0)


def _constructed():
    z7, z9, z31 = ResidueRing(7), ResidueRing(9), ResidueRing(31)
    yield construct_generic(z7, cyclic_subgroup(z7, 2))
    yield construct_product(z7, cyclic_subgroup(z7, 2), cyclic_subgroup(z7, 6))
    yield construct_doubled(z9, cyclic_subgroup(z9, 1))
    yield construct_doubled(z31, cyclic_subgroup(z31, 2))


@pytest.mark.parametrize("built", ["construction", "from_json"])
def test_tables_are_read_only_after_every_construction(built):
    for fn in _constructed():
        if built == "from_json":
            fn = ZdbFunction.from_json(fn.to_json())
        before = fn.table.tolist()
        assert isinstance(fn.table, np.ndarray) and fn.table.dtype == np.int32
        with pytest.raises(ValueError, match="read-only"):
            fn.table[1], fn.table[3] = fn.table[3], fn.table[1]
        with pytest.raises(ValueError, match="read-only"):
            fn.table[:] = 0
        with pytest.raises(AttributeError):
            fn.table = list(reversed(before))
        assert fn.table.tolist() == before


def test_zdb_function_copies_its_table():
    source = np.array(Z7_GENERIC_TABLE, dtype=np.int32)  # the stored dtype: still copied
    fn = ZdbFunction(RingAdditiveDomain(ResidueRing(7)), 3, source, 2)
    source[0] = 2
    listed = list(Z7_GENERIC_TABLE)
    again = ZdbFunction(RingAdditiveDomain(ResidueRing(7)), 3, listed, 2)
    listed[0] = 2
    assert fn.table.tolist() == again.table.tolist() == Z7_GENERIC_TABLE
