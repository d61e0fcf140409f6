"""Construction tables against hand-derived values, and the invariants
the builders promise."""

import numpy as np
import pytest

from zdbkit import (
    ConditionNotSatisfiedError,
    DegenerateDoublingError,
    GaloisField,
    ResidueRing,
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
        assert fn.evaluate(pair) == fn.table[flat]
    # shifting by the identity pair (ring zero, group identity) is a no-op
    ident = (0, dom.group.elements[dom.identity])
    assert dom.encode(ident) == 0
    for flat in range(fn.n):
        assert fn.shift_evaluate(flat, ident) == fn.table[flat]


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
    # an int array table is range-checked at once and stored as a list of ints
    same = ZdbFunction(fn.domain, fn.q, np.asarray(fn.table), fn.claimed_lambda)
    assert same.table == fn.table and type(same.table[0]) is int
    for bad in (fn.q, -1):
        table = np.asarray(fn.table)
        table[3] = bad
        with pytest.raises(ValueError):
            ZdbFunction(fn.domain, fn.q, table, fn.claimed_lambda)
