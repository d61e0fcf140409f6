import re
import tracemalloc

import numpy as np
import pytest

from zdbkit import (
    ConditionNotSatisfiedError,
    DegenerateDoublingError,
    GaloisField,
    MatrixRing,
    NotAUnitError,
    ProductRing,
    ResidueRing,
    Subgroup,
    check_plus_one,
    check_unit_difference,
    coset_partition,
    cyclic_subgroup,
    doubled_subgroup,
    subgroup_from_elements,
)


def test_cyclic_subgroup_z7():
    ring = ResidueRing(7)
    g = cyclic_subgroup(ring, 2)
    assert g.elements == (1, 2, 4)
    assert g.order == 3
    assert 4 in g and 3 not in g
    assert cyclic_subgroup(ring, 6).elements == (1, 6)
    assert cyclic_subgroup(ring, 1).elements == (1,)


def test_cyclic_subgroup_rejects_nonunit():
    with pytest.raises(NotAUnitError):
        cyclic_subgroup(ResidueRing(6), 2)


NON_UNITS = [
    (ResidueRing(8), 0),
    (ResidueRing(8), 2),  # nilpotent: 2^3 = 0
    (ResidueRing(8), 4),
    (ResidueRing(12), 3),  # zero divisor whose powers cycle 3, 9, 3 without reaching 1
    (ResidueRing(12), 4),  # idempotent zero divisor
    (GaloisField(3, 2), 0),
    (MatrixRing(2, GaloisField(3)), 0),
    (MatrixRing(2, GaloisField(3)), MatrixRing(2, GaloisField(3))._encode([[1, 0], [0, 0]])),
    (MatrixRing(2, GaloisField(3)), MatrixRing(2, GaloisField(3))._encode([[1, 2], [2, 1]])),
    (ProductRing([GaloisField(3), GaloisField(5)]), 0),
    (ProductRing([GaloisField(3), GaloisField(5)]), 2),  # (2, 0): a zero component
    (ProductRing([GaloisField(3), GaloisField(5)]), 3),  # (0, 1)
]


@pytest.mark.parametrize(("ring", "b"), NON_UNITS, ids=lambda v: repr(v))
def test_cyclic_subgroup_refuses_non_units_of_every_kind(ring, b):
    assert not ring.is_unit(b)
    message = f"generator {b} is not a unit in {ring!r}"
    with pytest.raises(NotAUnitError, match=f"^{re.escape(message)}$"):
        cyclic_subgroup(ring, b)


def test_subgroup_from_elements_validates():
    ring = ResidueRing(7)
    assert subgroup_from_elements(ring, [4, 1, 2]).elements == (1, 2, 4)
    with pytest.raises(ValueError):
        subgroup_from_elements(ring, [1, 2])  # 2*2 = 4 missing
    with pytest.raises(ValueError):
        subgroup_from_elements(ring, [2, 4])  # identity missing
    with pytest.raises(ValueError):
        subgroup_from_elements(ring, [])
    for elements, bad in (([1, 9], 9), ([-1, 1, 8], -1)):
        with pytest.raises(ValueError, match=f"element index {bad} out of range"):
            subgroup_from_elements(ring, elements)


def test_position_tables_are_exact():
    ring = ResidueRing(13)
    g = cyclic_subgroup(ring, 3)  # {1, 3, 9}
    for i, a in enumerate(g.elements):
        for j, b in enumerate(g.elements):
            assert g.elements[g.mul_pos[i][j]] == ring.mul(a, b)
        inv = g.elements[g.inv_pos[i]]
        assert ring.mul(a, inv) == 1


def test_unit_difference_condition():
    z7 = ResidueRing(7)
    assert check_unit_difference(z7, cyclic_subgroup(z7, 2))
    z15 = ResidueRing(15)
    # 4 - 1 = 3 shares a factor with 15
    assert not check_unit_difference(z15, cyclic_subgroup(z15, 4))
    z9 = ResidueRing(9)
    assert check_unit_difference(z9, cyclic_subgroup(z9, 8))


def test_plus_one_condition():
    z7 = ResidueRing(7)
    assert check_plus_one(z7, cyclic_subgroup(z7, 2))  # g + 1 lands on units
    z9 = ResidueRing(9)
    assert not check_plus_one(z9, cyclic_subgroup(z9, 8))  # 8 + 1 = 0


def test_doubled_subgroup_z31():
    ring = ResidueRing(31)
    g = cyclic_subgroup(ring, 2)
    assert g.elements == (1, 2, 4, 8, 16)
    h = doubled_subgroup(ring, g)
    assert h.elements == (1, 2, 4, 8, 15, 16, 23, 27, 29, 30)
    assert h.order == 10
    # closure of the doubled set is a real subgroup property, not a given
    Subgroup(ring, h.elements)


def test_doubled_subgroup_degenerate():
    ring = ResidueRing(5)
    g = cyclic_subgroup(ring, 4)  # contains -1 already
    with pytest.raises(DegenerateDoublingError):
        doubled_subgroup(ring, g)


def test_partition_z7():
    ring = ResidueRing(7)
    part = coset_partition(ring, cyclic_subgroup(ring, 2))
    assert part.rep_array.tolist() == [0, 1, 3]
    assert part.to_json()["cosets"] == [[0], [1, 2, 4], [3, 5, 6]]
    assert part.rep_array[1:].tolist() == [1, 3]


def test_partition_indicators_decompose_every_element():
    """RI(r) * CI(r) = r with CI in the subgroup, for several rings."""
    cases = [
        (ResidueRing(7), 2),
        (ResidueRing(9), 8),
        (ResidueRing(31), 2),
        (GaloisField(5, 2), 2),
    ]
    for ring, gen in cases:
        group = cyclic_subgroup(ring, gen)
        part = coset_partition(ring, group)
        seen = set()
        for r in range(1, ring.order):
            a = int(part.row_indicators[r])
            g = int(part.column_indicators[r])
            assert g in group
            assert a in part.rep_array
            assert ring.mul(a, g) == r
            seen.add(r)
        assert len(seen) == ring.order - 1


PARTITION_RINGS = [
    *(ResidueRing(n) for n in range(2, 65)),
    GaloisField(2, 3),
    GaloisField(3, 2),
    GaloisField(5, 2),
    ProductRing([ResidueRing(3), ResidueRing(5)]),
    MatrixRing(2, GaloisField(2)),
    MatrixRing(2, GaloisField(3)),
]


@pytest.mark.parametrize("ring", PARTITION_RINGS, ids=repr)
def test_partition_refuses_exactly_the_unit_difference_failures(ring):
    """The partition's exact check stands in for check_unit_difference: on
    every cyclic subgroup it refuses exactly when some g - 1 is not a unit."""
    groups = {}
    for b in range(ring.order):
        if ring.is_unit(b):
            group = cyclic_subgroup(ring, b)
            groups.setdefault(group.elements, group)
    for group in groups.values():
        if check_unit_difference(ring, group):
            part = coset_partition(ring, group)
            cosets = part.to_json()["cosets"]
            assert sorted(x for c in cosets[1:] for x in c) == list(range(1, ring.order))
        else:
            with pytest.raises(
                ConditionNotSatisfiedError,
                match=r"^subgroup fails the unit-difference condition: some g - 1 is not a unit$",
            ):
                coset_partition(ring, group)


def test_partition_check_catches_overlapping_columns(monkeypatch):
    # a faulty product 6 * 2 = 4 in Z_7, in the one row r -> r * 2 that the
    # partition multiplies out, also makes 3 * 4 = 4 in the row gathered from it:
    # the representatives stay 0, 1, 3 and the member count 6, but 4 lands in
    # two cosets and 5 in none
    ring = ResidueRing(7)
    group = cyclic_subgroup(ring, 2)  # elements (1, 2, 4)
    exact = ring.mul_vec

    def faulty(a, b):
        out = exact(a, b)
        assert b == 2
        out[6] = 4
        return out

    monkeypatch.setattr(ring, "mul_vec", faulty)
    with pytest.raises(ConditionNotSatisfiedError, match="unit-difference"):
        coset_partition(ring, group)


def test_partition_arrays_are_int32_positions_under_48_bytes_an_element():
    # GF(100057), e = 4: the (e, n) product table and the index in int32 (20 bytes
    # an element) plus the int64 index, product and remainder of one mul_vec (24)
    # peak at 44 bytes an element; with int64 tables the peak was 56
    ring = GaloisField(100057)
    group = cyclic_subgroup(ring, 39541)
    assert group.order == 4
    tracemalloc.start()
    try:
        part = coset_partition(ring, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (part.rep_array, part.coset_index, part.column_positions)
    assert [a.dtype for a in arrays] == [np.int32] * 3
    assert len(part.rep_array) == 1 + (ring.order - 1) // 4
    assert peak < 48 * ring.order


def test_partition_rejects_overlapping_cosets():
    ring = ResidueRing(15)
    with pytest.raises(ConditionNotSatisfiedError):
        coset_partition(ring, cyclic_subgroup(ring, 4))


def test_partition_rejects_z9_order_three_subgroup():
    # 4 - 1 = 3 is a zero divisor mod 9
    ring = ResidueRing(9)
    assert not check_unit_difference(ring, subgroup_from_elements(ring, [1, 4, 7]))
    with pytest.raises(ConditionNotSatisfiedError):
        coset_partition(ring, subgroup_from_elements(ring, [1, 4, 7]))


def test_partition_on_matrix_ring():
    ring = MatrixRing(2, GaloisField(5))
    group = cyclic_subgroup(ring, 378)  # 3I, order 4
    assert group.order == 4
    part = coset_partition(ring, group)
    cosets = part.to_json()["cosets"]
    assert len(cosets) == 1 + (625 - 1) // 4
    total = sum(len(c) for c in cosets)
    assert total == 625


def test_min_index_representatives():
    # every representative is the smallest index inside its coset
    ring = ResidueRing(31)
    part = coset_partition(ring, cyclic_subgroup(ring, 2))
    for rep, coset in zip(part.rep_array.tolist(), part.to_json()["cosets"]):
        assert rep == min(coset)


def test_subgroup_json_round_trip():
    ring = ResidueRing(7)
    g = cyclic_subgroup(ring, 2)
    data = g.to_json()
    assert data["elements"] == [1, 2, 4]
    assert data["generator"] == 2
    part = coset_partition(ring, g)
    pdata = part.to_json()
    assert pdata["reps"] == [0, 1, 3]
    assert pdata["cosets"] == [[0], [1, 2, 4], [3, 5, 6]]
