"""The exhaustive verifier against naive reimplementations of the group
laws, plus the frozen negative controls."""

from collections import Counter

import pytest

from zdbkit import (
    GaloisField,
    ResidueRing,
    RingAdditiveDomain,
    ZdbFunction,
    composition_profile,
    construct_doubled,
    construct_generic,
    coset_partition,
    cyclic_subgroup,
    difference_spectrum,
    verify_zdb,
)
from lemmas import check_column_ratios, check_solution_set


def naive_residue_spectrum(table, n):
    """Coincidence counts on Z_n computed with plain modular arithmetic."""
    out = {}
    for a in range(1, n):
        out[a] = sum(1 for x in range(n) if table[(x + a) % n] == table[x])
    return out


def naive_product_spectrum(table, n_ring, group_elements):
    """The (R, +) x (G, *) law written out longhand for Z_n rings."""
    e = len(group_elements)
    pos = {g: i for i, g in enumerate(group_elements)}
    size = n_ring * e

    def op(a, b):
        ra, pa = divmod(a, e)
        rb, pb = divmod(b, e)
        g = (group_elements[pa] * group_elements[pb]) % n_ring
        return (ra + rb) % n_ring * e + pos[g]

    out = {}
    for delta in range(1, size):
        out[delta] = sum(1 for y in range(size) if table[op(y, delta)] == table[y])
    return out


def test_generic_z7_spectrum_matches_naive_oracle():
    ring = ResidueRing(7)
    fn = construct_generic(ring, cyclic_subgroup(ring, 2))
    spec = difference_spectrum(fn)
    naive = naive_residue_spectrum(list(fn.table), 7)
    assert spec.shift_counts.tolist() == list(naive.values())
    assert spec.is_constant and spec.min_count == 2


def test_product_z7_spectrum_matches_naive_oracle(z7_product):
    fn = z7_product
    spec = difference_spectrum(fn)
    naive = naive_product_spectrum(list(fn.table), 7, [1, 2, 4])
    assert spec.shift_counts.tolist() == list(naive.values())
    assert spec.is_constant and spec.min_count == 1


def test_doubled_z31_spectrum_matches_naive_oracle():
    ring = ResidueRing(31)
    fn = construct_doubled(ring, cyclic_subgroup(ring, 2))
    spec = difference_spectrum(fn)
    assert spec.shift_counts.tolist() == list(naive_residue_spectrum(list(fn.table), 31).values())
    assert spec.is_constant and spec.min_count == 9


def test_verify_certifies_the_claim(z7_product):
    res = verify_zdb(z7_product)
    assert res.ok
    assert res.certified_parameters() == (21, 11, 1)
    assert res.to_json() == {"ok": True, "n": 21, "m": 11, "lambda": 1}


def test_verify_counts_distinct_symbols():
    ring = ResidueRing(11)
    fn = construct_generic(ring, cyclic_subgroup(ring, 10))
    res = verify_zdb(fn)
    assert res.ok
    assert res.m == len(set(fn.table))


def test_frozen_z4_negative_control():
    """Table [0,1,2,0] on Z_4 claims lambda = 1 but shift 2 gives 0."""
    fn = ZdbFunction(RingAdditiveDomain(ResidueRing(4)), 3, [0, 1, 2, 0], 1)
    spec = difference_spectrum(fn)
    assert spec.shift_counts.tolist() == [1, 0, 1]
    assert spec.histogram == {0: 1, 1: 2}
    res = verify_zdb(fn)
    assert not res.ok
    assert res.failure_kind == "spectrum"
    assert res.witness_shift == 2
    assert res.expected == 1
    assert res.actual == 0


def test_corrupted_table_yields_witness(z7_product):
    table = list(z7_product.table)
    table[5] = (table[5] + 1) % 11
    fn = ZdbFunction(z7_product.domain, 11, table, 1)
    res = verify_zdb(fn)
    assert not res.ok
    assert res.witness_shift is not None
    # the witness is concrete: recount that one shift by hand
    dom = fn.domain
    count = sum(1 for y in range(fn.n) if table[dom.op(y, res.witness_shift)] == table[y])
    assert count == res.actual
    assert res.actual != res.expected


def test_wrong_claim_is_rejected(z7_product):
    fn = ZdbFunction(z7_product.domain, 11, list(z7_product.table), 2)
    res = verify_zdb(fn)
    assert not res.ok
    assert res.witness_shift == 1
    assert res.expected == 2
    assert res.actual == 1


def test_image_size_mismatch_is_detected(z7_product):
    # q says 12 symbols but only 11 occur
    fn = ZdbFunction(z7_product.domain, 12, list(z7_product.table), 1)
    res = verify_zdb(fn)
    assert not res.ok
    assert res.failure_kind == "image"


def test_counting_identity_across_instances():
    """Sum of all coincidence counts equals sum(w_i^2) - n."""
    cases = []
    z7 = ResidueRing(7)
    cases.append(construct_generic(z7, cyclic_subgroup(z7, 2)))
    z31 = ResidueRing(31)
    cases.append(construct_generic(z31, cyclic_subgroup(z31, 2)))
    cases.append(construct_doubled(z31, cyclic_subgroup(z31, 2)))
    f25 = GaloisField(5, 2)
    cases.append(construct_generic(f25, cyclic_subgroup(f25, 2)))
    for fn in cases:
        spec = difference_spectrum(fn)
        weights = Counter(fn.table)
        expected = sum(w * w for w in weights.values()) - fn.n
        assert int(spec.shift_counts.sum()) == expected


def test_constant_function_spectrum():
    fn = ZdbFunction(RingAdditiveDomain(ResidueRing(5)), 1, [0] * 5, 5)
    res = verify_zdb(fn)
    assert res.ok
    assert res.certified_parameters() == (5, 1, 5)


def test_composition_profile(z7_product):
    prof = composition_profile(z7_product)
    assert prof.sorted_counts == tuple([1] + [2] * 10)
    assert sum(prof.counts) == 21


def test_solution_set_closed_form_small():
    ring = ResidueRing(7)
    group = cyclic_subgroup(ring, 2)
    for a in range(1, 7):
        assert check_solution_set(ring, group, a)
    with pytest.raises(ValueError):
        check_solution_set(ring, group, 0)


def test_column_ratio_bijection_small():
    for n, gen in [(7, 2), (13, 3), (31, 2)]:
        ring = ResidueRing(n)
        part = coset_partition(ring, cyclic_subgroup(ring, gen))
        assert check_column_ratios(part)


def test_spectrum_json_shape(z7_product):
    data = difference_spectrum(z7_product).to_json()
    assert data["order"] == 21
    assert data["histogram"] == {"1": 20}
    assert data["per_shift"] == [1] * 20
