"""Derived codes, their exhaustive distance scans, and the three bound
calculators with frozen rational values.  Derived books build no
codeword matrix unless it is read: certifying the catalog never
translates a table, and certifying the (2500, 834, 2) instance allocates
less than one byte per matrix cell at its peak.  The derived designs
read the spectrum of the verification result they are given: the
builders refuse a result of another function, and building and
certifying the catalog counts one spectrum per instance.  A difference
system is two read-only arrays whose points are checked once, when it
is made, and as exact JSON integers when it is read."""

import dataclasses
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zdbkit import (
    AbelianDomain,
    CodeBook,
    DssSystem,
    NotCwcEligibleError,
    ResidueRing,
    RingAdditiveDomain,
    VerificationError,
    ZdbFunction,
    ccc_bound,
    ccc_from_zdb,
    ccc_report,
    certify_all,
    construct_generic,
    cwc_bound,
    cwc_from_zdb,
    cwc_report,
    cyclic_subgroup,
    default_catalog,
    distance_range,
    dss_bound,
    dss_from_zdb,
    dss_perfect_check,
    dss_report,
    verify_zdb,
)


def brute_distances(words):
    out = []
    m = len(words)
    for i in range(m):
        for j in range(i + 1, m):
            out.append(sum(1 for a, b in zip(words[i], words[j]) if a != b))
    return out


def test_distance_range_against_brute_force():
    words = np.array([[0, 0, 1], [0, 1, 1], [2, 1, 0], [0, 0, 1]])
    # the zero-distance duplicate pair must be reported, not skipped
    assert distance_range(words) == (0, 3)
    dists = brute_distances(words.tolist())
    assert (min(dists), max(dists)) == (0, 3)


def test_ccc_from_z7_product(z7_product):
    book = ccc_from_zdb(z7_product)
    assert book.kind == "CCC"
    assert (book.n, book.M, book.q) == (21, 21, 11)
    assert book.d == book.d_max == 20
    assert book.composition == tuple([1] + [2] * 10)
    dists = brute_distances(book.codewords.tolist())
    assert set(dists) == {20}
    # every codeword is the table read along a shifted argument
    assert list(book.codewords[0]) == list(z7_product.table)


def test_ccc_composition_per_row(z7_product):
    book = ccc_from_zdb(z7_product)
    for row in book.codewords:
        counts = np.bincount(row, minlength=11)
        assert list(counts) == [1] + [2] * 10


def test_cwc_from_z7_product(z7_product):
    res = verify_zdb(z7_product)
    ccc = ccc_from_zdb(z7_product, res)
    cwc = cwc_from_zdb(z7_product, res)
    assert cwc.kind == "CWC"
    assert cwc.weight == 20
    assert cwc.d == 20
    assert np.array_equal(cwc.codewords, ccc.codewords)
    again = cwc_from_zdb(z7_product, res)
    assert np.array_equal(again.codewords, cwc.codewords)


def test_certify_all_builds_no_codeword_matrix(catalog, certification, monkeypatch):
    def refuse(self, table):
        raise AssertionError("a codeword matrix was built")

    monkeypatch.setattr(AbelianDomain, "translates", refuse)
    assert certify_all(catalog).rows == certification.rows


def test_certifying_the_2500_instance_peaks_below_n_squared_bytes(catalog):
    result = next(r for r in catalog if r.certified == (2500, 834, 2))
    tracemalloc.start()
    try:
        certify_all([result])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2500**2


def test_equidistant_identity_generic():
    # d = n - lambda must hold pairwise, checked exhaustively
    ring = ResidueRing(11)
    fn = construct_generic(ring, cyclic_subgroup(ring, 1))
    book = ccc_from_zdb(fn)
    assert book.d == book.d_max == 11


def test_dss_from_z7_product(z7_product):
    system = dss_from_zdb(z7_product)
    assert system.q == 11
    assert system.tau == 21
    assert system.perfect and system.partitioned
    assert system.lam == 20
    assert system.blocks[0].tolist() == [0]
    assert sorted(x for b in system.blocks for x in b) == list(range(21))
    chk = dss_perfect_check(system)
    assert chk == (20, True, 20)


def test_dss_two_singletons_on_z2():
    """Both ordered cross pairs hit the difference 1, so lambda is 2."""
    system = DssSystem(
        domain=RingAdditiveDomain(ResidueRing(2)),
        points=np.array([0, 1]),  # blocks (0,), (1,)
        ends=np.array([1, 2]),
        q=2,
        tau=2,
        lam=None,
        perfect=False,
        partitioned=True,
    )
    chk = dss_perfect_check(system)
    assert chk == (2, True, 2)


def test_dss_imperfect_control_on_z4():
    # symbol preimages of the broken table [0, 1, 2, 0]
    system = DssSystem(
        domain=RingAdditiveDomain(ResidueRing(4)),
        points=np.array([0, 3, 1, 2]),  # blocks (0, 3), (1,), (2,)
        ends=np.array([2, 3, 4]),
        q=3,
        tau=4,
        lam=None,
        perfect=False,
        partitioned=True,
    )
    chk = dss_perfect_check(system)
    assert chk.lam_min == 3
    assert not chk.perfect
    assert chk.lam is None


def test_builders_refuse_unverified_tables():
    fn = ZdbFunction(RingAdditiveDomain(ResidueRing(4)), 3, [0, 1, 2, 0], 1)
    with pytest.raises(VerificationError):
        ccc_from_zdb(fn)
    with pytest.raises(VerificationError):
        dss_from_zdb(fn)


def test_builders_refuse_the_result_of_another_function(z7_product):
    res = verify_zdb(z7_product)
    # move one element of class 1 into class 2 and back: the spectrum fails at shift 1
    table = list(z7_product.table)
    assert (table[1], table[3]) == (1, 2)
    table[1], table[3] = table[3], table[1]
    other = ZdbFunction(z7_product.domain, z7_product.q, table, z7_product.claimed_lambda)
    assert verify_zdb(other).to_json()["witness_shift"] == 1
    for build in (ccc_from_zdb, cwc_from_zdb, dss_from_zdb):
        with pytest.raises(VerificationError, match="belongs to a different function"):
            build(other, res)
    # an equal result of the same table is still another function's result
    again = ZdbFunction(z7_product.domain, z7_product.q, list(z7_product.table), 1)
    assert verify_zdb(again) == res
    with pytest.raises(VerificationError, match="belongs to a different function"):
        ccc_from_zdb(again, res)


def test_certify_all_counts_one_spectrum_per_instance(certification, monkeypatch):
    # one per instance in all: default_catalog verifies each build, certify_all counts none
    kernel = AbelianDomain.difference_counts
    calls = []

    def counted(self, elements, labels):
        calls.append(self.order)
        return kernel(self, elements, labels)

    monkeypatch.setattr(AbelianDomain, "difference_counts", counted)
    catalog = default_catalog()
    assert calls == [r.fn.n for r in catalog]
    # certify_all derives from the verification each build stored
    report = certify_all(catalog)
    assert len(calls) == 23
    assert report.to_json() == certification.to_json()


def test_a_verified_table_cannot_change_under_its_certificate(z7_product):
    res = verify_zdb(z7_product)
    table = z7_product.table
    with pytest.raises(ValueError, match="read-only"):
        table[1], table[3] = table[3], table[1]
    assert (ccc_from_zdb(z7_product, res).d, dss_from_zdb(z7_product, res).lam) == (20, 20)
    # the swap on a copy fails afresh at shift 1
    swapped = np.array(table)
    swapped[[1, 3]] = swapped[[3, 1]]
    other = ZdbFunction(z7_product.domain, z7_product.q, swapped, z7_product.claimed_lambda)
    assert verify_zdb(other).to_json()["witness_shift"] == 1


def test_cwc_needs_unique_zero_preimage():
    fn = ZdbFunction(RingAdditiveDomain(ResidueRing(3)), 1, [0, 0, 0], 3)
    with pytest.raises(NotCwcEligibleError):
        cwc_from_zdb(fn)


def test_ccc_bound_frozen_values():
    rep = ccc_bound(21, 20, [1] + [2] * 10, achieved=21)
    assert (rep.bound_num, rep.bound_den) == (21, 1)
    assert rep.bound == Fraction(420, 20)
    assert rep.applicable and rep.optimal

    # non-integer bound: optimality compares against the floor
    rep = ccc_bound(5, 4, [3, 2], achieved=2)
    assert rep.bound == Fraction(5, 2)
    assert rep.optimal
    rep = ccc_bound(5, 4, [3, 2], achieved=1)
    assert not rep.optimal


def test_ccc_bound_inapplicable_when_denominator_vanishes():
    # nd - n^2 + sum(w^2) <= 0 carries no information
    rep = ccc_bound(4, 2, [2, 2], achieved=4)
    assert not rep.applicable
    assert not rep.optimal


def test_cwc_bound_frozen_values():
    rep = cwc_bound(100, 98, 99, 34, achieved=100)
    assert rep.bound == Fraction(9800, 98)
    assert (rep.bound_num, rep.bound_den) == (100, 1)
    assert rep.applicable and rep.optimal
    assert "q" in rep.note


def test_dss_bound_frozen_values():
    rep = dss_bound(21, 20, 11, achieved_tau=21)
    # 20*20 + ceil(400/10) = 440, next square 441
    assert (rep.bound_num, rep.bound_den) == (21, 1)
    assert rep.applicable and rep.optimal

    rep = dss_bound(100, 98, 34, achieved_tau=100)
    # 9702 + 294 = 9996, next square 10000
    assert (rep.bound_num, rep.bound_den) == (100, 1)
    assert rep.optimal

    rep = dss_bound(21, 20, 11, achieved_tau=22)
    assert not rep.optimal  # dss optimality is equality, not floor


def test_reports_match_direct_bounds(z7_product):
    res = verify_zdb(z7_product)
    ccc = ccc_from_zdb(z7_product, res)
    cwc = cwc_from_zdb(z7_product, res)
    dss = dss_from_zdb(z7_product, res)
    assert ccc_report(ccc).to_json() == ccc_bound(21, 20, ccc.composition, 21).to_json()
    assert cwc_report(cwc).to_json() == cwc_bound(21, 20, 20, 11, 21).to_json()
    assert dss_report(dss).to_json() == dss_bound(21, 20, 11, 21).to_json()
    for rep in (ccc_report(ccc), cwc_report(cwc), dss_report(dss)):
        assert rep.applicable and rep.optimal


def test_codebook_json_and_csv_round_trip(z7_product):
    book = ccc_from_zdb(z7_product)
    data = book.to_json()
    again = CodeBook.from_json(data)
    assert again.to_json() == data
    assert np.array_equal(again.codewords, book.codewords)
    csv = book.to_csv()
    rows = [line.split(",") for line in csv.strip().split("\n")]
    assert len(rows) == 21 and all(len(r) == 21 for r in rows)
    assert [int(x) for x in rows[0]] == list(z7_product.table)


def test_dss_json_round_trip(z7_product):
    system = dss_from_zdb(z7_product)
    data = system.to_json()
    assert data["kind"] == "DSS"
    again = DssSystem.from_json(data)
    assert again.to_json() == data
    assert np.array_equal(again.points, system.points)
    assert np.array_equal(again.ends, system.ends)


def test_dss_check_rejects_overlapping_blocks():
    system = DssSystem(
        domain=RingAdditiveDomain(ResidueRing(4)),
        points=np.array([0, 1, 1, 2]),  # blocks (0, 1), (1, 2)
        ends=np.array([2, 4]),
        q=2,
        tau=4,
        lam=None,
        perfect=False,
        partitioned=False,
    )
    with pytest.raises(RuntimeError):
        dss_perfect_check(system)


@pytest.mark.parametrize("element", [4, 9, -1])
def test_dss_check_rejects_elements_outside_the_group(element):
    # the points are checked once, when the system is made
    with pytest.raises(ValueError, match=f"block element {element} "):
        DssSystem(
            domain=RingAdditiveDomain(ResidueRing(4)),
            points=np.array([0, element, 1]),  # blocks (0, element), (1,)
            ends=np.array([2, 3]),
            q=2,
            tau=3,
            lam=None,
            perfect=False,
            partitioned=False,
        )


def _z4_system(points, ends):
    return DssSystem(RingAdditiveDomain(ResidueRing(4)), points, ends, 2, 4, None, False, False)


def test_dss_blocks_are_two_read_only_arrays(z7_product):
    built = dss_from_zdb(z7_product)
    for system in (built, DssSystem.from_json(built.to_json())):
        # positions below 2**31: points int32 by the group order, ends by the point count
        assert system.points.dtype == system.ends.dtype == np.int32
        assert len(system.ends) == 11 and system.ends[-1] == len(system.points) == 21
        with pytest.raises(ValueError, match="read-only"):
            system.points[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            system.blocks[1][0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.points = np.arange(21)
    assert built.recount() == (11, 21, True)
    source = np.array([0, 3, 1, 2])
    system = _z4_system(source, np.array([2, 4]))
    source[0] = 5  # the system holds its own copy
    assert system.to_json()["blocks"] == [[0, 3], [1, 2]]
    assert _z4_system(np.array([0, 1]), np.array([1, 2])).recount() == (2, 2, False)
    # a group of order 2**31 takes int64 points; two points keep int32 ends
    wide = DssSystem(RingAdditiveDomain(ResidueRing(2**31)), np.array([0, 2**31 - 1]),
                     np.array([1, 2]), 2, 2, None, False, False)
    assert (wide.points.dtype, wide.ends.dtype) == (np.int64, np.int32)
    assert wide.points.tolist() == [0, 2**31 - 1]


@pytest.mark.parametrize(
    "points, ends, match",
    [
        (np.array([0.0, 1.0]), np.array([1, 2]), "must be 1-D integer arrays"),
        (np.array([True, False]), np.array([1, 2]), "must be 1-D integer arrays"),
        (np.array([0, 1]), np.array([[1, 2]]), "must be 1-D integer arrays"),
        (np.array([0, 1]), np.array([2, 1]), "must ascend from 0 to the number of points"),
        (np.array([0, 1]), np.array([1]), "must ascend from 0 to the number of points"),
        (np.array([0, 1]), np.array([], dtype=np.int64), "must ascend"),
        (np.array([0, 2**63 + 5], dtype=np.uint64), np.array([2]), f"block element {2**63 + 5} "),
    ],
)
def test_dss_system_refuses_malformed_arrays(points, ends, match):
    with pytest.raises(ValueError, match=match):
        _z4_system(points, ends)


@pytest.mark.parametrize("element", [True, 1.5, -1, 7, 2**70, None, "1"])
def test_dss_from_json_refuses_what_is_not_a_group_element(element):
    # checked as JSON values: numpy would read True as 1, 1.5 as a float, 2**70 as an object;
    # the first element that is not a group element is named, the 8 after it is not
    z7 = ResidueRing(7)
    data = dss_from_zdb(construct_generic(z7, cyclic_subgroup(z7, 2))).to_json()
    data["blocks"][1][1:1] = [element, 8]
    note = f"block element {element!r} is not an element of the group of order 7"
    with pytest.raises(ValueError, match=f"^{re.escape(note)}$"):
        DssSystem.from_json(data)
