"""Acceptance gate: the ten criteria the artifact must meet, one test
per criterion, each printing a PASS line with its measured evidence."""

import time

import pytest

from zdbkit import (
    ConditionNotSatisfiedError,
    RecipeHypothesisError,
    ResidueRing,
    RingAdditiveDomain,
    ZdbFunction,
    check_unit_difference,
    composition_profile,
    coset_partition,
    cyclic_subgroup,
    difference_spectrum,
    dss_from_zdb,
    dss_perfect_check,
    Recipe,
    run_recipe,
    subgroup_from_elements,
    verify_zdb,
)
from lemmas import check_column_ratios, check_solution_set


def _by_label(catalog, label):
    match = [r for r in catalog if r.label == label]
    assert len(match) == 1, f"catalog must contain exactly one {label!r}"
    return match[0]


def test_criterion_01_cor2_search_builds_100_34_2():
    t0 = time.perf_counter()
    result = run_recipe(Recipe("cor2", {"q_list": [25], "e": 4}))
    elapsed = time.perf_counter() - t0
    assert result.certified == (100, 34, 2)

    spec = difference_spectrum(result.fn)
    assert spec.is_constant and spec.min_count == 2
    assert len(set(result.fn.table)) == 34
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"criterion 1 PASS: (100, 34, 2) certified in {elapsed:.3f}s, spectrum constant at 2")


def test_criterion_02_matrix_instance_2500_834_2(catalog):
    result = _by_label(catalog, "matrix M2(F5) e=4")
    # G = <3I>, H = <[[4,4],[1,0]]> in row-major base-5 element indices
    assert result.g_elements == (126, 252, 378, 504)
    assert 378 in result.g_elements
    assert result.h_elements == (49, 126, 605)

    t0 = time.perf_counter()
    res = verify_zdb(result.fn)
    elapsed = time.perf_counter() - t0
    assert res.ok
    assert res.certified_parameters() == (2500, 834, 2)
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 2 PASS: (2500, 834, 2) verified exhaustively in {elapsed:.2f}s")


def test_criterion_03_gf121_instance_726_146_4(catalog):
    result = _by_label(catalog, "cor2 q=[121] e=6")
    assert result.ring.to_json() == {"kind": "field", "p": 11, "r": 2, "modulus": [1, 0, 1]}
    assert len(result.g_elements) == 6
    assert result.certified == (726, 146, 4)
    assert verify_zdb(result.fn).certified_parameters() == (726, 146, 4)
    print("criterion 3 PASS: (726, 146, 4) over GF(121) with e = 6 certified")


def test_criterion_04_product_parameter_law(catalog, certification):
    products = [r for r in catalog if r.construction == "product"]
    assert len(products) >= 10
    kinds = {r.ring.to_json()["kind"] for r in products}
    assert kinds == {"residue", "field", "product", "matrix"}
    for r in products:
        e = len(r.g_elements)
        n = r.ring.order
        en = e * n
        assert en <= 2500
        assert r.certified == (en, (en - 1) // (e - 1) + 1, e - 2), r.label
    certified_labels = {row["label"] for row in certification.rows}
    assert all(r.label in certified_labels for r in products)
    print(f"criterion 4 PASS: (en, (en-1)/(e-1)+1, e-2) exact on {len(products)} product triples")


def test_criterion_05_generic_and_doubled_laws(catalog):
    generics = [r for r in catalog if r.construction == "generic"]
    doubles = [r for r in catalog if r.construction == "doubled"]
    assert generics and doubles
    for r in generics:
        e = len(r.g_elements)
        n = r.ring.order
        assert r.certified == (n, (n - 1) // e + 1, e - 1), r.label
    for r in doubles:
        e = len(r.g_elements)  # the undoubled generator subgroup
        n = r.ring.order
        assert r.certified == (n, (n - 1) // (2 * e) + 1, 2 * e - 1), r.label
    assert any(r.certified == (31, 7, 4) for r in generics)
    assert any(r.certified == (31, 4, 9) for r in doubles)
    print(
        f"criterion 5 PASS: generic law on {len(generics)} and doubled law on "
        f"{len(doubles)} instances, including (31, 7, 4) and (31, 4, 9)"
    )


def test_criterion_06_composition_profile(catalog):
    products = [r for r in catalog if r.construction == "product"]
    for r in products:
        e = len(r.g_elements)
        n, m, lam = r.certified
        profile = composition_profile(r.fn)
        assert profile.sorted_counts == tuple(sorted([1] + [e - 1] * (m - 1))), r.label
    print(f"criterion 6 PASS: profile {{1, (e-1) x (m-1)}} exact on {len(products)} instances")


def test_criterion_07_bounds_met_with_equality(catalog, certification):
    rows = {row["label"]: row for row in certification.rows}
    products = [r for r in catalog if r.construction == "product"]
    for r in products:
        bounds = rows[r.label]["bounds"]
        for kind in ("ccc", "cwc", "dss"):
            assert bounds[kind]["applicable"] is True, (r.label, kind)
            assert bounds[kind]["optimal"] is True, (r.label, kind)
        e = len(r.g_elements)
        n_ring = r.ring.order
        system = dss_from_zdb(r.fn)
        chk = dss_perfect_check(system)
        assert chk.perfect
        assert chk.lam == e * n_ring - e + 2, r.label
    print(
        f"criterion 7 PASS: CCC, CWC, DSS bounds met with equality and the "
        f"difference system is perfect at en - e + 2 on {len(products)} instances"
    )


def test_criterion_08_column_ratio_bijection(catalog):
    checked = 0
    for r in catalog:
        ring = r.ring
        if ring.order > 200:
            continue
        groups = [subgroup_from_elements(ring, r.g_elements)]
        if r.h_elements is not None:
            groups.append(subgroup_from_elements(ring, r.h_elements))
        if r.construction == "doubled":
            groups.append(
                subgroup_from_elements(
                    ring, r.fn.provenance["doubled_group"]["elements"]
                )
            )
        for group in groups:
            part = coset_partition(ring, group)
            assert check_column_ratios(part), (r.label, group.elements)
            checked += 1
    assert checked >= 20
    print(f"criterion 8 PASS: CI ratio map is a pointed bijection on {checked} partitions")


def test_criterion_09_solution_sets_match_closed_form(catalog):
    seen = set()
    checked_shifts = 0
    for r in catalog:
        ring = r.ring
        if ring.order > 500 or not ring.is_commutative():
            continue
        groups = [tuple(r.g_elements)]
        if r.construction == "doubled":
            groups.append(tuple(r.fn.provenance["doubled_group"]["elements"]))
        for elements in groups:
            key = (ring, elements)
            if key in seen:
                continue
            seen.add(key)
            group = subgroup_from_elements(ring, elements)
            for a in range(1, ring.order):
                assert check_solution_set(ring, group, a), (r.label, a)
                checked_shifts += 1
    assert checked_shifts >= 800
    print(f"criterion 9 PASS: closed-form solution sets match brute force on {checked_shifts} shifts")


def test_criterion_10_negative_controls(z7_product):
    # a corrupted table must fail with a concrete witness shift
    table = list(z7_product.table)
    table[4] = (table[4] + 3) % 11
    res = verify_zdb(ZdbFunction(z7_product.domain, 11, table, 1))
    assert not res.ok and res.witness_shift is not None
    assert res.actual != res.expected

    bad = ZdbFunction(RingAdditiveDomain(ResidueRing(4)), 3, [0, 1, 2, 0], 1)
    res4 = verify_zdb(bad)
    assert (res4.witness_shift, res4.expected, res4.actual) == (2, 1, 0)

    # Z_15 with G = <4>: 4 - 1 = 3 is a zero divisor
    z15 = ResidueRing(15)
    g15 = cyclic_subgroup(z15, 4)
    assert not check_unit_difference(z15, g15)
    with pytest.raises(ConditionNotSatisfiedError):
        coset_partition(z15, g15)
    # the same failure for <2> = {1, 2, 4, 8}, the ding_thm3 m = 4 subgroup
    assert not check_unit_difference(z15, cyclic_subgroup(z15, 2))

    with pytest.raises(RecipeHypothesisError) as info:
        run_recipe(Recipe("ding_thm3", {"m": 4}))
    assert "prime" in str(info.value)
    with pytest.raises(RecipeHypothesisError) as info:
        run_recipe(Recipe("zha_thm2", {"b": 4, "s": 3}))
    assert "gcd" in str(info.value)

    print(
        "criterion 10 PASS: corrupted table caught with witness shift "
        f"{res.witness_shift}, Z_15 rejected, hypothesis violations named"
    )
