"""Recipe searches cross-checked against an independent sieve, closed
form parameter promises, and hypothesis rejection."""

import pytest

from zdbkit import (
    CertificationError,
    MatrixRing,
    GaloisField,
    Recipe,
    RecipeHypothesisError,
    ResidueRing,
    certify_all,
    find_element_of_order,
    run_recipe,
    search_cor1,
    search_cor2,
    search_cor2_scan,
)


def naive_factor(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def admissible_cor1(n, e):
    """Independent restatement: n odd, every prime factor 1 mod e(e-1)."""
    return n % 2 == 1 and all(p % (e * (e - 1)) == 1 for p in naive_factor(n))


@pytest.mark.parametrize("e,expected", [
    (3, [7, 13, 19, 31, 37, 43, 49, 61, 67, 73, 79, 91, 97]),
    (4, [13, 37, 61, 73, 97]),
])
def test_search_cor1_against_sieve(e, expected):
    results = search_cor1(100, e)
    ns = [r.metadata["n"] for r in results]
    assert ns == expected
    assert ns == [n for n in range(3, 101) if admissible_cor1(n, e)]
    for r in results:
        n = r.metadata["n"]
        assert r.certified == (e * n, (e * n - 1) // (e - 1) + 1, e - 2)
        assert len(r.g_elements) == e
        assert len(r.h_elements) == e - 1


def test_search_cor1_rejects_bad_arguments():
    with pytest.raises(ValueError):
        search_cor1(100, 1)
    with pytest.raises(ValueError):
        search_cor1(2, 3)


def test_search_cor2_single_field():
    r = search_cor2([25], 4)
    assert r.certified == (100, 34, 2)
    assert r.construction == "product"


def test_search_cor2_field_product():
    r = search_cor2([7, 13], 3)
    assert r.certified == (273, 137, 1)


def test_search_cor2_names_the_offending_field():
    with pytest.raises(RecipeHypothesisError) as info:
        search_cor2([25, 8], 4)
    assert "8" in str(info.value)


def test_cor2_hypotheses_fail_with_one_error_type():
    for q_list, e, fragment in (([25], 1, "at least 2"), ([], 4, "empty"), ([24], 4, "prime")):
        with pytest.raises(RecipeHypothesisError, match=fragment):
            search_cor2(q_list, e)
        with pytest.raises(RecipeHypothesisError, match=fragment):
            run_recipe(Recipe("cor2", {"q_list": q_list, "e": e}))


def test_search_cor2_scan_covers_admissible_prime_powers():
    labels = [r.label for r in search_cor2_scan(100, 4)]
    assert labels == [
        "cor2 q=[13] e=4",
        "cor2 q=[25] e=4",
        "cor2 q=[37] e=4",
        "cor2 q=[49] e=4",
        "cor2 q=[61] e=4",
        "cor2 q=[73] e=4",
        "cor2 q=[97] e=4",
    ]


RECIPE_CASES = [
    (Recipe("cai_thm1", {"n": 7, "e": 3}), (7, 3, 2), "generic"),
    (Recipe("ding_thm1", {"q_list": [7, 13], "e": 3}), (91, 31, 2), "generic"),
    (Recipe("ding_thm3", {"m": 5}), (31, 7, 4), "generic"),
    (Recipe("ding_thm5", {"m": 5}), (31, 4, 9), "doubled"),
    (Recipe("zha_cor1", {"b": 3, "s": 5}), (121, 25, 4), "generic"),
    (Recipe("zha_cor2", {"b": 3, "s": 5}), (121, 13, 9), "doubled"),
    (Recipe("zha_thm2", {"b": 2, "s": 5}), (961, 193, 4), "generic"),
    (Recipe("cor1", {"n": 7, "e": 3}), (21, 11, 1), "product"),
    (Recipe("cor2", {"q_list": [25], "e": 4}), (100, 34, 2), "product"),
    (Recipe("cor2", {"q_list": [121], "e": 6}), (726, 146, 4), "product"),
]


@pytest.mark.parametrize(
    "recipe,expected,construction",
    RECIPE_CASES,
    ids=[f"{r.id}-{v}" for r, v, _ in RECIPE_CASES],
)
def test_recipe_closed_forms(recipe, expected, construction):
    result = run_recipe(recipe)
    assert result.certified == expected
    assert result.expected == expected
    assert result.construction == construction
    assert result.recipe_id == recipe.id


def test_ding_thm3_allows_m_equals_two():
    # the smallest prime; the subgroup degenerates to {1, 2} in Z_3
    result = run_recipe(Recipe("ding_thm3", {"m": 2}))
    assert result.certified == (3, 2, 1)


HYPOTHESIS_CASES = [
    (Recipe("ding_thm3", {"m": 4}), "prime"),
    (Recipe("ding_thm5", {"m": 2}), "odd"),
    (Recipe("zha_cor1", {"b": 3, "s": 4}), "prime"),
    (Recipe("zha_cor2", {"b": 3, "s": 2}), "odd"),
    (Recipe("zha_thm2", {"b": 4, "s": 3}), "gcd"),
    (Recipe("zha_thm2", {"b": 3, "s": 5}), "prime"),
    (Recipe("cai_thm1", {"n": 8, "e": 3}), "odd"),
    (Recipe("cor1", {"n": 15, "e": 3}), "1 mod"),
]


@pytest.mark.parametrize(
    "recipe,fragment",
    HYPOTHESIS_CASES,
    ids=[f"{r.id}-{f}" for r, f in HYPOTHESIS_CASES],
)
def test_hypothesis_violations_are_named(recipe, fragment):
    with pytest.raises(RecipeHypothesisError) as info:
        run_recipe(recipe)
    assert fragment in str(info.value)


def test_unknown_recipe_id():
    with pytest.raises(ValueError):
        run_recipe(Recipe("bogus", {}))


def test_find_element_of_order():
    ring = ResidueRing(7)
    assert find_element_of_order(ring, 3) == 2
    assert find_element_of_order(ring, 6) == 3
    assert find_element_of_order(ring, 1) == 1
    assert find_element_of_order(ring, 5) is None
    mat = MatrixRing(2, GaloisField(5))
    b = find_element_of_order(mat, 4)
    acc, k = b, 1
    while acc != mat.one():
        acc = mat.mul(acc, b)
        k += 1
    assert k == 4


def test_default_catalog_shape(catalog):
    assert len(catalog) == 23
    labels = [r.label for r in catalog]
    assert len(set(labels)) == len(labels)
    constructions = {r.construction for r in catalog}
    assert constructions == {"generic", "product", "doubled"}
    kinds = {r.ring.to_json()["kind"] for r in catalog}
    assert kinds == {"residue", "field", "product", "matrix"}
    assert max(r.certified[0] for r in catalog) == 2500


def test_certification_covers_every_instance(catalog, certification):
    assert len(certification.rows) == len(catalog)
    assert certification.summary() == "certified 23 instances"
    for row in certification.rows:
        assert row["profile_ok"]
    product_rows = [r for r in certification.rows if r["construction"] == "product"]
    assert len(product_rows) >= 10
    for row in product_rows:
        for kind in ("ccc", "cwc", "dss"):
            assert row["bounds"][kind]["optimal"] is True


def test_certify_all_flags_wrong_expectations(catalog):
    bad = catalog[0]
    doctored = type(bad)(
        label=bad.label,
        recipe_id=bad.recipe_id,
        ring=bad.ring,
        construction=bad.construction,
        g_elements=bad.g_elements,
        h_elements=bad.h_elements,
        expected=(bad.expected[0], bad.expected[1], bad.expected[2] + 1),
        certified=bad.certified,
        fn=bad.fn,
        metadata=bad.metadata,
    )
    with pytest.raises(CertificationError) as info:
        certify_all([doctored])
    assert bad.label in str(info.value)
