"""Recipe searches cross-checked against an independent sieve, closed
form parameter promises, hypothesis rejection, random params per recipe,
and the CLI output bytes frozen before the recipe table was introduced."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdbkit import (
    RECIPE_IDS,
    CertificationError,
    MatrixRing,
    GaloisField,
    NotFoundError,
    Recipe,
    RecipeHypothesisError,
    ResidueRing,
    ZdbFunction,
    certify_all,
    find_element_of_order,
    run_recipe,
    search,
    verify_zdb,
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
    results = search(Recipe("cor1", {"e": e}), 100)
    ns = [r.metadata["n"] for r in results]
    assert ns == expected
    assert ns == [n for n in range(3, 101) if admissible_cor1(n, e)]
    for r in results:
        n = r.metadata["n"]
        assert r.certified == (e * n, (e * n - 1) // (e - 1) + 1, e - 2)
        assert len(r.g_elements) == e
        assert len(r.h_elements) == e - 1


def test_search_cor1_rejects_bad_arguments():
    # every candidate is refused, and the last refusal is named
    with pytest.raises(NotFoundError, match="e must be at least 2, got 1"):
        search(Recipe("cor1", {"e": 1}), 100)
    with pytest.raises(NotFoundError, match="n must be at least 3, got 2"):
        search(Recipe("cor1", {"e": 3}), 2)


@pytest.mark.parametrize("recipe,fragment", [
    (Recipe("cor1", {"n": 7, "e": 3}), "omit one of"),
    (Recipe("cor1", {}), "omit one of"),
    (Recipe("cor1", [3]), "omit one of"),
    (Recipe("cor1", {"e": 3, "x": 1}), "unknown field 'x'"),
    (Recipe("cor0", {"e": 3}), "unknown recipe id"),
])
def test_search_needs_a_known_recipe_with_one_param_left_out(recipe, fragment):
    with pytest.raises(ValueError, match=fragment):
        search(recipe, 10)


def test_search_cor2_single_field():
    r = run_recipe(Recipe("cor2", {"q_list": [25], "e": 4}))
    assert r.certified == (100, 34, 2)
    assert r.construction == "product"


def test_search_cor2_field_product():
    r = run_recipe(Recipe("cor2", {"q_list": [7, 13], "e": 3}))
    assert r.certified == (273, 137, 1)


def test_search_cor2_names_the_offending_field():
    with pytest.raises(RecipeHypothesisError) as info:
        run_recipe(Recipe("cor2", {"q_list": [25, 8], "e": 4}))
    assert "8" in str(info.value)


def test_cor2_hypotheses_fail_with_one_error_type():
    for q_list, e, fragment in (([25], 1, "at least 2"), ([], 4, "empty"), ([24], 4, "prime")):
        with pytest.raises(RecipeHypothesisError, match=fragment):
            run_recipe(Recipe("cor2", {"q_list": q_list, "e": e}))


def test_search_cor2_scan_covers_admissible_prime_powers():
    labels = [r.label for r in search(Recipe("cor2", {"e": 4}), 100)]
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
        verification=bad.verification,
        metadata=bad.metadata,
    )
    with pytest.raises(CertificationError) as info:
        certify_all([doctored])
    assert bad.label in str(info.value)


def test_certify_all_refuses_a_verification_of_another_function(catalog):
    bad, other = catalog[0], catalog[1]
    swapped = dataclasses.replace(bad, verification=other.verification)
    with pytest.raises(CertificationError, match="belongs to a different function") as info:
        certify_all([swapped])
    assert bad.label in str(info.value)
    # an equal verification of an equal table is still another function's
    twin = ZdbFunction.from_json(bad.fn.to_json())
    assert verify_zdb(twin) == bad.verification
    with pytest.raises(CertificationError, match="belongs to a different function"):
        certify_all([dataclasses.replace(bad, verification=verify_zdb(twin))])


def test_certify_all_refuses_a_failed_verification(catalog):
    bad = catalog[0]
    failed = dataclasses.replace(bad.verification, ok=False, failure_kind="spectrum")
    with pytest.raises(CertificationError, match="verification failed") as info:
        certify_all([dataclasses.replace(bad, verification=failed)])
    assert bad.label in str(info.value)


ROOT = Path(__file__).resolve().parents[1]
FROZEN = json.loads((ROOT / "tests" / "catalog_frozen.json").read_text())
FROZEN_RECIPES = {(x["id"], json.dumps(x["params"])): x["output"] for x in FROZEN["recipe"]}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_catalog_certify_bytes_match_the_benchmark_golden(run_cli):
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    golden = golden["certify"]["catalog_certify"]
    code, out, err = run_cli(["catalog", "certify", "--all"])
    assert code == golden["rc"]
    assert _sha256(out) == golden["stdout"]
    assert _sha256(err) == golden["stderr"]


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


@pytest.mark.parametrize(
    "recipe", [r for r, _, _ in RECIPE_CASES], ids=[f"{r.id}-{v}" for r, v, _ in RECIPE_CASES]
)
def test_recipe_output_is_frozen(run_cli, recipe):
    params = json.dumps(recipe.params)
    code, out, _ = run_cli(["catalog", "recipe", "--id", recipe.id, "--params", params])
    assert code == 0
    assert out == _dumps(FROZEN_RECIPES[recipe.id, params]) + "\n"


@pytest.mark.parametrize(
    "frozen", FROZEN["search"], ids=lambda x: f"{x['construction']}-e{x['e']}"
)
def test_search_output_is_frozen(run_cli, frozen):
    params = f'{{"e":{frozen["e"]}}}'
    argv = ["catalog", "search", "--id", frozen["construction"], "--params", params]
    code, out, _ = run_cli(argv + ["--max", str(frozen["max"])])
    assert code == 0
    assert out == "".join(_dumps(x) + "\n" for x in frozen["output"])


PRIMES = [p for p in range(2, 500) if naive_factor(p) == [p]]


def _or_admissible(raw, admissible):
    """raw draws, mixed with draws from the admissible values when there are any."""
    return st.one_of(raw, st.sampled_from(admissible)) if admissible else raw


def _cor1_params(e):
    admissible = [n for n in range(3, 300) if e >= 2 and admissible_cor1(n, e)]
    n = _or_admissible(st.integers(-5, 300), admissible)
    return st.fixed_dictionaries({"n": n, "e": st.just(e)})


def _field_params(e, step):
    """q_list of at most two entries, each a prime power 1 mod step or any small integer."""
    prime_powers = [q for q in range(2, 101) if len(set(naive_factor(q))) == 1]
    admissible = [q for q in prime_powers if step > 0 and (q - 1) % step == 0]
    q = _or_admissible(st.integers(-5, 100), admissible)
    return st.fixed_dictionaries({"q_list": st.lists(q, max_size=2), "e": st.just(e)})


def _zha_params(max_order):
    """b and s such that the ring of a zha family stays at most max_order
    whenever the hypotheses let the recipe build it."""

    def small(params):
        b, s = params["b"], params["s"]
        return b < 2 or s < 1 or (b**s - 1) // (b - 1) <= max_order

    s = _or_admissible(st.integers(-3, 13), PRIMES[:6])
    return st.fixed_dictionaries({"b": st.integers(-3, 12), "s": s}).filter(small)


# small params, negative and zero included, mixed with params that meet the
# hypotheses; every ring order stays at most 10^4
RANDOM_PARAMS = {
    "cor1": st.integers(-2, 7).flatmap(_cor1_params),
    "cor2": st.integers(-2, 7).flatmap(lambda e: _field_params(e, e * (e - 1))),
    "ding_thm1": st.integers(-2, 12).flatmap(lambda e: _field_params(e, e)),
    "ding_thm3": st.fixed_dictionaries({"m": st.integers(-3, 13)}),
    "ding_thm5": st.fixed_dictionaries({"m": st.integers(-3, 13)}),
    "zha_cor1": _zha_params(10**4),
    "zha_cor2": _zha_params(10**4),
    "zha_thm2": _zha_params(100),
    "cai_thm1": st.fixed_dictionaries(
        {"n": _or_admissible(st.integers(-3, 500), PRIMES), "e": st.integers(-2, 12)}
    ),
}


@pytest.mark.parametrize("recipe_id", RECIPE_IDS)
def test_random_params_certify_or_fail_with_a_named_error(recipe_id):
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(RANDOM_PARAMS[recipe_id])
    def check(params):
        try:
            result = run_recipe(Recipe(recipe_id, params))
        except (RecipeHypothesisError, NotFoundError):
            return
        assert result.certified == result.expected

    check()


def _walks(fixed, name, top):
    """Draws of (params without name, name, a top of at most top)."""
    return st.tuples(st.fixed_dictionaries(fixed), st.just(name), st.integers(0, top))


_Q_LIST = st.lists(st.integers(-3, 50), max_size=2)
_E = st.integers(-1, 5)

# one draw per left-out name; every ring a walk reaches has order at most about 2 x 10^4
SEARCH_WALKS = {
    "cor1": _walks({"e": _E}, "n", 60) | _walks({"n": st.integers(-3, 100)}, "e", 8),
    "cor2": _walks({"e": _E}, "q_list", 60) | _walks({"q_list": _Q_LIST}, "e", 8),
    "ding_thm1": _walks({"e": _E}, "q_list", 60) | _walks({"q_list": _Q_LIST}, "e", 8),
    "ding_thm3": _walks({}, "m", 13),
    "ding_thm5": _walks({}, "m", 13),
    "zha_cor1": _walks({"s": _E}, "b", 10) | _walks({"b": _E}, "s", 7),
    "zha_cor2": _walks({"s": _E}, "b", 10) | _walks({"b": _E}, "s", 7),
    "zha_thm2": _walks({"s": _E}, "b", 6) | _walks({"b": _E}, "s", 5),
    "cai_thm1": _walks({"e": st.integers(-1, 8)}, "n", 60)
    | _walks({"n": st.integers(-3, 100)}, "e", 10),
}


def _certified_candidates(recipe_id, params, name, top):
    """run_recipe on each candidate of the walk in turn: the rows of those that certify."""
    rows = []
    for value in range(top + 1):
        candidate = Recipe(recipe_id, {**params, name: [value] if name == "q_list" else value})
        try:
            rows.append(run_recipe(candidate).to_json())
        except (RecipeHypothesisError, NotFoundError):
            continue
    return rows


@pytest.mark.parametrize("recipe_id", RECIPE_IDS)
def test_search_keeps_each_candidate_that_certifies(recipe_id):
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(SEARCH_WALKS[recipe_id])
    def check(walk):
        params, name, top = walk
        rows = _certified_candidates(recipe_id, params, name, top)
        if not rows:
            with pytest.raises(NotFoundError):
                search(Recipe(recipe_id, params), top)
        else:
            assert [r.to_json() for r in search(Recipe(recipe_id, params), top)] == rows

    check()
