"""Parameterized families of balanced functions, and batch certification.

The recipe book is one table, ``_RECIPES``: each recipe id maps to its
param names, in label order, and to one function of those params that
checks the family's hypotheses (the only place they are checked) and
returns (ring, construction, e, g, h, metadata), with g and h the
generators of G and, for the product construction, of H.  Generators
found by search are the smallest-index ones of their order.

* ``cor1``       product on Z_n, unit-difference G and H; n odd and
  every prime of n 1 mod e(e-1).
* ``cor2``       product on the fields GF(q_i), componentwise G and H;
  e(e-1) | q_i - 1.
* ``ding_thm1``  generic on the fields GF(q_i), componentwise G; e | q_i - 1.
* ``ding_thm3``  generic on Z_(2^m - 1), G = <2>; m prime.
* ``ding_thm5``  ding_thm3 doubled; m an odd prime.
* ``zha_cor1``   generic on Z_p, p = (b^s - 1)/(b - 1), G = <b>; s prime,
  gcd(s, b - 1) = 1.
* ``zha_cor2``   zha_cor1 doubled; s an odd prime.
* ``zha_thm2``   generic on F_p x F_p, G = <(b, b)>; zha_cor1's p an odd prime.
* ``cai_thm1``   generic on Z_n, unit-difference G; n odd for e >= 2.

The closed form follows from the construction, the ring order n and e
alone: generic (n, (n-1)/e + 1, e-1), doubled the same with 2e for e,
product (en, (en-1)/(e-1) + 1, e-2).  ``run_recipe`` reads the params
strictly (exact integers, no missing or unknown names), runs the family
function, builds and verifies the instance exhaustively, and matches
the closed form; ``search_cor1`` and ``search_cor2_scan`` keep the
candidates of a range whose hypotheses hold.  Each result keeps the
verification its build made; a function's table is read-only, so that
result stays valid.  ``certify_all`` checks each result against the
closed form and the composition profile and, on product instances,
derives all three designs from it and demands every bound be met with
equality.  It counts no spectrum again.  Any failure aborts with the
instance named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import factorize, is_prime, prime_power
from .codes import (
    ccc_from_zdb,
    ccc_report,
    cwc_from_zdb,
    cwc_report,
    dss_from_zdb,
    dss_report,
)
from .construct import (
    ZdbFunction,
    construct_doubled,
    construct_generic,
    construct_product,
)
from .cosets import check_unit_difference, cyclic_subgroup
from .errors import (
    CertificationError,
    NotFoundError,
    RecipeHypothesisError,
    VerificationError,
    _field,
    _int_list,
)
from .rings import GaloisField, MatrixRing, ProductRing, ResidueRing, Ring
from .verify import VerificationResult, composition_profile, verify_zdb

__all__ = [
    "Recipe",
    "SearchResult",
    "CertificationReport",
    "RECIPE_IDS",
    "find_element_of_order",
    "search_cor1",
    "search_cor2_scan",
    "run_recipe",
    "default_catalog",
    "certify_all",
]


@dataclass(frozen=True)
class Recipe:
    id: str
    params: dict

    def to_json(self) -> dict:
        return {"id": self.id, "params": self.params}


@dataclass
class SearchResult:
    """One constructed and certified instance; verification is the
    passing result of verify_zdb on fn that certified it."""

    label: str
    recipe_id: str | None
    ring: Ring
    construction: str  # generic | product | doubled
    g_elements: tuple[int, ...]
    h_elements: tuple[int, ...] | None
    expected: tuple[int, int, int]
    certified: tuple[int, int, int]
    fn: ZdbFunction
    verification: VerificationResult
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "recipe": self.recipe_id,
            "ring": self.ring.to_json(),
            "construction": self.construction,
            "g_elements": list(self.g_elements),
            "h_elements": None if self.h_elements is None else list(self.h_elements),
            "parameters": list(self.certified),
            "metadata": self.metadata,
        }


@dataclass
class CertificationReport:
    rows: list[dict]

    def to_json(self) -> dict:
        return {"instances": self.rows, "count": len(self.rows)}

    def summary(self) -> str:
        return f"certified {len(self.rows)} instances"


# candidates raised to their powers at once by find_element_of_order
_SEARCH_CHUNK = 1 << 16


def find_element_of_order(
    ring: Ring, e: int, require_unit_difference: bool = False
) -> int | None:
    """Smallest-index unit of multiplicative order exactly e, or None.

    With require_unit_difference the cyclic subgroup it generates must
    also pass the unit-difference check.  Candidates b are taken in
    index order, about 2^16 at a time, and raised to the powers 1 .. e
    by ``mul_vec``; b^e = 1 already makes b a unit.
    """
    if e < 1:
        raise ValueError(f"order must be positive, got {e}")
    one = ring.one()
    for start in range(1, ring.order, _SEARCH_CHUNK):
        b = np.arange(start, min(start + _SEARCH_CHUNK, ring.order), dtype=np.int64)
        x, short = b, np.zeros(len(b), dtype=bool)  # short: b^j = 1 for some j < e
        for _ in range(e - 1):
            short |= x == one
            x = ring.mul_vec(x, b)
        for cand in b[(x == one) & ~short].tolist():
            if require_unit_difference and not check_unit_difference(
                ring, cyclic_subgroup(ring, cand)
            ):
                continue
            return cand
    return None


def _closed_form(construction: str, n: int, e: int) -> tuple[int, int, int]:
    """The promised (n, m, lambda) of a construction over a ring of order n."""
    if construction == "product":
        return (e * n, (e * n - 1) // (e - 1) + 1, e - 2)
    k = 2 * e if construction == "doubled" else e
    return (n, (n - 1) // k + 1, k - 1)


def _certified_build(
    label: str,
    recipe_id: str | None,
    ring: Ring,
    construction: str,
    e: int,
    g: int,
    h: int | None = None,
    metadata: dict | None = None,
) -> SearchResult:
    g_group = cyclic_subgroup(ring, g)
    h_group = None if h is None else cyclic_subgroup(ring, h)
    if construction == "generic":
        fn = construct_generic(ring, g_group)
    elif construction == "doubled":
        fn = construct_doubled(ring, g_group)
    elif construction == "product":
        fn = construct_product(ring, g_group, h_group)
    else:
        raise ValueError(f"unknown construction {construction!r}")
    expected = _closed_form(construction, ring.order, e)
    result = verify_zdb(fn)
    if not result.ok:
        raise VerificationError(f"{label}: verification failed: {result.to_json()}")
    certified = result.certified_parameters()
    if certified != expected:
        raise VerificationError(
            f"{label}: certified parameters {certified} differ from the closed form {expected}"
        )
    return SearchResult(
        label=label,
        recipe_id=recipe_id,
        ring=ring,
        construction=construction,
        g_elements=g_group.elements,
        h_elements=None if h_group is None else h_group.elements,
        expected=expected,
        certified=certified,
        fn=fn,
        verification=result,
        metadata=metadata or {},
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RecipeHypothesisError(message)


def _at_least(name: str, value: int, low: int) -> None:
    bound = "positive" if low == 1 else f"at least {low}"
    _require(value >= low, f"{name} must be {bound}, got {value}")


def _unit_difference_generator(ring: ResidueRing, order: int) -> int:
    b = find_element_of_order(ring, order, require_unit_difference=True)
    if b is None:
        raise NotFoundError(f"no unit-difference generator of order {order} in Z_{ring.n}")
    return b


def _field_product(q_list: list[int]) -> tuple[Ring, list[GaloisField]]:
    """The field, or product of fields, of the prime powers in q_list."""
    _require(bool(q_list), "q_list cannot be empty")
    fields = [GaloisField(*prime_power(q)) for q in q_list]
    return (fields[0] if len(fields) == 1 else ProductRing(fields)), fields


def _componentwise_generator(ring: Ring, fields: list[GaloisField], order: int) -> int:
    parts = []
    for f in fields:
        b = find_element_of_order(f, order)
        if b is None:
            raise NotFoundError(f"no element of order {order} in GF({f.order})")
        parts.append(b)
    return parts[0] if len(fields) == 1 else ring._encode(parts)


def _zha_p(b: int, s: int, odd_s: bool) -> int:
    """p = (b^s - 1)/(b - 1), after the hypotheses the three zha families share."""
    _at_least("b", b, 2)
    _require(is_prime(s), f"s must be prime, got {s}")
    _require(not odd_s or s % 2 == 1, f"s must be odd, got {s}")
    _require(math.gcd(s, b - 1) == 1, f"gcd(s, b-1) must be 1, got gcd({s}, {b - 1})")
    return (b**s - 1) // (b - 1)


def _cor1(n: int, e: int):
    _at_least("e", e, 2)
    _at_least("n", n, 3)
    _require(
        n % 2 == 1 and all((p - 1) % (e * (e - 1)) == 0 for p in factorize(n)),
        f"every prime of n must be 1 mod e(e-1) = {e * (e - 1)} and n odd, got n = {n}",
    )
    ring = ResidueRing(n)
    g = _unit_difference_generator(ring, e)
    h = _unit_difference_generator(ring, e - 1)
    return ring, "product", e, g, h, {"n": n, "e": e, "isomorphic_to_cyclic": e * n}


def _cor2(q_list: list[int], e: int):
    _at_least("e", e, 2)
    step = e * (e - 1)
    for q in q_list:
        _require(prime_power(q) is not None, f"q_i = {q} is not a prime power")
        _require((q - 1) % step == 0, f"q_i = {q}: e(e-1) = {step} does not divide q_i - 1")
    ring, fields = _field_product(q_list)
    g = _componentwise_generator(ring, fields, e)
    h = _componentwise_generator(ring, fields, e - 1)
    return ring, "product", e, g, h, {}


def _ding_thm1(q_list: list[int], e: int):
    _at_least("e", e, 1)
    for q in q_list:
        _require(prime_power(q) is not None, f"q = {q} is not a prime power")
        _require((q - 1) % e == 0, f"e = {e} does not divide q - 1 for q = {q}")
    ring, fields = _field_product(q_list)
    return ring, "generic", e, _componentwise_generator(ring, fields, e), None, {}


def _ding_thm3(m: int):
    _require(is_prime(m), f"m must be prime, got {m}")
    n = 2**m - 1
    return ResidueRing(n), "generic", m, 2 % n, None, {}


def _ding_thm5(m: int):
    _require(is_prime(m) and m % 2 == 1, f"m must be an odd prime, got {m}")
    return ResidueRing(2**m - 1), "doubled", m, 2, None, {}


def _zha_cor1(b: int, s: int):
    p = _zha_p(b, s, odd_s=False)
    return ResidueRing(p), "generic", s, b % p, None, {}


def _zha_cor2(b: int, s: int):
    p = _zha_p(b, s, odd_s=True)
    return ResidueRing(p), "doubled", s, b % p, None, {}


def _zha_thm2(b: int, s: int):
    p = _zha_p(b, s, odd_s=False)
    _require(p % 2 == 1 and is_prime(p), f"(b^s - 1)/(b - 1) = {p} must be an odd prime")
    ring = ProductRing([GaloisField(p, 1)] * 2)
    return ring, "generic", s, ring._encode([b % p, b % p]), None, {}


def _cai_thm1(n: int, e: int):
    _at_least("n", n, 2)
    _at_least("e", e, 1)
    _require(e < 2 or n % 2 == 1, f"n must be odd for e >= 2, got n = {n}")
    ring = ResidueRing(n)
    return ring, "generic", e, _unit_difference_generator(ring, e), None, {}


# recipe id -> (param names in label order, family function)
_RECIPES = {
    "cor1": (("n", "e"), _cor1),
    "cor2": (("q_list", "e"), _cor2),
    "ding_thm1": (("q_list", "e"), _ding_thm1),
    "ding_thm3": (("m",), _ding_thm3),
    "ding_thm5": (("m",), _ding_thm5),
    "zha_cor1": (("b", "s"), _zha_cor1),
    "zha_cor2": (("b", "s"), _zha_cor2),
    "zha_thm2": (("b", "s"), _zha_thm2),
    "cai_thm1": (("n", "e"), _cai_thm1),
}

RECIPE_IDS = tuple(_RECIPES)


def _read_params(recipe: Recipe, names: tuple[str, ...]) -> list:
    """The params in label order: exact integers, and a list of them for
    q_list; a ValueError names the recipe and the field."""
    params = recipe.params
    where = f"recipe {recipe.id}"
    if type(params) is not dict:
        raise ValueError(f"{where}: params must be an object, got {params!r}")
    unknown = [key for key in params if key not in names]
    if unknown:
        raise ValueError(f"{where}: unknown field {unknown[0]!r}; expected {', '.join(names)}")
    try:
        return [_int_list(params, k) if k == "q_list" else _field(params, k) for k in names]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def run_recipe(recipe: Recipe) -> SearchResult:
    """Check hypotheses, build, verify, and match the closed form."""
    if recipe.id not in _RECIPES:
        raise ValueError(f"unknown recipe id {recipe.id!r}; known: {RECIPE_IDS}")
    names, family = _RECIPES[recipe.id]
    values = _read_params(recipe, names)
    ring, construction, e, g, h, metadata = family(*values)
    # labels print q_list as q
    words = [f"{name.removesuffix('_list')}={value}" for name, value in zip(names, values)]
    label = " ".join([recipe.id, *words])
    return _certified_build(label, recipe.id, ring, construction, e, g, h, metadata)


def _admissible(recipes) -> list[SearchResult]:
    """The certified instances of the recipes whose hypotheses hold."""
    out = []
    for recipe in recipes:
        try:
            out.append(run_recipe(recipe))
        except RecipeHypothesisError:
            continue
    return out


def search_cor1(n_max: int, e: int) -> list[SearchResult]:
    """All odd n <= n_max whose primes are 1 mod e(e-1), built and certified."""
    if e < 2:
        raise ValueError(f"product construction needs e >= 2, got {e}")
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    return _admissible(Recipe("cor1", {"n": n, "e": e}) for n in range(3, n_max + 1, 2))


def search_cor2_scan(q_max: int, e: int) -> list[SearchResult]:
    """Certified single-field instances for every prime power q <= q_max.

    The admissibility condition is e(e-1) | q - 1; the multiplicative
    group of GF(q) is cyclic, so that divisibility alone guarantees the
    two generators exist.
    """
    if e < 2:
        raise ValueError(f"product construction needs e >= 2, got {e}")
    step = e * (e - 1)
    return _admissible(
        Recipe("cor2", {"q_list": [q], "e": e}) for q in range(step + 1, q_max + 1, step)
    )


def default_catalog() -> list[SearchResult]:
    """The standing instance family exercised by certification runs.

    Product instances span residue rings, single fields, field
    products, and a matrix ring; generic and doubled instances cover
    every recipe family.  All orders stay at desk scale.
    """
    results: list[SearchResult] = []

    for n, e in [(7, 3), (13, 3), (13, 4), (19, 3), (31, 6), (37, 3), (49, 3), (91, 3)]:
        results.append(run_recipe(Recipe("cor1", {"n": n, "e": e})))
    for q_list, e in [([25], 4), ([121], 6), ([9], 2), ([49], 3), ([7, 13], 3)]:
        results.append(run_recipe(Recipe("cor2", {"q_list": q_list, "e": e})))

    m2 = MatrixRing(2, GaloisField(5, 1))
    scalar3 = m2._encode([[3, 0], [0, 3]])
    bmat = m2._encode([[4, 4], [1, 0]])
    results.append(_certified_build("matrix M2(F5) e=4", None, m2, "product", 4, scalar3, bmat))

    results.append(run_recipe(Recipe("cai_thm1", {"n": 7, "e": 3})))
    results.append(run_recipe(Recipe("ding_thm1", {"q_list": [7, 13], "e": 3})))
    results.append(run_recipe(Recipe("ding_thm3", {"m": 5})))
    results.append(run_recipe(Recipe("zha_cor1", {"b": 3, "s": 5})))
    results.append(run_recipe(Recipe("zha_thm2", {"b": 2, "s": 5})))

    z11 = ResidueRing(11)
    results.append(_certified_build("generic Z_11 e=1", None, z11, "generic", 1, 1))
    results.append(run_recipe(Recipe("ding_thm5", {"m": 5})))
    results.append(run_recipe(Recipe("zha_cor2", {"b": 3, "s": 5})))
    results.append(_certified_build("doubled Z_11 e=1", None, z11, "doubled", 1, 1))
    return results


def _expected_profile(result: SearchResult) -> tuple[int, ...]:
    # all three constructions share it: one singleton class, the rest of
    # size lam + 1 (the subgroup order for generic/doubled, e - 1 for product)
    n, m, lam = result.certified
    return tuple(sorted([1] + [lam + 1] * (m - 1)))


def certify_all(results: list[SearchResult]) -> CertificationReport:
    """Certify every instance from its stored verification, and the
    derived designs.

    Each result must carry a passing verification of its own function;
    the certified parameters must match the expected closed form and
    the symbol counts the closed-form profile.  Product instances must
    produce equidistant codebooks meeting the constant composition and
    constant weight bounds, and a perfect partitioned difference system
    meeting the point-count bound, all with equality.  The first failure
    aborts with the instance named.
    """
    rows = []
    for r in results:
        res = r.verification
        if not res.ok:
            raise CertificationError(f"{r.label}: verification failed: {res.to_json()}")
        if res.fn is not r.fn:
            raise CertificationError(f"{r.label}: verification belongs to a different function")
        certified = res.certified_parameters()
        if certified != r.expected:
            raise CertificationError(
                f"{r.label}: parameters {certified} differ from expected {r.expected}"
            )
        profile = composition_profile(r.fn)
        expected_profile = _expected_profile(r)
        if profile.sorted_counts != expected_profile:
            raise CertificationError(
                f"{r.label}: composition profile {profile.sorted_counts[:8]}... "
                f"differs from the closed form"
            )
        row = {
            "label": r.label,
            "recipe": r.recipe_id,
            "construction": r.construction,
            "ring": r.ring.to_json(),
            "parameters": list(certified),
            "profile_ok": True,
        }
        if r.construction == "product":
            n, m, lam = certified
            ccc = ccc_from_zdb(r.fn, res)
            if not (ccc.d == ccc.d_max == n - lam):
                raise CertificationError(
                    f"{r.label}: pairwise distances span [{ccc.d}, {ccc.d_max}], "
                    f"expected all equal to {n - lam}"
                )
            cwc = cwc_from_zdb(r.fn, res)
            dss = dss_from_zdb(r.fn, res)
            if not (dss.perfect and dss.lam == n - lam):
                raise CertificationError(
                    f"{r.label}: difference system is not perfect at level {n - lam}: "
                    f"perfect={dss.perfect} lam={dss.lam}"
                )
            reports = {"ccc": ccc_report(ccc), "cwc": cwc_report(cwc), "dss": dss_report(dss)}
            for kind, rep in reports.items():
                if not (rep.applicable and rep.optimal):
                    raise CertificationError(
                        f"{r.label}: {kind} bound not met with equality: {rep.to_json()}"
                    )
            row["bounds"] = {kind: rep.to_json() for kind, rep in reports.items()}
            row["distance"] = ccc.d
        rows.append(row)
    return CertificationReport(rows)
