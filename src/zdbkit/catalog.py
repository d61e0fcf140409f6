"""Parameterized families of balanced functions, and batch certification.

Each recipe names a family with a closed-form parameter promise:

* ``cai_thm1``   generic construction on Z_n (n odd for e >= 2) with the
  smallest generator of order e whose subgroup passes the
  unit-difference check.
* ``ding_thm1``  generic construction on a product of finite fields
  with a componentwise generator of order e; needs e | q_i - 1.
* ``ding_thm3``  generic construction on Z_(2^m - 1) with generator 2;
  m prime.
* ``ding_thm5``  the same family doubled; m an odd prime.
* ``zha_cor1``   generic construction on Z_p, p = (b^s - 1)/(b - 1),
  with generator b; s prime, gcd(s, b - 1) = 1.
* ``zha_cor2``   that family doubled; s an odd prime.
* ``zha_thm2``   generic construction on F_p x F_p, same p required to
  be an odd prime, with generator (b, b).
* ``cor1``       product construction on Z_n from subgroups of orders
  e and e - 1; every prime of n must be 1 mod e(e-1).
* ``cor2``       product construction on a product of finite fields;
  e(e-1) | q_i - 1 for every component.

``run_recipe`` checks the stated hypotheses, builds the instance,
verifies it exhaustively, and compares the certified parameters with
the closed form.  ``certify_all`` re-verifies a list of results and, on
product instances, derives all three designs and demands every bound
be met with equality.  Any failure aborts with the instance named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .cosets import Subgroup, check_unit_difference, cyclic_subgroup
from .errors import (
    CertificationError,
    NotFoundError,
    RecipeHypothesisError,
    VerificationError,
)
from .rings import GaloisField, MatrixRing, ProductRing, ResidueRing, Ring
from .verify import composition_profile, verify_zdb

__all__ = [
    "Recipe",
    "SearchResult",
    "CertificationReport",
    "RECIPE_IDS",
    "find_element_of_order",
    "search_cor1",
    "search_cor2",
    "search_cor2_scan",
    "run_recipe",
    "default_catalog",
    "certify_all",
]

RECIPE_IDS = (
    "cor1",
    "cor2",
    "ding_thm1",
    "ding_thm3",
    "ding_thm5",
    "zha_cor1",
    "zha_cor2",
    "zha_thm2",
    "cai_thm1",
)


@dataclass(frozen=True)
class Recipe:
    id: str
    params: dict

    def to_json(self) -> dict:
        return {"id": self.id, "params": self.params}


@dataclass
class SearchResult:
    """One constructed and certified instance."""

    label: str
    recipe_id: str | None
    ring: Ring
    construction: str  # generic | product | doubled
    g_elements: tuple[int, ...]
    h_elements: tuple[int, ...] | None
    expected: tuple[int, int, int]
    certified: tuple[int, int, int]
    fn: ZdbFunction
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


def find_element_of_order(
    ring: Ring, e: int, require_unit_difference: bool = False
) -> int | None:
    """Smallest-index unit of multiplicative order exactly e, or None.

    With require_unit_difference the cyclic subgroup it generates must
    also pass the unit-difference check.
    """
    if e < 1:
        raise ValueError(f"order must be positive, got {e}")
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


def _certified_build(
    label: str,
    recipe_id: str | None,
    ring: Ring,
    construction: str,
    g_group: Subgroup,
    h_group: Subgroup | None,
    expected: tuple[int, int, int],
    metadata: dict | None = None,
) -> SearchResult:
    if construction == "generic":
        fn = construct_generic(ring, g_group)
    elif construction == "doubled":
        fn = construct_doubled(ring, g_group)
    elif construction == "product":
        fn = construct_product(ring, g_group, h_group)
    else:
        raise ValueError(f"unknown construction {construction!r}")
    result = verify_zdb(fn)
    if not result.ok:
        raise VerificationError(f"{label}: verification failed: {result.to_json()}")
    certified = result.certified_parameters()
    if certified != tuple(expected):
        raise VerificationError(
            f"{label}: certified parameters {certified} differ from the "
            f"closed form {tuple(expected)}"
        )
    return SearchResult(
        label=label,
        recipe_id=recipe_id,
        ring=ring,
        construction=construction,
        g_elements=g_group.elements,
        h_elements=None if h_group is None else h_group.elements,
        expected=tuple(expected),
        certified=certified,
        fn=fn,
        metadata=metadata or {},
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RecipeHypothesisError(message)


def _generic_params(n: int, e: int) -> tuple[int, int, int]:
    return (n, (n - 1) // e + 1, e - 1)


def _product_params(n: int, e: int) -> tuple[int, int, int]:
    return (e * n, (e * n - 1) // (e - 1) + 1, e - 2)


def _cor1_divisibility_ok(n: int, e: int) -> bool:
    return n % 2 == 1 and all((p - 1) % (e * (e - 1)) == 0 for p in factorize(n))


def _cor1_instance(n: int, e: int, recipe_id: str | None = "cor1") -> SearchResult:
    ring = ResidueRing(n)
    g = find_element_of_order(ring, e, require_unit_difference=True)
    if g is None:
        raise NotFoundError(f"no unit-difference generator of order {e} in Z_{n}")
    h = find_element_of_order(ring, e - 1, require_unit_difference=True)
    if h is None:
        raise NotFoundError(f"no unit-difference generator of order {e - 1} in Z_{n}")
    if math.gcd(n, e) != 1:
        raise RuntimeError(f"gcd({n}, {e}) != 1")  # excluded by the divisibility filter
    return _certified_build(
        f"cor1 n={n} e={e}",
        recipe_id,
        ring,
        "product",
        cyclic_subgroup(ring, g),
        cyclic_subgroup(ring, h),
        _product_params(n, e),
        metadata={"n": n, "e": e, "isomorphic_to_cyclic": e * n},
    )


def search_cor1(n_max: int, e: int) -> list[SearchResult]:
    """All odd n <= n_max whose primes are 1 mod e(e-1), built and certified."""
    if e < 2:
        raise ValueError(f"product construction needs e >= 2, got {e}")
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    out = []
    for n in range(3, n_max + 1, 2):
        if _cor1_divisibility_ok(n, e):
            out.append(_cor1_instance(n, e))
    return out


def _field_tower(q_list: list[int]) -> tuple[Ring, list[GaloisField]]:
    fields = []
    for q in q_list:
        pp = prime_power(q)
        if pp is None:
            raise RecipeHypothesisError(f"q = {q} is not a prime power")
        fields.append(GaloisField(pp[0], pp[1]))
    ring = fields[0] if len(fields) == 1 else ProductRing(fields)
    return ring, fields


def _componentwise_generator(ring: Ring, fields: list[GaloisField], order: int) -> int:
    parts = []
    for f in fields:
        b = find_element_of_order(f, order)
        if b is None:
            raise NotFoundError(f"no element of order {order} in GF({f.order})")
        parts.append(b)
    if len(fields) == 1:
        return parts[0]
    return ring._encode(parts)


def search_cor2(q_list: list[int], e: int) -> SearchResult:
    """Product construction over prime-power fields q_i with e(e-1) | q_i - 1.

    Every hypothesis is checked here, each failure a RecipeHypothesisError.
    """
    _require(e >= 2, f"e must be at least 2, got {e}")
    _require(bool(q_list), "q_list cannot be empty")
    for q in q_list:
        _require(prime_power(q) is not None, f"q_i = {q} is not a prime power")
        _require(
            (q - 1) % (e * (e - 1)) == 0,
            f"q_i = {q}: e(e-1) = {e * (e - 1)} does not divide q_i - 1",
        )
    ring, fields = _field_tower(list(q_list))
    g = _componentwise_generator(ring, fields, e)
    h = _componentwise_generator(ring, fields, e - 1)
    n = ring.order
    return _certified_build(
        f"cor2 q={list(q_list)} e={e}",
        "cor2",
        ring,
        "product",
        cyclic_subgroup(ring, g),
        cyclic_subgroup(ring, h),
        _product_params(n, e),
    )


def search_cor2_scan(q_max: int, e: int) -> list[SearchResult]:
    """Certified single-field instances for every prime power q <= q_max.

    The admissibility condition is e(e-1) | q - 1; the multiplicative
    group of GF(q) is cyclic, so that divisibility alone guarantees the
    two generators exist.
    """
    if e < 2:
        raise ValueError(f"product construction needs e >= 2, got {e}")
    out = []
    step = e * (e - 1)
    for q in range(step + 1, q_max + 1, step):
        if prime_power(q) is not None:
            out.append(search_cor2([q], e))
    return out


def _run_cai_thm1(params: dict) -> SearchResult:
    n, e = int(params["n"]), int(params["e"])
    _require(n >= 2, f"n must be at least 2, got {n}")
    _require(e >= 1, f"e must be positive, got {e}")
    if e >= 2:
        _require(n % 2 == 1, f"n must be odd for e >= 2, got n = {n}")
    ring = ResidueRing(n)
    b = find_element_of_order(ring, e, require_unit_difference=True)
    if b is None:
        raise NotFoundError(f"no unit-difference generator of order {e} in Z_{n}")
    return _certified_build(
        f"cai_thm1 n={n} e={e}",
        "cai_thm1",
        ring,
        "generic",
        cyclic_subgroup(ring, b),
        None,
        _generic_params(n, e),
    )


def _run_ding_thm1(params: dict) -> SearchResult:
    q_list = [int(q) for q in params["q_list"]]
    e = int(params["e"])
    _require(e >= 1, f"e must be positive, got {e}")
    _require(bool(q_list), "q_list cannot be empty")
    for q in q_list:
        _require(prime_power(q) is not None, f"q = {q} is not a prime power")
        _require((q - 1) % e == 0, f"e = {e} does not divide q - 1 for q = {q}")
    ring, fields = _field_tower(q_list)
    b = _componentwise_generator(ring, fields, e)
    return _certified_build(
        f"ding_thm1 q={q_list} e={e}",
        "ding_thm1",
        ring,
        "generic",
        cyclic_subgroup(ring, b),
        None,
        _generic_params(ring.order, e),
    )


def _run_ding_thm3(params: dict) -> SearchResult:
    m = int(params["m"])
    _require(is_prime(m), f"m must be prime, got {m}")
    n = 2**m - 1
    ring = ResidueRing(n)
    return _certified_build(
        f"ding_thm3 m={m}",
        "ding_thm3",
        ring,
        "generic",
        cyclic_subgroup(ring, 2 % n),
        None,
        _generic_params(n, m),
    )


def _run_ding_thm5(params: dict) -> SearchResult:
    m = int(params["m"])
    _require(is_prime(m) and m % 2 == 1, f"m must be an odd prime, got {m}")
    n = 2**m - 1
    ring = ResidueRing(n)
    return _certified_build(
        f"ding_thm5 m={m}",
        "ding_thm5",
        ring,
        "doubled",
        cyclic_subgroup(ring, 2),
        None,
        (n, (n - 1) // (2 * m) + 1, 2 * m - 1),
    )


def _zha_checks(b: int, s: int, odd_s: bool) -> int:
    _require(b >= 2, f"b must be at least 2, got {b}")
    _require(is_prime(s), f"s must be prime, got {s}")
    if odd_s:
        _require(s % 2 == 1, f"s must be odd, got {s}")
    _require(math.gcd(s, b - 1) == 1, f"gcd(s, b-1) must be 1, got gcd({s}, {b - 1})")
    return (b**s - 1) // (b - 1)


def _run_zha_cor1(params: dict) -> SearchResult:
    b, s = int(params["b"]), int(params["s"])
    p = _zha_checks(b, s, odd_s=False)
    ring = ResidueRing(p)
    return _certified_build(
        f"zha_cor1 b={b} s={s}",
        "zha_cor1",
        ring,
        "generic",
        cyclic_subgroup(ring, b % p),
        None,
        _generic_params(p, s),
    )


def _run_zha_cor2(params: dict) -> SearchResult:
    b, s = int(params["b"]), int(params["s"])
    p = _zha_checks(b, s, odd_s=True)
    ring = ResidueRing(p)
    return _certified_build(
        f"zha_cor2 b={b} s={s}",
        "zha_cor2",
        ring,
        "doubled",
        cyclic_subgroup(ring, b % p),
        None,
        (p, (p - 1) // (2 * s) + 1, 2 * s - 1),
    )


def _run_zha_thm2(params: dict) -> SearchResult:
    b, s = int(params["b"]), int(params["s"])
    p = _zha_checks(b, s, odd_s=False)
    _require(p % 2 == 1 and is_prime(p), f"(b^s - 1)/(b - 1) = {p} must be an odd prime")
    f = GaloisField(p, 1)
    ring = ProductRing([f, f])
    gen = ring._encode([b % p, b % p])
    return _certified_build(
        f"zha_thm2 b={b} s={s}",
        "zha_thm2",
        ring,
        "generic",
        cyclic_subgroup(ring, gen),
        None,
        _generic_params(p * p, s),
    )


def _run_cor1(params: dict) -> SearchResult:
    n, e = int(params["n"]), int(params["e"])
    _require(e >= 2, f"e must be at least 2, got {e}")
    _require(n >= 3, f"n must be at least 3, got {n}")
    _require(
        _cor1_divisibility_ok(n, e),
        f"every prime of n must be 1 mod e(e-1) = {e * (e - 1)} and n odd, got n = {n}",
    )
    return _cor1_instance(n, e)


def _run_cor2(params: dict) -> SearchResult:
    return search_cor2([int(q) for q in params["q_list"]], int(params["e"]))


_RUNNERS = {
    "cor1": _run_cor1,
    "cor2": _run_cor2,
    "ding_thm1": _run_ding_thm1,
    "ding_thm3": _run_ding_thm3,
    "ding_thm5": _run_ding_thm5,
    "zha_cor1": _run_zha_cor1,
    "zha_cor2": _run_zha_cor2,
    "zha_thm2": _run_zha_thm2,
    "cai_thm1": _run_cai_thm1,
}


def run_recipe(recipe: Recipe) -> SearchResult:
    """Check hypotheses, build, verify, and match the closed form."""
    if recipe.id not in _RUNNERS:
        raise ValueError(f"unknown recipe id {recipe.id!r}; known: {RECIPE_IDS}")
    return _RUNNERS[recipe.id](recipe.params)


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
    results.append(
        _certified_build(
            "matrix M2(F5) e=4",
            None,
            m2,
            "product",
            cyclic_subgroup(m2, scalar3),
            cyclic_subgroup(m2, bmat),
            _product_params(625, 4),
        )
    )

    results.append(run_recipe(Recipe("cai_thm1", {"n": 7, "e": 3})))
    results.append(run_recipe(Recipe("ding_thm1", {"q_list": [7, 13], "e": 3})))
    results.append(run_recipe(Recipe("ding_thm3", {"m": 5})))
    results.append(run_recipe(Recipe("zha_cor1", {"b": 3, "s": 5})))
    results.append(run_recipe(Recipe("zha_thm2", {"b": 2, "s": 5})))

    z11 = ResidueRing(11)
    trivial = cyclic_subgroup(z11, 1)
    results.append(
        _certified_build(
            "generic Z_11 e=1", None, z11, "generic", trivial, None, (11, 11, 0)
        )
    )
    results.append(run_recipe(Recipe("ding_thm5", {"m": 5})))
    results.append(run_recipe(Recipe("zha_cor2", {"b": 3, "s": 5})))
    results.append(
        _certified_build(
            "doubled Z_11 e=1", None, z11, "doubled", trivial, None, (11, 6, 1)
        )
    )
    return results


def _expected_profile(result: SearchResult) -> tuple[int, ...]:
    # all three constructions share it: one singleton class, the rest of
    # size lam + 1 (the subgroup order for generic/doubled, e - 1 for product)
    n, m, lam = result.certified
    return tuple(sorted([1] + [lam + 1] * (m - 1)))


def certify_all(results: list[SearchResult]) -> CertificationReport:
    """Re-verify every instance and certify the derived designs.

    Product instances must produce equidistant codebooks meeting the
    constant composition and constant weight bounds, and a perfect
    partitioned difference system meeting the point-count bound, all
    with equality.  The first failure aborts with the instance named.
    """
    rows = []
    for r in results:
        res = verify_zdb(r.fn)
        if not res.ok:
            raise CertificationError(f"{r.label}: verification failed: {res.to_json()}")
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
            cwc = cwc_from_zdb(r.fn, res, base=ccc)
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
