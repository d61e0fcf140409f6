"""Zero difference balanced functions over finite rings.

Build tables from a ring and a unit subgroup, certify the balance
property by exhaustive scan, and derive constant composition codes,
constant weight codes, and difference systems of sets together with
exact rational proofs that the classical bounds are met.

Importing the package loads none of its modules: each public name is
looked up in the module that defines it on first use, so a process
imports (and, without a bytecode cache, compiles) only what it runs.
"""

import importlib
import sys

# the defining module of each public name
_MODULE_OF = {
    name: f"{__name__}.{module}"
    for module, names in {
        "catalog": "RECIPE_IDS CertificationReport Recipe SearchResult certify_all"
        " default_catalog find_element_of_order run_recipe search",
        "codes": "BoundReport CodeBook DssSystem ccc_bound ccc_from_zdb ccc_report"
        " cwc_bound cwc_from_zdb cwc_report distance_range dss_bound dss_from_zdb"
        " dss_perfect_check dss_report",
        "construct": "construct_doubled construct_generic construct_product",
        "cosets": "CosetPartition check_plus_one check_unit_difference coset_partition"
        " doubled_subgroup",
        "domains": "AbelianDomain RingAdditiveDomain RingTimesGroupDomain domain_from_json",
        "errors": "CertificationError ConditionNotSatisfiedError DegenerateDoublingError"
        " NotAUnitError NotCwcEligibleError NotFoundError OversizedError"
        " RecipeHypothesisError VerificationError ZdbError",
        "function": "ZdbFunction",
        "groups": "Subgroup cyclic_subgroup subgroup_from_elements",
        "rings": "GaloisField MatrixRing ProductRing ResidueRing Ring ring_from_json",
        "verify": "CompositionProfile DifferenceSpectrum VerificationResult"
        " composition_profile difference_spectrum verify_zdb",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # not cached here: a name rebound in its module (as a tracer does) is seen at once
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(module) or importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
