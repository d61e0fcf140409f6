"""Zero difference balanced functions over finite rings.

Build tables from a ring and a unit subgroup, certify the balance
property by exhaustive scan, and derive constant composition codes,
constant weight codes, and difference systems of sets together with
exact rational proofs that the classical bounds are met.
"""

from .catalog import (
    RECIPE_IDS,
    CertificationReport,
    Recipe,
    SearchResult,
    certify_all,
    default_catalog,
    find_element_of_order,
    run_recipe,
    search_cor1,
    search_cor2,
    search_cor2_scan,
)
from .codes import (
    BoundReport,
    CodeBook,
    DssSystem,
    ccc_bound,
    ccc_from_zdb,
    ccc_report,
    cwc_bound,
    cwc_from_zdb,
    cwc_report,
    distance_range,
    dss_bound,
    dss_from_zdb,
    dss_perfect_check,
    dss_report,
    matrix_json,
    min_distance,
)
from .construct import (
    Label,
    ZdbFunction,
    construct_doubled,
    construct_generic,
    construct_product,
)
from .cosets import (
    CosetPartition,
    Subgroup,
    check_plus_one,
    check_unit_difference,
    coset_partition,
    cyclic_subgroup,
    doubled_subgroup,
    subgroup_from_elements,
)
from .domains import (
    AbelianDomain,
    RingAdditiveDomain,
    RingTimesGroupDomain,
    domain_from_json,
)
from .errors import (
    CertificationError,
    ConditionNotSatisfiedError,
    DegenerateDoublingError,
    NotAUnitError,
    NotCwcEligibleError,
    NotFoundError,
    OversizedError,
    RecipeHypothesisError,
    VerificationError,
    ZdbError,
)
from .rings import (
    GaloisField,
    MatrixRing,
    ProductRing,
    ResidueRing,
    Ring,
    ring_from_json,
)
from .verify import (
    CompositionProfile,
    DifferenceSpectrum,
    VerificationResult,
    check_column_ratios,
    check_solution_set,
    composition_profile,
    difference_spectrum,
    verify_zdb,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianDomain",
    "BoundReport",
    "CertificationError",
    "CertificationReport",
    "CodeBook",
    "CodewordDecoder",
    "CompositionProfile",
    "ConditionNotSatisfiedError",
    "CosetPartition",
    "DegenerateDoublingError",
    "DifferenceSpectrum",
    "DssSystem",
    "GaloisField",
    "Label",
    "MatrixRing",
    "NotAUnitError",
    "NotCwcEligibleError",
    "NotFoundError",
    "OversizedError",
    "ProductRing",
    "RECIPE_IDS",
    "Recipe",
    "RecipeHypothesisError",
    "ResidueRing",
    "Ring",
    "RingAdditiveDomain",
    "RingTimesGroupDomain",
    "SearchResult",
    "Subgroup",
    "VerificationError",
    "VerificationResult",
    "ZdbError",
    "ZdbFunction",
    "ccc_bound",
    "ccc_from_zdb",
    "ccc_report",
    "certify_all",
    "check_column_ratios",
    "check_plus_one",
    "check_solution_set",
    "check_unit_difference",
    "composition_profile",
    "construct_doubled",
    "construct_generic",
    "construct_product",
    "coset_partition",
    "cwc_bound",
    "cwc_from_zdb",
    "cwc_report",
    "cyclic_subgroup",
    "default_catalog",
    "difference_spectrum",
    "distance_range",
    "domain_from_json",
    "doubled_subgroup",
    "dss_bound",
    "dss_from_zdb",
    "dss_perfect_check",
    "dss_report",
    "find_element_of_order",
    "matrix_json",
    "min_distance",
    "ring_from_json",
    "run_recipe",
    "search_cor1",
    "search_cor2",
    "search_cor2_scan",
    "subgroup_from_elements",
    "verify_zdb",
]


def __getattr__(name):
    # the file reader is loaded on first use: commands that read no stored
    # file never compile it
    if name == "CodewordDecoder":
        from .reader import CodewordDecoder

        return CodewordDecoder
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
