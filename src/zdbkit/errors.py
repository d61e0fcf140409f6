"""Exception types shared across the package."""

from __future__ import annotations


class ZdbError(Exception):
    """Base class for all errors raised by this package."""


class NotAUnitError(ZdbError):
    """A ring element that must be invertible is not."""


class ConditionNotSatisfiedError(ZdbError):
    """A construction precondition failed; the message names the clause."""


class DegenerateDoublingError(ZdbError):
    """Doubling a subgroup that already contains -1 would not enlarge it."""


class NotCwcEligibleError(ZdbError):
    """Constant weight form requires symbol 0 to have a single preimage."""


class RecipeHypothesisError(ZdbError):
    """A recipe parameter violates the recipe's stated hypotheses."""


class NotFoundError(ZdbError):
    """An exhaustive search finished without a matching element."""


class VerificationError(ZdbError):
    """A derivation was attempted from a function that failed verification."""


class CertificationError(ZdbError):
    """A catalog instance failed one of its certification checks."""


class OversizedError(ZdbError):
    """Work over a caller's limit was refused; the message states the cost."""
