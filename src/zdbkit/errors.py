"""Exception types, and the exact-type readers of JSON payload fields,
shared across the package."""

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


_TYPE_NAMES = {int: "an integer", bool: "a boolean", list: "a list", dict: "an object"}


def _typed(key: str, value, kind: type = int):
    """value, if its type is exactly kind (so a bool is not an integer);
    otherwise a ValueError naming the payload field."""
    if type(value) is not kind:
        raise ValueError(f"field {key!r} is {value!r}, not {_TYPE_NAMES[kind]}")
    return value


def _field(data: dict, key: str, kind: type | None = int):
    """data[key], checked by _typed unless kind is None; a ValueError
    naming the key when data is not an object or lacks it."""
    if type(data) is not dict:
        raise ValueError(f"expected an object with field {key!r}, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    return data[key] if kind is None else _typed(key, data[key], kind)


def _int_list(data: dict, key: str) -> list[int]:
    """data[key], if it is a list of exact integers; otherwise a
    ValueError naming the field and its first bad entry."""
    values = _field(data, key, list)
    if not set(map(type, values)) <= {int}:
        i, bad = next((i, v) for i, v in enumerate(values) if type(v) is not int)
        raise ValueError(f"field {key!r} entry {i} is {bad!r}, not an integer")
    return values
