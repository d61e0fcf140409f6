"""Exhaustive verification oracles for candidate balanced functions.

Everything in this module is computed from a function's lookup table
and its domain's group law, never from construction provenance, coset
structure, or claimed parameters.  That keeps these routines usable as
independent oracles against the constructions, and the module imports
none of them: it reads a function only through its table, its grouping
and its domain's ``difference_counts``.

The central quantity is the difference spectrum: for every shift a
other than the identity, the number of domain elements y with
f(y + a) = f(y).  A function is zero-difference balanced at level
lambda exactly when the spectrum is constant at lambda.

The spectrum is counted inside the symbol classes: f(y + a) = f(y)
means that x = y + a and y carry the same symbol, so spectrum(a) is the
number of same-symbol pairs (x, y) with x - y = a.  The domain's
``difference_counts`` kernel forms exactly those pairs, at a cost of
sum of squared symbol multiplicities, about n * (lambda + 1) group
operations for a ZDB function, instead of n^2 for a shift-by-shift
scan.  The classes are the runs of the function's ``grouping``.

Every count re-checks the identity

    count at the identity  ==  order

(each element pairs with itself and with nothing else at difference
zero), which catches table or group-law corruption early.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

# names for annotations only: at run time this module imports no other zdbkit module
if TYPE_CHECKING:
    from .function import ZdbFunction

__all__ = [
    "DifferenceSpectrum",
    "VerificationResult",
    "CompositionProfile",
    "difference_spectrum",
    "verify_zdb",
    "composition_profile",
]


@dataclass(frozen=True, eq=False)
class DifferenceSpectrum:
    """Coincidence counts over all non-identity shifts.

    counts[a] is the coincidence count at shift a for every domain
    element a; at the identity it is the order.  shift_counts (the counts
    without the identity's, in shift order) and histogram (count value ->
    number of shifts attaining it) are views of the non-identity entries.
    """

    order: int
    identity: int
    counts: np.ndarray

    @property
    def shift_counts(self) -> np.ndarray:
        return np.concatenate((self.counts[: self.identity], self.counts[self.identity + 1 :]))

    @property
    def histogram(self) -> dict[int, int]:
        values, freq = np.unique(self.shift_counts, return_counts=True)
        return dict(zip(values.tolist(), freq.tolist()))

    @functools.cached_property
    def _extremes(self) -> tuple[int, int]:
        shifts = self.shift_counts
        return int(shifts.min()), int(shifts.max())

    @property
    def min_count(self) -> int:
        return self._extremes[0]

    @property
    def max_count(self) -> int:
        return self._extremes[1]

    @property
    def is_constant(self) -> bool:
        return self._extremes[0] == self._extremes[1]

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "per_shift": self.shift_counts.tolist(),
        }


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a full spectrum scan against the claimed parameters.

    On success the certified (n, m, lam) are filled in.  On failure the
    first offending shift is the debugging artifact: for a spectrum
    failure it is the smallest shift whose count differs from the
    claim; an image failure (alphabet size mismatch) carries no shift.

    fn is the function checked and spectrum its counted spectrum (None
    after an image failure); the derived designs read their counts from
    it.  A function's table is read-only, so the spectrum stays the
    spectrum of fn.table.  Neither is compared, printed, or written to
    JSON.
    """

    ok: bool
    n: int
    m: int | None = None
    lam: int | None = None
    failure_kind: str | None = None  # spectrum | image
    witness_shift: int | None = None
    expected: int | None = None
    actual: int | None = None
    fn: ZdbFunction | None = field(default=None, compare=False, repr=False)
    spectrum: DifferenceSpectrum | None = field(default=None, compare=False, repr=False)

    def certified_parameters(self) -> tuple[int, int, int]:
        if not self.ok:
            raise ValueError("no certified parameters on a failed verification")
        return (self.n, self.m, self.lam)

    def to_json(self) -> dict:
        out: dict = {"ok": self.ok, "n": self.n}
        if self.ok:
            out["m"] = self.m
            out["lambda"] = self.lam
        else:
            out["failure"] = self.failure_kind
            out["witness_shift"] = self.witness_shift
            out["expected"] = self.expected
            out["actual"] = self.actual
        return out


@dataclass(frozen=True)
class CompositionProfile:
    """Symbol multiplicities of a table: counts[b] = |preimage of b|."""

    counts: tuple[int, ...]
    sorted_counts: tuple[int, ...]

    def to_json(self) -> dict:
        return {"counts": list(self.counts), "sorted": list(self.sorted_counts)}


def difference_spectrum(fn: ZdbFunction) -> DifferenceSpectrum:
    """Exhaustive coincidence counts for every non-identity shift."""
    domain = fn.domain
    counts = domain.difference_counts(*fn.grouping)
    if counts[domain.identity] != fn.n:
        raise RuntimeError(
            f"counting identity violated: {counts[domain.identity]} identity pairs, not {fn.n}"
        )
    return DifferenceSpectrum(order=fn.n, identity=domain.identity, counts=counts)


def verify_zdb(fn: ZdbFunction) -> VerificationResult:
    """Certify the claimed (n, m, lambda) by an exhaustive count.

    Succeeds iff the spectrum is constant at the claimed lambda and the
    table uses exactly q distinct symbols.
    """
    distinct = len(fn.grouping[1])
    if distinct != fn.q:
        return VerificationResult(
            ok=False, n=fn.n, failure_kind="image", expected=fn.q, actual=distinct, fn=fn
        )
    claimed = fn.claimed_lambda
    spec = difference_spectrum(fn)
    for shift in (spec.counts != claimed).nonzero()[0].tolist():
        if shift != spec.identity:
            return VerificationResult(
                ok=False,
                n=fn.n,
                failure_kind="spectrum",
                witness_shift=shift,
                expected=claimed,
                actual=int(spec.counts[shift]),
                fn=fn,
                spectrum=spec,
            )
    return VerificationResult(ok=True, n=fn.n, m=fn.q, lam=claimed, fn=fn, spectrum=spec)


def composition_profile(fn: ZdbFunction) -> CompositionProfile:
    counts = np.bincount(fn.table, minlength=fn.q)
    return CompositionProfile(tuple(counts.tolist()), tuple(np.sort(counts).tolist()))
