"""Exhaustive verification oracles for candidate balanced functions.

Everything in this module is computed from a function's lookup table
and its domain's group law, never from construction provenance, coset
structure, or claimed parameters.  That keeps these routines usable as
independent oracles against the constructions.

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
scan.

Every count re-checks the identity

    count at the identity  ==  order

(each element pairs with itself and with nothing else at difference
zero), which catches table or group-law corruption early.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .construct import ZdbFunction, construct_generic
from .cosets import CosetPartition, Subgroup
from .rings import Ring

__all__ = [
    "DifferenceSpectrum",
    "VerificationResult",
    "CompositionProfile",
    "difference_spectrum",
    "verify_zdb",
    "composition_profile",
    "check_solution_set",
    "check_column_ratios",
]


@dataclass(frozen=True, eq=False)
class DifferenceSpectrum:
    """Coincidence counts over all non-identity shifts.

    counts[a] is the coincidence count at shift a for every domain
    element a; at the identity it is the order.  per_shift (shift index
    -> count) and histogram (count value -> number of shifts attaining
    it) are views of the non-identity entries.
    """

    order: int
    identity: int
    counts: np.ndarray

    @property
    def shift_counts(self) -> np.ndarray:
        return np.delete(self.counts, self.identity)

    @property
    def per_shift(self) -> dict[int, int]:
        return {d: c for d, c in enumerate(self.counts.tolist()) if d != self.identity}

    @property
    def histogram(self) -> dict[int, int]:
        values, freq = np.unique(self.shift_counts, return_counts=True)
        return dict(zip(values.tolist(), freq.tolist()))

    @property
    def min_count(self) -> int:
        return int(self.shift_counts.min())

    @property
    def max_count(self) -> int:
        return int(self.shift_counts.max())

    @property
    def is_constant(self) -> bool:
        return self.min_count == self.max_count

    @property
    def constant_value(self) -> int | None:
        return self.min_count if self.is_constant else None

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
    it.  Neither is compared, printed, or written to JSON.
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
    counts = domain.difference_counts(np.arange(fn.n), fn.table)
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
    distinct = len(set(fn.table))
    if distinct != fn.q:
        return VerificationResult(
            ok=False, n=fn.n, failure_kind="image", expected=fn.q, actual=distinct, fn=fn
        )
    claimed = fn.claimed_lambda
    spec = difference_spectrum(fn)
    for shift in np.flatnonzero(spec.counts != claimed).tolist():
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
    counts = np.bincount(np.asarray(fn.table, dtype=np.int64), minlength=fn.q)
    return CompositionProfile(
        counts=tuple(int(c) for c in counts),
        sorted_counts=tuple(sorted(int(c) for c in counts)),
    )


def check_solution_set(ring: Ring, group: Subgroup, a: int) -> bool:
    """Compare the coincidence set of the generic construction at shift a
    against its closed form {a * (g - 1)^-1 : g in G, g != 1}.

    The left side is found by brute force over the table; the right
    side by direct ring arithmetic.  Commutative rings only.
    """
    if a == 0:
        raise ValueError("the shift must be nonzero")
    if not ring.is_commutative():
        raise ValueError("the closed form applies to commutative rings only")
    fn = construct_generic(ring, group)
    table = fn.table
    brute = {x for x in range(ring.order) if table[ring.add(x, a)] == table[x]}
    one = ring.one()
    closed = set()
    for g in group.elements:
        if g == one:
            continue
        inv = ring.try_invert(ring.sub(g, one))
        if inv is None:  # cannot happen once the partition exists
            return False
        closed.add(ring.mul(a, inv))
    return brute == closed


def check_column_ratios(partition: CosetPartition) -> bool:
    """Check that for every nonzero r the map g -> CI(r) * CI(r*g)^-1 is a
    bijection of the subgroup onto itself whose value is 1 only at g = 1.

    CI denotes the column indicator.  This is the combinatorial engine
    behind the balance of the product construction.
    """
    ring = partition.ring
    group = partition.subgroup
    one = ring.one()
    elems = group.elements
    inverse_of = {g: elems[group.inv_pos[i]] for i, g in enumerate(elems)}
    target = set(elems)
    for r in range(1, ring.order):
        ci_r = partition.column_indicator(r)
        ratios = set()
        for g in elems:
            ci_rg = partition.column_indicator(ring.mul(r, g))
            ratio = ring.mul(ci_r, inverse_of[ci_rg])
            if (ratio == one) != (g == one):
                return False
            ratios.add(ratio)
        if ratios != target:
            return False
    return True
