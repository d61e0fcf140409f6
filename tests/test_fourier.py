"""The difference spectrum against a Fourier transform that shares no
group-law code with it.

On an abelian group the spectrum is N(tau) = sum_s (1_s * 1_s)(tau), the
autocorrelations of the symbol indicators summed, so N = F^-1(sum_s
|F 1_s|^2).  The additive group of every ring kind is Z_{r1} x ... x Z_{rk}
over ``ring.radices``, least significant digit first, so ``np.fft.fftn``
runs on the table reshaped to the reversed radices.  A product domain adds
one axis of length e, once the subgroup's positions are reordered along
the powers of a generator (its discrete logarithm, read off ``mul_pos``);
a non-cyclic subgroup has no such order and is skipped.  Nothing here
calls ``add_vec``, ``op_vec`` or ``shift_rows``, so a fault in the
mixed-radix carry cannot reach the kernel and this oracle alike.

A function is (n, m, lambda) ZDB exactly when sum_s |1_s^(chi)|^2 = n - lambda
for every nontrivial character chi; every catalog instance is checked so.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdbkit import (
    GaloisField,
    MatrixRing,
    ProductRing,
    ResidueRing,
    RingAdditiveDomain,
    RingTimesGroupDomain,
    ZdbFunction,
    cyclic_subgroup,
    difference_spectrum,
    subgroup_from_elements,
)

RINGS = [
    ResidueRing(2),
    ResidueRing(9),
    ResidueRing(12),
    GaloisField(7),
    GaloisField(2, 3),
    GaloisField(3, 2),
    ProductRing([GaloisField(2), GaloisField(5)]),
    ProductRing([ResidueRing(4), GaloisField(3)]),
    MatrixRing(2, GaloisField(2)),
    MatrixRing(2, GaloisField(3)),
]

# indicator entries transformed per fftn call
_BATCH = 1 << 18


def _powers(group) -> list[int] | None:
    """The subgroup positions of g^0, g^1, ..., g^(e-1) for the first
    generator g, or None when no element has order e."""
    mul_pos, one = group.mul_pos, group.identity_pos
    for g in range(group.order):
        walk, j = [one], g
        while j != one:
            walk.append(j)
            j = mul_pos[j][g]
        if len(walk) == group.order:
            return walk
    return None


def _axes(domain) -> tuple[tuple[int, ...], list[int]]:
    """The FFT shape of a domain, (r_k, ..., r_1, e) with e = 1 for the
    additive shape, and the flat positions of its last axis in log order."""
    if isinstance(domain, RingAdditiveDomain):
        return (*domain.ring.radices[::-1], 1), [0]
    log = _powers(domain.group)
    if log is None:
        pytest.skip(
            f"the subgroup {list(domain.group.elements)} is not cyclic, so no discrete "
            "logarithm lays it on one FFT axis"
        )
    return (*domain.ring.radices[::-1], domain.e), log


def fourier_power(fn: ZdbFunction) -> np.ndarray:
    """sum_s |F 1_s|^2 at every character, on the domain's FFT axes."""
    shape, log = _axes(fn.domain)
    table = np.asarray(fn.table).reshape(shape)[..., log]
    symbols = np.unique(table)
    power = np.zeros(table.shape)
    axes = tuple(range(1, table.ndim + 1))
    for batch in np.array_split(symbols, -(-symbols.size * table.size // _BATCH)):
        indicators = table == batch.reshape(-1, *[1] * table.ndim)
        spectrum = np.fft.fftn(indicators, axes=axes)
        power += (spectrum.real**2 + spectrum.imag**2).sum(axis=0)
    return power


def fourier_spectrum(fn: ZdbFunction) -> np.ndarray:
    """N = F^-1(sum_s |F 1_s|^2), in the domain's flat index order."""
    shape, log = _axes(fn.domain)
    counts = np.fft.ifftn(fourier_power(fn)).real
    rounded = np.rint(counts)
    assert np.abs(counts - rounded).max() < 0.25
    flat = np.empty(rounded.shape, dtype=np.int64)
    flat[..., log] = rounded
    return flat.ravel()


@st.composite
def domains(draw):
    ring = draw(st.sampled_from(RINGS))
    if draw(st.booleans()):
        return RingAdditiveDomain(ring)
    units = [x for x in range(ring.order) if ring.is_unit(x)]
    return RingTimesGroupDomain(ring, cyclic_subgroup(ring, draw(st.sampled_from(units))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(domains(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_fourier_spectrum_equals_the_kernel_at_every_shift(domain, q, seed):
    table = np.random.default_rng(seed).integers(0, q, domain.order)
    fn = ZdbFunction(domain, q, table, 0)
    assert fourier_spectrum(fn).tolist() == difference_spectrum(fn).counts.tolist()


def test_every_catalog_instance_has_a_flat_character_power(catalog):
    # sum_s |1_s^(chi)|^2 = n - lambda off the trivial character; n + lambda (n - 1) on it
    for result in catalog:
        n, m, lam = result.certified
        power = fourier_power(result.fn).ravel()
        assert abs(power[0] - (n + lam * (n - 1))) < 0.25, result.label
        assert np.abs(power[1:] - (n - lam)).max() < 0.25, result.label


def test_a_non_cyclic_subgroup_is_skipped_with_its_reason():
    ring = ResidueRing(8)
    klein = RingTimesGroupDomain(ring, subgroup_from_elements(ring, [1, 3, 5, 7]))
    fn = ZdbFunction(klein, 1, [0] * klein.order, 0)
    with pytest.raises(pytest.skip.Exception, match=r"\[1, 3, 5, 7\] is not cyclic"):
        fourier_spectrum(fn)


def test_nothing_in_the_package_imports_numpy_fft():
    src = Path(__file__).resolve().parents[1] / "src" / "zdbkit"
    assert [p.name for p in src.glob("*.py") if "fft" in p.read_text()] == []
