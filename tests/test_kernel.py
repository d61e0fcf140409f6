"""The in-class difference kernel against independent recounts.

Random tables (balanced or not, a single symbol included) over random
small rings of every kind, in both domain shapes, are counted three
ways: the kernel spectrum against the shift-by-shift gather scan, the
shift-code distance identity against an all-pairs comparison of the
codeword matrix, and the kernel's cross-block coverage against a
scalar loop over all cross pairs.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zdbkit import (
    DssSystem,
    GaloisField,
    MatrixRing,
    ProductRing,
    ResidueRing,
    RingAdditiveDomain,
    RingTimesGroupDomain,
    ZdbFunction,
    cyclic_subgroup,
    difference_spectrum,
    distance_range,
    dss_perfect_check,
)
from zdbkit import domains as domains_module
from zdbkit.codes import _shift_codewords, _shift_distances

RINGS = [
    ResidueRing(2),
    ResidueRing(6),
    ResidueRing(9),
    GaloisField(2, 2),
    GaloisField(2, 3),
    GaloisField(3, 2),
    ProductRing([GaloisField(2), GaloisField(5)]),
    MatrixRing(2, GaloisField(2)),
]

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def gather_spectrum(fn):
    """Coincidence count of every non-identity shift, one full row per shift:
    row a of shift_rows is y -> op(a, y), gathered through the table."""
    domain = fn.domain
    table = np.asarray(fn.table)
    deltas = [d for d in range(domain.order) if d != domain.identity]
    counts = (table[domain.shift_rows(deltas)] == table[None, :]).sum(axis=1)
    return dict(zip(deltas, counts.tolist()))


def brute_cross_coverage(domain, blocks):
    """x - y over all ordered pairs from distinct blocks, by scalar group law."""
    counts = [0] * domain.order
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            if i != j:
                for x in bi:
                    for y in bj:
                        counts[domain.op(x, domain.inverse(y))] += 1
    return counts


@st.composite
def domains(draw):
    ring = draw(st.sampled_from(RINGS))
    if draw(st.booleans()):
        return RingAdditiveDomain(ring)
    units = [u for u in range(ring.order) if ring.is_unit(u)]
    return RingTimesGroupDomain(ring, cyclic_subgroup(ring, draw(st.sampled_from(units))))


@st.composite
def functions(draw):
    domain = draw(domains())
    q = draw(st.integers(1, domain.order))
    table = draw(st.lists(st.integers(0, q - 1), min_size=domain.order, max_size=domain.order))
    return ZdbFunction(domain, q, table, 0)


@SETTINGS
@given(functions(), st.integers(1, 64))
def test_kernel_spectrum_matches_gather_scan(fn, block):
    # small pair blocks make the kernel split its pairs over many chunks
    with patch.object(domains_module, "_PAIR_BLOCK", block):
        spec = difference_spectrum(fn)
    naive = gather_spectrum(fn)
    assert spec.per_shift == naive
    assert spec.counts[fn.domain.identity] == fn.n
    assert sum(naive.values()) == sum(w * w for w in np.bincount(fn.table).tolist()) - fn.n


@SETTINGS
@given(functions())
def test_distance_identity_matches_all_pairs(fn):
    assert _shift_distances(fn) == distance_range(_shift_codewords(fn))


@SETTINGS
@given(functions(), st.booleans(), st.integers(1, 64))
def test_kernel_coverage_matches_cross_pairs(fn, partitioned, block):
    # blocks are the symbol classes; without a partition, symbol 0 is left out
    labels = range(fn.q) if partitioned else range(1, fn.q)
    blocks = tuple(tuple(y for y, s in enumerate(fn.table) if s == b) for b in labels)
    system = DssSystem(
        domain=fn.domain,
        blocks=blocks,
        q=len(blocks),
        tau=sum(len(b) for b in blocks),
        lam=None,
        perfect=False,
        partitioned=partitioned,
    )
    with patch.object(domains_module, "_PAIR_BLOCK", block):
        chk = dss_perfect_check(system)
    if len(blocks) < 2:
        assert chk == (0, False, None)
        return
    coverage = brute_cross_coverage(fn.domain, blocks)
    assert coverage[fn.domain.identity] == 0
    nonzero = [c for a, c in enumerate(coverage) if a != fn.domain.identity]
    perfect = len(set(nonzero)) == 1
    assert chk == (min(nonzero), perfect, min(nonzero) if perfect else None)
