"""The in-class counting kernels against independent recounts.

Random tables (balanced or not, a single symbol included) over random
small rings of every kind, in both domain shapes, are counted three
ways: the kernel spectrum against the shift-by-shift gather scan, the
shift-code distance identity against an all-pairs comparison of the
codeword matrix, and the kernel's cross-block coverage against a
scalar loop over all cross pairs.  The same-symbol recount of stored
code distances is checked against the all-pairs comparison on random
integer matrices and on the (2500, 834, 2) instance.

The ring layer's one mixed-radix additive law is checked against the
per-kind scalar sums it replaced, and the derived ``shift_rows``
against the per-shape formulas it replaced.
"""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdbkit import (
    DssSystem,
    GaloisField,
    MatrixRing,
    OversizedError,
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
from zdbkit import codes as codes_module
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


def shape_shift_rows(domain, deltas):
    """Row i is y -> op(delta_i, y), written out for each domain shape:
    the ring's add_vec, and on product domains the subgroup's mul_pos table."""
    d = np.asarray(deltas, dtype=np.int64)
    ys = np.arange(domain.order, dtype=np.int64)
    if isinstance(domain, RingAdditiveDomain):
        return domain.ring.add_vec(d[:, None], ys[None, :])
    e = domain.e
    mul_pos = np.asarray(domain.group.mul_pos, dtype=np.int64)
    return (
        domain.ring.add_vec(d[:, None] // e, ys[None, :] // e) * e
        + mul_pos[d[:, None] % e, ys[None, :] % e]
    )


def gather_spectrum(fn):
    """Coincidence count of every non-identity shift, one full row per shift:
    row a is y -> op(a, y), gathered through the table."""
    domain = fn.domain
    table = np.asarray(fn.table)
    deltas = [d for d in range(domain.order) if d != domain.identity]
    counts = (table[shape_shift_rows(domain, deltas)] == table[None, :]).sum(axis=1)
    return dict(zip(deltas, counts.tolist()))


def all_pairs_distance_range(codewords):
    """Minimum and maximum Hamming distance, every pair of rows compared,
    in blocks of rows."""
    block = 96
    c = np.ascontiguousarray(codewords)
    m = c.shape[0]
    dmin, dmax = c.shape[1] + 1, -1
    for i in range(0, m, block):
        a = c[i : i + block]
        for j in range(i, m, block):
            b = c[j : j + block]
            dist = np.count_nonzero(a[:, None, :] != b[None, :, :], axis=2)
            if i == j:
                iu = np.triu_indices(a.shape[0], k=1, m=b.shape[0])
                vals = dist[iu]
                if vals.size == 0:
                    continue
            else:
                vals = dist.ravel()
            dmin = min(dmin, int(vals.min()))
            dmax = max(dmax, int(vals.max()))
    return dmin, dmax


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


@st.composite
def matrices(draw):
    m, n = draw(st.integers(2, 12)), draw(st.integers(1, 12))
    low, q = draw(st.integers(-3, 3)), draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(low, low + q - 1), min_size=m * n, max_size=m * n))
    return np.array(entries, dtype=np.int64).reshape(m, n)


@SETTINGS
@given(functions())
def test_distance_identity_matches_all_pairs(fn):
    assert _shift_distances(fn) == all_pairs_distance_range(_shift_codewords(fn))


@SETTINGS
@example(np.zeros((5, 3), dtype=np.int64), 7, 5)  # one symbol
@example(np.array([[1, 2, 3], [0, 2, 1], [1, 2, 3]]), 1, 1)  # a repeated row
@example(np.array([[0, 1, 1, 2], [1, 1, 0, 2]]), 3, 2)  # two rows
@example(np.array([[0], [1], [0], [2]]), 2, 3)  # one column
@given(matrices(), st.integers(1, 64), st.integers(1, 64))
def test_same_symbol_recount_matches_all_pairs(words, band, block):
    # small bands and pair blocks make the recount cross their edges
    pairs = sum(
        int(np.sum(np.unique(col, return_counts=True)[1] ** 2)) for col in words.T
    )
    with (
        patch.object(codes_module, "_BAND", band),
        patch.object(domains_module, "_PAIR_BLOCK", block),
    ):
        assert distance_range(words, max_pairs=pairs) == all_pairs_distance_range(words)
        with pytest.raises(OversizedError, match=f"needs {pairs:,} in-class row pairs"):
            distance_range(words, max_pairs=pairs - 1)


def test_same_symbol_recount_on_the_2500_instance(catalog):
    fn = next(r.fn for r in catalog if r.certified == (2500, 834, 2))
    assert distance_range(_shift_codewords(fn)) == _shift_distances(fn) == (2498, 2498)


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


def kind_add(ring, a, b):
    """a + b by each kind's own digits: residues, polynomial coefficients,
    product components and matrix entries."""
    if isinstance(ring, ResidueRing):
        return (a + b) % ring.n
    if isinstance(ring, GaloisField):
        ca, cb = ring._decode(a), ring._decode(b)
        return ring._encode([(x + y) % ring.p for x, y in zip(ca, cb)])
    if isinstance(ring, ProductRing):
        pa, pb = ring._decode(a), ring._decode(b)
        return ring._encode([kind_add(c, x, y) for c, x, y in zip(ring.components, pa, pb)])
    ma, mb = ring._decode(a), ring._decode(b)
    return ring._encode(
        [[kind_add(ring.field, x, y) for x, y in zip(ra, rb)] for ra, rb in zip(ma, mb)]
    )


def kind_neg(ring, a):
    """-a by each kind's own digits, as kind_add."""
    if isinstance(ring, ResidueRing):
        return -a % ring.n
    if isinstance(ring, GaloisField):
        return ring._encode([-x % ring.p for x in ring._decode(a)])
    if isinstance(ring, ProductRing):
        return ring._encode([kind_neg(c, x) for c, x in zip(ring.components, ring._decode(a))])
    return ring._encode([[kind_neg(ring.field, x) for x in row] for row in ring._decode(a)])


FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3)]


def simple_rings():
    fields = st.sampled_from(FIELDS).map(lambda pr: GaloisField(*pr))
    small_fields = st.sampled_from(FIELDS[:5]).map(lambda pr: GaloisField(*pr))
    return st.one_of(
        st.integers(2, 60).map(ResidueRing),
        fields,
        st.builds(MatrixRing, st.integers(1, 2), small_fields),
    )


def any_rings():
    products = st.lists(simple_rings(), min_size=1, max_size=3).map(ProductRing)
    return st.one_of(simple_rings(), products)


@SETTINGS
@example(GaloisField(3, 2), 0)
@example(MatrixRing(2, GaloisField(2, 2)), 1)
@example(ProductRing([ResidueRing(6), MatrixRing(2, GaloisField(3))]), 2)
@given(any_rings(), st.integers(0, 2**32 - 1))
def test_additive_law_matches_each_kind(ring, seed):
    assert math.prod(ring.radices) == ring.order
    rng = np.random.default_rng(seed)
    a = rng.integers(0, ring.order, size=24)
    b = rng.integers(0, ring.order, size=24)
    a[:2], b[:2] = 0, ring.order - 1  # the identity and the top index
    sums = [kind_add(ring, int(x), int(y)) for x, y in zip(a, b)]
    negs = [kind_neg(ring, int(x)) for x in a]
    assert [ring.add(int(x), int(y)) for x, y in zip(a, b)] == sums
    assert [ring.neg(int(x)) for x in a] == negs
    assert ring.add_vec(a, b).tolist() == sums
    assert ring.neg_vec(a).tolist() == negs
    table = ring.add_vec(a[:, None], b[None, :])  # broadcasting
    assert table.shape == (24, 24)
    assert table[5].tolist() == [kind_add(ring, int(a[5]), int(y)) for y in b]


@SETTINGS
@given(domains(), st.data())
def test_derived_shift_rows_match_each_shape(domain, data):
    deltas = data.draw(st.lists(st.integers(0, domain.order - 1), max_size=8))
    rows = domain.shift_rows(deltas)
    assert rows.shape == (len(deltas), domain.order)
    assert np.array_equal(rows, shape_shift_rows(domain, deltas))
