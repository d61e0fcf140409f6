"""The in-class counting kernels against independent recounts.

Random tables (balanced or not, a single symbol included) over random
small rings of every kind, in both domain shapes, are counted three
ways: the kernel spectrum against the shift-by-shift gather scan, the
shift-code distance identity against an all-pairs comparison of the
codeword matrix, and the kernel's cross-block coverage against a
scalar loop over all cross pairs.  The same-symbol recount of stored
code distances is checked against the all-pairs comparison on random
integer matrices and on the (2500, 834, 2) instance.  The distances and
the coverage the builders read from the spectrum of a verification
result are checked against the all-pairs comparison and against the
kernel recount ``dss_perfect_check``, on random tables and on every
catalog instance.  The two arrays of a derived difference system, its
JSON, CSV and JSON round trip are checked against the symbol preimages
listed by a plain loop over the table, and its recount against the
scalar cross-pair loop.

The ring layer's one mixed-radix additive law is checked against the
per-kind scalar sums it replaced, each kind's one multiplication rule
against the per-kind scalar products it replaced, element by element
and under broadcasting (``mul_vec`` against ``mul``, int64 and object
arrays), the derived ``shift_rows`` against the per-shape formulas it
replaced, and the strided-window ``translates`` against the shift-code
matrix gathered through ``shift_rows``, values and dtype.  The books
``ccc_from_zdb`` and ``cwc_from_zdb`` build without a matrix are checked
against that matrix: composition, weight and distances against the
shared-composition check, the row weights and the same-symbol recount,
and ``codewords``, built on first read, against the matrix itself.

The JSON boundary of codeword matrices is checked the same way: the
banded matrix writer against ``json.dumps`` of the nested lists and
``CodeBook.to_csv`` against the per-element join it replaced; the
vectorized reader against ``json.loads`` plus the list reader it
bypasses, on canonical and mutated texts; and the banded shared
composition check against one bincount of the whole matrix.
"""

import dataclasses
import json
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdbkit import (
    CodeBook,
    CodewordDecoder,
    DssSystem,
    GaloisField,
    MatrixRing,
    NotCwcEligibleError,
    OversizedError,
    ProductRing,
    ResidueRing,
    RingAdditiveDomain,
    RingTimesGroupDomain,
    VerificationResult,
    ZdbFunction,
    ccc_from_zdb,
    construct_product,
    cwc_from_zdb,
    cyclic_subgroup,
    difference_spectrum,
    distance_range,
    dss_from_zdb,
    dss_perfect_check,
    matrix_json,
    verify_zdb,
)
from zdbkit import codes as codes_module
from zdbkit import domains as domains_module
from zdbkit.codes import _shared_composition, _shift_codewords

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
def domains(draw, rings=RINGS):
    ring = draw(st.sampled_from(rings))
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


def passing_result(fn):
    """A passing verification result bound to fn, whatever its table: the
    derived counts are identities of the spectrum, balanced or not."""
    return VerificationResult(ok=True, n=fn.n, fn=fn, spectrum=difference_spectrum(fn))


@SETTINGS
@given(functions())
def test_distance_identity_matches_all_pairs(fn):
    book = ccc_from_zdb(fn, passing_result(fn))
    assert (book.d, book.d_max) == all_pairs_distance_range(_shift_codewords(fn))


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
    book = ccc_from_zdb(fn)
    assert distance_range(_shift_codewords(fn)) == (book.d, book.d_max) == (2498, 2498)


@SETTINGS
@given(functions(), st.booleans(), st.integers(1, 64))
def test_kernel_coverage_matches_cross_pairs(fn, partitioned, block):
    # blocks are the symbol classes; without a partition, symbol 0 is left out
    labels = range(fn.q) if partitioned else range(1, fn.q)
    blocks = tuple(tuple(y for y, s in enumerate(fn.table) if s == b) for b in labels)
    system = DssSystem(
        domain=fn.domain,
        points=np.array([y for b in blocks for y in b], dtype=np.int64),
        ends=np.cumsum([len(b) for b in blocks], dtype=np.int64),
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


def preimage_lists(fn):
    """Each symbol's preimage, ascending, by a plain loop over the table."""
    blocks = [[] for _ in range(fn.q)]
    for y in range(fn.n):
        blocks[fn.evaluate(y)].append(y)
    return blocks


@SETTINGS
@given(functions())
def test_dss_arrays_match_the_preimage_lists(fn):
    # unused symbols leave empty blocks; q = 1 leaves no cross pairs
    blocks = preimage_lists(fn)
    system = dss_from_zdb(fn, passing_result(fn))
    data = system.to_json()
    assert data["blocks"] == blocks
    assert system.to_csv() == "\n".join(",".join(str(y) for y in b) for b in blocks) + "\n"
    assert [b.tolist() for b in system.blocks] == blocks
    again = DssSystem.from_json(json.loads(json.dumps(data)))
    assert again.to_json() == data
    assert np.array_equal(again.points, system.points) and np.array_equal(again.ends, system.ends)
    chk = dss_perfect_check(again)
    if fn.q < 2:
        assert chk == (0, False, None)
        return
    coverage = brute_cross_coverage(fn.domain, blocks)
    nonzero = [c for a, c in enumerate(coverage) if a != fn.domain.identity]
    perfect = len(set(nonzero)) == 1
    assert chk == (min(nonzero), perfect, min(nonzero) if perfect else None)


@st.composite
def imaged_functions(draw):
    """A function whose table uses every symbol of range(q), claiming the
    largest count of its spectrum: constant spectra verify, the others
    fail with a witness."""
    fn = draw(functions())
    symbols = sorted(set(fn.table))
    table = [symbols.index(s) for s in fn.table]
    claim = max(gather_spectrum(fn).values())
    return ZdbFunction(fn.domain, len(symbols), table, claim)


@SETTINGS
@example(ZdbFunction(RingAdditiveDomain(ResidueRing(3)), 1, [0, 0, 0], 3))  # no cross pairs
@given(imaged_functions())
def test_derived_coverage_matches_the_recount(fn):
    res = verify_zdb(fn)
    assert res.fn is fn and res.spectrum is not None
    # the coverage identity holds for every table: a failed result keeps
    # its binding to fn and its spectrum, and is let through
    system = dss_from_zdb(fn, dataclasses.replace(res, ok=True))
    chk = dss_perfect_check(system)
    assert (system.lam, system.perfect) == (chk.lam_min, chk.perfect)
    if fn.q == 1:
        assert (system.lam, system.perfect) == (0, False)


def test_derived_coverage_matches_the_recount_on_the_catalog(catalog):
    for r in catalog:
        system = dss_from_zdb(r.fn)
        chk = dss_perfect_check(system)
        n, _, lam = r.certified
        assert (system.lam, system.perfect) == (chk.lam_min, chk.perfect) == (n - lam, True)


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


def kind_mul(ring, a, b):
    """a * b by each kind's own scalar rule, as the rings computed it before
    ``mul_vec``: residues, the polynomial product reduced by the monic
    modulus, product components, and the matrix product over the entries."""
    if isinstance(ring, ResidueRing):
        return a * b % ring.n
    if isinstance(ring, GaloisField):
        p, r, m = ring.p, ring.r, ring.modulus
        ca, cb = ring._decode(a), ring._decode(b)
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(2 * r - 2, r - 1, -1):  # subtract prod[k] * x^(k-r) * m
            lead = prod[k]
            for i, c in enumerate(m):
                prod[k - r + i] = (prod[k - r + i] - lead * c) % p
        return ring._encode(prod[:r])
    if isinstance(ring, ProductRing):
        pa, pb = ring._decode(a), ring._decode(b)
        return ring._encode([kind_mul(c, x, y) for c, x, y in zip(ring.components, pa, pb)])
    f, k = ring.field, ring.k
    ma, mb = ring._decode(a), ring._decode(b)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            for t in range(k):
                out[i][j] = kind_add(f, out[i][j], kind_mul(f, ma[i][t], mb[t][j]))
    return ring._encode(out)


# int64 digit products can overflow from about 2^31 up; these take object arrays
WIDE_RINGS = [
    ResidueRing(5 * 10**9 + 9),
    ResidueRing(2**62 - 1),
    GaloisField(2**31 + 11, 1, (0, 1)),
    GaloisField(3037000493, 1, (0, 1)),
    ProductRing([GaloisField(3, 2), ResidueRing(5 * 10**9 + 9)]),
]


def mul_rings():
    big = st.sampled_from(WIDE_RINGS + [ResidueRing(2**31 + 1), ResidueRing(3 * 10**9)])
    return st.one_of(any_rings(), big)


@SETTINGS
@example(ResidueRing(2**31 + 1), 0)  # int64: products stay below 2^63
@example(ResidueRing(5 * 10**9 + 9), 1)
@example(ResidueRing(2**62 - 1), 2)
@example(GaloisField(2**31 + 11, 1, (0, 1)), 3)
@example(GaloisField(3037000493, 1, (0, 1)), 4)
@example(GaloisField(3, 4), 5)
@example(GaloisField(7, 3), 6)
@example(ProductRing([ResidueRing(6), GaloisField(5, 2), MatrixRing(2, GaloisField(2))]), 7)
@example(ProductRing([GaloisField(3, 2), ResidueRing(5 * 10**9 + 9)]), 8)
@example(MatrixRing(2, GaloisField(5)), 9)
@example(MatrixRing(3, GaloisField(5)), 10)
@example(MatrixRing(2, GaloisField(3, 2)), 11)
@example(MatrixRing(3, GaloisField(2, 2)), 12)
@given(mul_rings(), st.integers(0, 2**32 - 1))
def test_mul_vec_matches_scalar_mul(ring, seed):
    assert ring._wide == (ring in WIDE_RINGS)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, ring.order, size=24)
    b = rng.integers(0, ring.order, size=24)
    a[:2], b[:2] = ring.order - 1, ring.one()  # the top index and the identity
    if isinstance(ring, MatrixRing) and ring.k > 1:
        a[2], b[2] = ring.q, ring.q**ring.k  # E_01 * E_10 = E_00, but E_10 * E_01 = E_11
    products = [kind_mul(ring, int(x), int(y)) for x, y in zip(a, b)]
    assert [ring.mul(int(x), int(y)) for x, y in zip(a, b)] == products
    vec = ring.mul_vec(a, b)
    assert vec.dtype == np.int64
    assert vec.tolist() == products
    table = ring.mul_vec(a[:, None], b[None, :])  # broadcasting keeps a on the left
    assert table.shape == (24, 24)
    assert table[5].tolist() == [kind_mul(ring, int(a[5]), int(y)) for y in b]
    assert table[:, 7].tolist() == [kind_mul(ring, int(x), int(b[7])) for x in a]
    assert ring.mul_vec(a[3], b).tolist() == [ring.mul(int(a[3]), int(y)) for y in b]
    if isinstance(ring, MatrixRing) and ring.k > 1:
        assert ring.mul_vec(a[2], b[2]) != ring.mul_vec(b[2], a[2])


@SETTINGS
@given(domains(), st.data())
def test_derived_shift_rows_match_each_shape(domain, data):
    deltas = data.draw(st.lists(st.integers(0, domain.order - 1), max_size=8))
    rows = domain.shift_rows(deltas)
    assert rows.shape == (len(deltas), domain.order)
    assert np.array_equal(rows, shape_shift_rows(domain, deltas))


def gathered_translates(domain, table):
    """Row a is y -> table[op(a, y)], gathered through shift_rows: the
    shift-code matrix as built before the strided-window copy."""
    return table[domain.shift_rows(range(domain.order))]


# every ring kind: residue, radix-2 field digits, mixed radices, matrices
M2F3 = MatrixRing(2, GaloisField(3))
TRANSLATE_RINGS = RINGS + [
    ResidueRing(25),
    GaloisField(2, 5),
    GaloisField(5, 2),
    ProductRing([ResidueRing(4), GaloisField(3), GaloisField(2, 2)]),
    ProductRing([GaloisField(2, 2), MatrixRing(1, GaloisField(3))]),
    M2F3,
    MatrixRing(1, GaloisField(7)),
]


@SETTINGS
@example(RingAdditiveDomain(GaloisField(2, 5)), np.int16, 1)
@example(RingTimesGroupDomain(M2F3, cyclic_subgroup(M2F3, 56)), np.int32, 2**20)  # G = <2I>
@given(domains(TRANSLATE_RINGS), st.sampled_from([np.int16, np.int32]), st.integers(1, 2**20))
def test_translates_match_the_gathered_shift_code(domain, dtype, q):
    rng = np.random.default_rng(q)
    table = rng.integers(0, min(q, np.iinfo(dtype).max), size=domain.order).astype(dtype)
    words = domain.translates(table)
    expected = gathered_translates(domain, table)
    assert words.dtype == expected.dtype == dtype
    assert words.shape == (domain.order, domain.order)
    assert np.array_equal(words, expected)


@st.composite
def shift_tables(draw):
    """A domain, an alphabet size q and a table over range(q); half of the
    tables with q > 1 have symbol 0 at exactly one place."""
    domain = draw(domains(TRANSLATE_RINGS))
    n = domain.order
    q = draw(st.one_of(st.integers(1, 8), st.integers(2**15 - 2, 2**15 + 2)))
    table = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    if q > 1 and draw(st.booleans()):
        table = [1 + s % (q - 1) for s in table]
        table[draw(st.integers(0, n - 1))] = 0
    return domain, q, table


Z7 = ResidueRing(7)
Z7_PRODUCT = construct_product(Z7, cyclic_subgroup(Z7, 2), cyclic_subgroup(Z7, 6))


@SETTINGS
@example((Z7_PRODUCT.domain, Z7_PRODUCT.q, Z7_PRODUCT.table))  # the verified (21, 11, 1)
@given(shift_tables())
def test_matrix_free_books_match_the_shift_code_matrix(case):
    domain, q, table = case
    fn = ZdbFunction(domain, q, table, 0)
    res = passing_result(fn)
    dtype = np.int16 if q < 2**15 else np.int32
    words = domain.translates(np.asarray(table, dtype=dtype))
    distances = distance_range(words)
    ccc = ccc_from_zdb(fn, res)
    assert ccc.words is None
    assert ccc.composition == tuple(_shared_composition(words, q).tolist())
    assert (ccc.d, ccc.d_max) == distances
    books = [ccc]
    if np.count_nonzero(fn.table == 0) == 1:  # table is a list, or an array in the example
        cwc = cwc_from_zdb(fn, res)
        assert cwc.words is None
        assert (np.count_nonzero(words, axis=1) == cwc.weight).all()
        assert (cwc.d, cwc.d_max) == distances
        books.append(cwc)
    else:
        with pytest.raises(NotCwcEligibleError):
            cwc_from_zdb(fn, res)
    for book in books:
        assert book.codewords.dtype == words.dtype
        assert np.array_equal(book.codewords, words)
        assert book.codewords is book.words  # built once, then kept


# -- codeword matrices across the JSON boundary ----------------------------


def joined_csv(words):
    """CSV of a codeword matrix, one element at a time."""
    lines = [",".join(str(int(s)) for s in row) for row in words]
    return "\n".join(lines) + "\n"


def list_codewords(data):
    """The codeword matrix of a book parsed by json.loads, as the list reader
    builds it: rows must be lists of exact ints that fit int32, each as long
    as row 0."""
    rows = data["codewords"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("codewords must be a list of rows")
    for r, row in enumerate(rows):
        for y, s in enumerate(row):
            if type(s) is not int:
                raise ValueError(f"codeword row {r} column {y} is {s!r}, not an integer")
    for r, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"codeword row {r} has {len(row)} symbols, row 0 has {len(rows[0])}")
    try:
        return np.asarray(rows, dtype=np.int32)
    except OverflowError as exc:
        raise ValueError(f"codeword symbol out of range: {exc}") from None


# largest symbol of a drawn matrix: one symbol only, 16-bit edges, sparse alphabets
TOPS = [0, 1, 9, 10, 385, 2**15 - 1, 2**15, 10**5]


@st.composite
def code_matrices(draw):
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    top = draw(st.sampled_from(TOPS))
    entries = draw(
        st.lists(st.one_of(st.just(top), st.integers(0, top)), min_size=m * n, max_size=m * n)
    )
    dtype = draw(st.sampled_from([np.int16, np.int32, np.int64] if top < 2**15 else [np.int32]))
    return np.array(entries, dtype=dtype).reshape(m, n)


@SETTINGS
@example(np.zeros((1, 1), dtype=np.int16), 1)
@example(np.array([[2**15 - 1, 2**15], [0, 2**15]]), 1)  # across the int16 edge
@example(np.array([[-3, 10**5], [7, -(2**15)]]), 2)  # negative and sparse symbols
@example(np.array([[0, 2**40, 5]]), 1)  # an alphabet too wide for a table per symbol
@given(code_matrices(), st.integers(1, 64))
def test_matrix_writer_matches_json_dumps(words, band):
    # a small band makes the writer cut the matrix into many parts
    with patch.object(codes_module, "_BAND", band):
        text = b"".join(matrix_json(words)).decode("ascii")
    assert text == json.dumps(words.tolist(), separators=(",", ":"))


@SETTINGS
@example(np.zeros((1, 1), dtype=np.int16), 1)
@example(np.array([[-3, 10**5], [7, -(2**15)]]), 2)
@given(code_matrices(), st.integers(1, 64))
def test_csv_writer_matches_the_element_join(words, band):
    m, n = words.shape
    book = CodeBook("CCC", n, m, int(words.max()) + 1, 0, 0, words)
    with patch.object(codes_module, "_BAND", band):
        assert book.to_csv() == joined_csv(words)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_matrices_are_written_as_before(shape):
    words = np.zeros(shape, dtype=np.int16)
    assert b"".join(matrix_json(words)).decode() == json.dumps(words.tolist(), separators=(",", ":"))
    assert CodeBook("CCC", 0, 0, 1, 0, 0, words).to_csv() == joined_csv(words)


# each mutation replaces one symbol token, or reshapes the matrix or the object
MUTATIONS = [
    "canonical", " 5", "5 ", "1.0", "true", "-1", "01", "00", "999999999", "1234567890",
    str(2**31 - 1), str(2**31), str(2**40), "1e2", '"7"', "null", "[3]", "ragged",
    "empty row", "[[]]", "[]", "),[", "];[", "],(", "duplicate key", "quoted key", "escaped key",
    "newline inside",
]


def _matrix_text(tokens, row_break="],["):
    return "[[" + row_break.join(",".join(row) for row in tokens) + "]]"


@st.composite
def codebook_texts(draw, mutation):
    words = draw(code_matrices())
    m, n = words.shape
    tokens = [[str(s) for s in row] for row in words.tolist()]
    r, y = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
    before, key, after, row_break = "", '"codewords"', "", "],["
    if mutation == "ragged":
        tokens[r] = tokens[r][:-1] if n > 1 else tokens[r] + ["0"]
    elif mutation == "empty row":
        tokens[r] = []
    elif mutation in ("),[", "];[", "],("):  # each byte of the row break
        row_break = mutation
    elif mutation == "duplicate key":
        after = ',"codewords":' + _matrix_text([["4", "2"]])
    elif mutation == "quoted key":
        before = '"x\\"codewords\\"":[[1,2]],'
    elif mutation == "escaped key":
        key = '"code\\u0077ords"'
    elif mutation == "newline inside":
        tokens[r][y] = "\n" + tokens[r][y]
    elif mutation != "canonical":
        tokens[r][y] = mutation
    matrix = {"[[]]": "[[]]", "[]": "[]"}.get(mutation) or _matrix_text(tokens, row_break)
    head = f'{{"kind":"CCC","n":{n},"M":{m},"q":{int(words.max()) + 1},"d":0,'
    return f"{head}{before}{key}:{matrix}{after}}}\n"


def _read(text, decoder=None):
    """Codewords or the error of one reader: CodewordDecoder with
    CodeBook.from_json, or json.loads with the list reader."""
    try:
        if decoder is None:
            return list_codewords(json.loads(text))
        return CodeBook.from_json(json.loads(text, cls=decoder)).codewords
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(SETTINGS, max_examples=15)
@given(data=st.data(), block=st.integers(1, 64))
def test_fast_reader_matches_json_loads(mutation, data, block):
    text = data.draw(codebook_texts(mutation))
    # a small read block makes the reader cut the matrix after many rows
    with patch.object(codes_module, "_READ_BLOCK", block):
        fast = _read(text, CodewordDecoder)
        if mutation in ("canonical", "999999999", "duplicate key", "escaped key", "quoted key"):
            assert isinstance(json.loads(text, cls=CodewordDecoder)["codewords"], np.ndarray)
    slow = _read(text)
    if isinstance(slow, tuple):
        assert fast == slow
        return
    assert np.array_equal(fast, slow) and fast.shape == slow.shape
    fits = slow.size and -(2**15) <= slow.min() and slow.max() < 2**15
    assert fast.dtype == (np.int16 if fits else np.int32)


@pytest.mark.parametrize(
    "text",
    ["[1]", "1", '"x"', "", "{}", '{"codewords":[[1]]', '{"codewords":[[1]]}x',
     '{"a":1,}', '{"codewords":[[1],[2]],"codewords":[[3]]}', "\ufeff{}"],
)
def test_fast_reader_keeps_json_loads_values_and_errors(text):
    def outcome(**kw):
        try:
            value = json.loads(text, **kw)
        except json.JSONDecodeError as exc:
            return "error", exc.msg, exc.pos
        return "value", value

    assert outcome(cls=CodewordDecoder) == outcome()


def test_dss_blocks_of_equal_size_stay_lists():
    text = json.dumps(
        {"kind": "DSS", "group": {"kind": "additive"}, "blocks": [[0, 1], [2, 3], [4, 5]],
         "q": 3, "tau": 6, "lambda": 4, "perfect": True, "partitioned": True},
        separators=(",", ":"),
    )
    data = json.loads(text, cls=CodewordDecoder)
    assert data == json.loads(text)
    assert type(data["blocks"]) is list and all(type(b) is list for b in data["blocks"])


@SETTINGS
@example(np.zeros((3, 1), dtype=np.int16), 1, 1)
@given(code_matrices(), st.integers(1, 6), st.integers(1, 64))
def test_banded_row_compositions_match_one_bincount(words, extra, band):
    m, n = words.shape
    words = words % 7
    q = int(words.max()) + extra
    # the rows permuted within themselves share the first row's composition
    shuffled = np.random.default_rng(band).permuted(np.broadcast_to(words[0], words.shape), axis=1)
    for matrix in (words, shuffled):
        flat = (np.arange(m, dtype=np.int64)[:, None] * q + matrix).ravel()
        whole = np.bincount(flat, minlength=m * q).reshape(m, q)
        with patch.object(codes_module, "_BAND", band):
            shared = _shared_composition(matrix, q)
        if (whole == whole[0]).all():
            assert np.array_equal(shared, whole[0])
        else:
            assert shared is None
