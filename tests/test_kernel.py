"""The in-class counting kernels against independent recounts.

Random tables (balanced or not, a single symbol included) over random
small rings of every kind, in both domain shapes, are counted three
ways: the kernel spectrum against the shift-by-shift gather scan, the
shift-code distance identity against an all-pairs comparison of the
codeword matrix, and the kernel's cross-block coverage against a
scalar loop over all cross pairs.  The grouping by label is checked
against numpy's stable argsort and the run sizes, on its packed-key and
argsort branches, and the kernel against a scalar loop over same-label
pairs for labels that are negative, sparse (10^12 apart) or at the int64
extremes, grouped with repeated elements, with empty runs added, or as a
table (the positions themselves); its tracemalloc peak on the
(400228, 133410, 2) grouping, counted in blocks far smaller than the
group, stays under three times its counts; and ``verify_zdb``'s
distinct-symbol count against a set on int32 and int64 tables.  The
same-symbol recount of stored code distances is checked against the
all-pairs comparison on random square, wide and tall integer matrices
over consecutive, sparse and int32 alphabets, with classes past 256 rows
and repeated rows, the row pair it names at each extreme against the
first such pair in row order, and on the (2500, 834, 2) instance, and
against a count of the row pairs agreeing on each set of columns on
2^15 + 5 rows, where its ranks are int32; tracemalloc bounds its peak
below one int16 matrix on a square code, and the file reader's below
1.5.  The distances and
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
arrays), the int32 form of the law, and of both domain shapes' group
law just below 2^31, against Python-int arithmetic, the derived
``shift_rows``, filled in bands of rows, against the per-shape formulas
it replaced and under a tracemalloc bound of its output plus 1 MB, and
the strided-window ``translates`` against the shift-code matrix gathered
through ``shift_rows``, values and dtype.  The books
``ccc_from_zdb`` and ``cwc_from_zdb`` build without a matrix are checked
against that matrix: composition, weight and distances against the
shared-composition check, the row weights and the same-symbol recount,
and ``codewords``, built on first read, against the matrix itself.

The JSON boundary of codeword matrices is checked the same way: the one
list writer, on the row bands of a stored book, against ``json.dumps`` of
the nested lists and ``CodeBook.to_csv`` against the per-element join it
replaced, on ragged block lists cut into bands of whole blocks (a block
longer than a band, empty blocks that end one band and start another)
against both, and a derived book's text,
rendered from its translates in bands of rows that cut the row axes
anywhere, against both on the matrix, with a tracemalloc bound of a
quarter of the matrix on the (2500, 834, 2) book; the
file reader ``decode_file``, in read blocks of a few bytes, from a file
and a pipe, against ``json.loads`` plus the list readers it bypasses, on
canonical and mutated matrices and block lists, rows longer than a read
block included; and the banded shared composition
check against one bincount of the whole matrix.
"""

import dataclasses
import io
import itertools
import json
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdbkit import (
    CodeBook,
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
    verify_zdb,
)
from zdbkit import codes as codes_module
from zdbkit import domains as domains_module
from zdbkit import reader as reader_module
from zdbkit.codes import _shared_composition, _shift_codewords
from zdbkit.domains import _sorted_by_label
from zdbkit.reader import decode_file
from zdbkit.rings import _as_positions, _position_dtype

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


def first_pair_at(codewords, distance):
    """The first row pair (r, s), r < s in row order, at a Hamming distance."""
    return next(
        (r, s) for r, s in itertools.combinations(range(len(codewords)), 2)
        if np.count_nonzero(codewords[r] != codewords[s]) == distance
    )


def counted_distance_range(codewords):
    """Minimum and maximum Hamming distance from pair counts alone: the pairs
    of rows agreeing on at least a set of columns are counted per set from
    the class sizes of the rows restricted to it, and those agreeing on
    exactly a set follow by inclusion-exclusion.  Cheap for a few columns
    however many rows there are."""
    m, n = codewords.shape
    at_least = {}
    for size in range(n + 1):
        for cols in itertools.combinations(range(n), size):
            k = np.unique(codewords[:, cols], axis=0, return_counts=True)[1] if cols else m
            at_least[cols] = int(np.sum(k * (k - 1) // 2))
    agreements = [
        len(cols) for cols in at_least
        if sum((-1) ** (len(t) - len(cols)) * at_least[t]
               for t in at_least if set(cols) <= set(t)) > 0
    ]
    return n - max(agreements), n - min(agreements)


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


LABEL_DOMAINS = [
    RingAdditiveDomain(ResidueRing(31)),
    RingTimesGroupDomain(GaloisField(7), cyclic_subgroup(GaloisField(7), 2)),
]

# label values: small negatives, sparse values near 10^12, and int64 extremes,
# whose span times the element count no longer fits an int64 sort key
LABEL_POOLS = [
    list(range(-4, 3)),
    [-(10**12), 3, 10**12, 10**12 + 7, 2 * 10**12],
    [-(2**63), -1, 0, 2**62, 2**63 - 1],
]


def brute_difference_counts(domain, elements, labels):
    """counts[op(x, inverse(y))] over every same-label pair, by the scalar law."""
    counts = [0] * domain.order
    for x, a in zip(elements, labels):
        for y, b in zip(elements, labels):
            if a == b:
                counts[domain.op(x, domain.inverse(y))] += 1
    return counts


def stable_grouping(labels):
    """The stable argsort of labels and the cumulative sizes of their runs."""
    labels = np.array(labels, dtype=np.int64)
    return np.argsort(labels, kind="stable"), np.cumsum(np.unique(labels, return_counts=True)[1])


@pytest.mark.parametrize(
    "labels, argsorts",
    [
        ([3, -1, 3, 0, -1, 3, 3], 0),  # a small span: one sort of the packed key
        ([2**62, 0, 2**62, 5, 0], 1),  # a span past the packed key: the stable argsort
    ],
)
def test_grouping_is_the_stable_argsort_and_its_run_ends(labels, argsorts):
    expected = stable_grouping(labels)
    with patch.object(np, "argsort", wraps=np.argsort) as argsort:
        by_label, ends = _sorted_by_label(labels)
    assert argsort.call_count == argsorts
    assert (by_label.tolist(), ends.tolist()) == tuple(a.tolist() for a in expected)
    # int32 arrays of their own, not views that would keep the int64 sort keys alive
    for values in (by_label, ends):
        assert values.dtype == np.int32 and values.base is None


@SETTINGS
@given(
    st.sampled_from(LABEL_DOMAINS),
    st.sampled_from(LABEL_POOLS),
    st.data(),
    st.integers(1, 64),
    st.sampled_from([np.int32, np.int64]),
)
def test_difference_counts_match_the_scalar_pairs_for_any_labels(domain, pool, data, block, dtype):
    # elements repeat and labels come unsorted; small pair blocks split even
    # a small class over several group-law calls
    size = data.draw(st.integers(0, 40))
    elements = data.draw(st.lists(st.integers(0, domain.order - 1), min_size=size, max_size=size))
    labels = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    by_label, ends = _sorted_by_label(labels)
    assert [a.tolist() for a in (by_label, ends)] == [a.tolist() for a in stable_grouping(labels)]
    # repeated ends are empty runs, as empty blocks of a difference system give
    empty = data.draw(st.lists(st.sampled_from([0, *ends.tolist()]), max_size=3))
    with patch.object(domains_module, "_PAIR_BLOCK", block):
        points = np.array(elements, dtype=dtype)[by_label]
        with_empty = np.array(sorted(ends.tolist() + empty), dtype=np.int64)
        counts = domain.difference_counts(points, with_empty)
        # a table's grouping: the positions themselves, as its spectrum counts them
        table = labels[: domain.order]
        positions = domain.difference_counts(*_sorted_by_label(table))
    assert counts.tolist() == brute_difference_counts(domain, elements, labels)
    assert positions.tolist() == brute_difference_counts(domain, range(len(table)), table)


def test_difference_counts_of_a_class_larger_than_the_buffer():
    # one run of 40 elements of Z_31, repeats included: with one-pair
    # blocks each row's 40 differences are a block of their own, at least
    # the group's 31 elements, so each block is bincounted
    domain = RingAdditiveDomain(ResidueRing(31))
    elements = [(7 * i) % 31 for i in range(40)]
    with patch.object(domains_module, "_PAIR_BLOCK", 1):
        counts = domain.difference_counts(np.array(elements), np.array([40]))
    assert counts.tolist() == brute_difference_counts(domain, elements, [0] * 40)


def test_difference_counts_peak_at_a_few_counts_when_blocks_are_small():
    # the (400228, 133410, 2) grouping in blocks of about 2^10 pairs, each far
    # smaller than the group: adding each block into the counts holds no
    # order-length array besides them
    ring = GaloisField(100057)
    fn = construct_product(ring, cyclic_subgroup(ring, 39541), cyclic_subgroup(ring, 1140))
    points, ends = fn.grouping
    with patch.object(domains_module, "_PAIR_BLOCK", 2**10):
        tracemalloc.start()
        try:
            counts = fn.domain.difference_counts(points, ends)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert counts[fn.domain.identity] == fn.n
    assert np.count_nonzero(counts == 2) == fn.n - 1
    assert peak < 3 * counts.nbytes


@SETTINGS
@given(st.data(), st.sampled_from([2**31 - 1, 2**40]))
def test_distinct_symbol_count_matches_a_set(data, q):
    # the claimed q makes the table int32 (q = 2^31 - 1) or int64 (q = 2^40)
    pool = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=7, unique=True))
    table = data.draw(st.lists(st.sampled_from(pool), min_size=31, max_size=31))
    fn = ZdbFunction(RingAdditiveDomain(ResidueRing(31)), q, table, 0)
    assert fn.table.dtype == (np.int32 if q < 2**31 else np.int64)
    assert verify_zdb(fn).to_json() == {
        "ok": False, "n": 31, "failure": "image", "witness_shift": None,
        "expected": q, "actual": len(set(table)),
    }


@st.composite
def matrices(draw):
    """Up to 40 rows and 12 columns over at most four symbols, consecutive
    small integers or spread over the int64 range."""
    m, n = draw(st.integers(2, 40)), draw(st.integers(1, 12))
    low, q = draw(st.integers(-3, 3)), draw(st.integers(1, 4))
    sparse = st.lists(st.integers(-(2**62), 2**62), min_size=q, max_size=q, unique=True)
    pool = draw(st.one_of(st.just(list(range(low, low + q))), sparse))
    entries = draw(st.lists(st.sampled_from(pool), min_size=m * n, max_size=m * n))
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
@example(np.repeat([[0, 1, 5], [0, 2, 5]], 150, axis=0), 64, 64)  # classes past 256 rows
@example(np.array([[-(2**62), 2**62]] * 3 + [[2**62, 2**62]]), 1, 1)  # a sparse alphabet
@given(matrices(), st.integers(1, 64), st.integers(1, 64))
def test_same_symbol_recount_matches_all_pairs(words, band, block):
    # small bands and pair blocks make the recount cross their edges
    pairs = sum(
        int(np.sum(np.unique(col, return_counts=True)[1] ** 2)) for col in words.T
    )
    with (
        patch.object(codes_module, "_BAND", band),
        patch.object(codes_module, "_PAIR_BLOCK", block),
    ):
        found = distance_range(words, max_pairs=pairs)
        assert found == all_pairs_distance_range(words)
        assert found.pairs == tuple(first_pair_at(words, d) for d in found)
        with pytest.raises(OversizedError, match=f"needs {pairs:,} in-class row pairs"):
            distance_range(words, max_pairs=pairs - 1)


def test_same_symbol_recount_with_int32_ranks():
    # 2^15 + 5 rows, more than int16 row indices reach, counted in bands of 127 rows;
    # three columns keep the counting oracle cheap, and a repeated row pins the minimum
    rng = np.random.default_rng(5)
    words = rng.integers(0, [100, 200, 300], size=(2**15 + 5, 3))
    words[7] = words[3]
    assert counted_distance_range(words[:60]) == all_pairs_distance_range(words[:60])
    assert distance_range(words) == counted_distance_range(words) == (0, 3)


@st.composite
def shaped_matrices(draw):
    """A square, wide or tall matrix over up to four symbols: consecutive
    small ones, sparse int64 ones or int32 ones past 2^15, with one row
    possibly repeated."""
    m = draw(st.integers(2, 24))
    shape = draw(st.sampled_from(["square", "wide", "tall"]))
    n = m if shape == "square" else draw(
        st.integers(m + 1, 32) if shape == "wide" else st.integers(1, m - 1)
    )
    q = draw(st.integers(1, 4))
    pool, dtype = draw(st.sampled_from([
        (list(range(q)), np.int16),
        ([2**31 - 1 - 7919 * i for i in range(q)], np.int32),
        ([(-1) ** i * 10**15 * i for i in range(q)], np.int64),
    ]))
    entries = draw(st.lists(st.sampled_from(pool), min_size=m * n, max_size=m * n))
    words = np.array(entries, dtype=dtype).reshape(m, n)
    if draw(st.booleans()):
        words[draw(st.integers(0, m - 1))] = words[draw(st.integers(0, m - 1))]
    return words


@SETTINGS
@example(np.array([[3, 1], [3, 1]], dtype=np.int16), 1)  # two equal rows
@example(np.array([[5, 2**20, 5]] * 3, dtype=np.int32), 2)  # int32 symbols, one class each
@example(  # four row bands of 12 rows; row 30 repeats row 11, the last of the first band
    np.array([[i % 20, i // 20] if i != 30 else [11, 0] for i in range(40)], dtype=np.int16), 1
)
@example(np.zeros((3, 0), dtype=np.int16), 1)  # no columns: every distance is 0
@given(shaped_matrices(), st.integers(1, 64))
def test_recount_on_square_wide_and_tall_matrices_matches_all_pairs(words, band):
    # a small band sorts a few columns at a time and counts tall matrices in many row blocks
    pairs = sum(
        int(np.sum(np.unique(col, return_counts=True)[1] ** 2)) for col in words.T
    )
    with patch.object(codes_module, "_BAND", band):
        found = distance_range(words, max_pairs=pairs)
        assert found == all_pairs_distance_range(words)
        assert found.pairs == tuple(first_pair_at(words, d) for d in found)
        with pytest.raises(OversizedError) as refused:
            distance_range(words, max_pairs=pairs - 1)
    m, n = words.shape
    assert str(refused.value) == (
        f"recounting the distances of {m} codewords of length {n} needs {pairs:,} "
        f"in-class row pairs, over the limit of {pairs - 1:,}"
    )


def _peak_bytes(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_recount_and_reader_peak_within_a_few_int16_matrices(tmp_path):
    # the agreement counts of a square code are the upper triangle of a uint16 matrix;
    # the reader fills one int16 matrix, block by block, from the open file
    ring = GaloisField(17, 2)
    fn = construct_product(ring, cyclic_subgroup(ring, 4), cyclic_subgroup(ring, 17))
    words = _shift_codewords(fn)
    assert words.dtype == np.int16
    text = '{"kind":"CCC","codewords":' + b"".join(matrix_json(words)).decode() + "}"
    path = tmp_path / "ccc.json"
    path.write_text(text)

    def read_file(path):
        with open(path, "rb") as fh:
            return decode_file(fh)

    assert _peak_bytes(distance_range, words) < words.nbytes
    assert _peak_bytes(read_file, path) < 1.5 * words.nbytes
    assert np.array_equal(read_file(path)["codewords"], words)


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
@example(ZdbFunction(RingAdditiveDomain(ResidueRing(4)), 3, [2, 0, 2, 0], 0))  # symbol 1 unused
@given(functions())
def test_dss_arrays_match_the_preimage_lists(fn):
    # unused symbols leave empty blocks; q = 1 leaves no cross pairs
    blocks = preimage_lists(fn)
    system = dss_from_zdb(fn, passing_result(fn))
    assert system.points is fn.grouping[0]  # shared with the function, not copied
    data = system.to_json()
    assert data["blocks"] == blocks
    assert system.to_json(blocks=False) == {**data, "blocks": None}
    assert b"".join(system.text_parts("json")).decode() == json.dumps(blocks, separators=(",", ":"))
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
    for dtype in (np.int64, np.int32):  # int32 positions stay int32, without an int64 copy
        a, b = a.astype(dtype), b.astype(dtype)
        assert ring.add_vec(a, b).tolist() == sums
        assert ring.neg_vec(a).tolist() == negs
        table = ring.add_vec(a[:, None], b[None, :])  # broadcasting
        assert table.shape == (24, 24) and table.dtype == ring.neg_vec(a).dtype == dtype
        assert table[5].tolist() == [kind_add(ring, int(a[5]), int(y)) for y in b]


# orders just below 2^31, the int32 law's top: one digit, two digits, and the
# product shape over a prime field with the subgroup {1, -1}
TOP_FIELD = GaloisField(1073741789)
TOP_DOMAINS = [
    RingAdditiveDomain(ResidueRing(2**31 - 1)),
    RingAdditiveDomain(ProductRing([ResidueRing(46337), ResidueRing(46337)])),
    RingTimesGroupDomain(TOP_FIELD, cyclic_subgroup(TOP_FIELD, 1073741788)),
]


@pytest.mark.parametrize("domain", TOP_DOMAINS, ids=["Z_(2^31-1)", "Z_46337^2", "GF(p) x {1,-1}"])
def test_group_law_on_int32_positions_near_2_31_matches_python_ints(domain):
    # a + b of two such positions passes 2^31; the lowest digit is reduced from a + b - n
    n = domain.order
    assert 2**30 < n < 2**31
    rng = np.random.default_rng(n)
    a = np.concatenate([np.arange(n - 8, n), rng.integers(0, n, 8), np.arange(8)]).astype(np.int32)
    b = rng.permutation(a)
    if isinstance(domain, RingAdditiveDomain):
        def op(x, y):
            return kind_add(domain.ring, x, y)

        def inverse(x):
            return kind_neg(domain.ring, x)
    else:
        e, group = domain.e, domain.group

        def op(x, y):
            return kind_add(domain.ring, x // e, y // e) * e + group.mul_pos[x % e][y % e]

        def inverse(x):
            return kind_neg(domain.ring, x // e) * e + group.inv_pos[x % e]
    sums = domain.op_vec(a[:, None], b[None, :])
    negs = domain.inverse_vec(a)
    assert sums.dtype == negs.dtype == np.int32
    assert sums.tolist() == [[op(int(x), int(y)) for y in b] for x in a]
    assert negs.tolist() == [inverse(int(x)) for x in a]


def test_position_dtype_is_int32_below_2_31():
    # decided from the count alone: nothing of that size is allocated
    assert _position_dtype(2**31 - 1) == np.int32
    assert _position_dtype(2**31) == np.int64
    a = np.arange(3, dtype=np.int32)
    assert _as_positions(2**31 - 1, a)[0] is a  # no copy
    assert _as_positions(2**31, a)[0].dtype == np.int64
    assert _as_positions(2**31 - 1, a, a.astype(np.int64))[0].dtype == np.int64


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
@given(domains(), st.data(), st.integers(1, 64))
def test_derived_shift_rows_match_each_shape(domain, data, band):
    # small bands make the rows span several group-law calls
    deltas = data.draw(st.lists(st.integers(0, domain.order - 1), max_size=8))
    with patch.object(domains_module, "_ROW_BAND", band):
        rows = domain.shift_rows(deltas)
    assert rows.shape == (len(deltas), domain.order)
    assert rows.dtype == np.int32
    assert np.array_equal(rows, shape_shift_rows(domain, deltas))


def test_shift_rows_of_every_shift_peak_under_their_output_plus_a_megabyte():
    # the negative-control recount's rows over GF(11^2) x C_6: the group law's
    # temporaries are the size of a band of rows, not of the output
    ring = GaloisField(11, 2)
    domain = RingTimesGroupDomain(ring, cyclic_subgroup(ring, 39))
    shifts = [d for d in range(domain.order) if d != domain.identity]
    tracemalloc.start()
    try:
        rows = domain.shift_rows(shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (725, 726) and rows.dtype == np.int32
    assert peak < rows.nbytes + 2**20
    assert np.array_equal(rows, shape_shift_rows(domain, shifts))


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
    symbols, counts = _shared_composition(words)
    shared = np.zeros(q, dtype=np.int64)
    shared[symbols] = counts
    assert ccc.composition == tuple(shared.tolist())
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


@SETTINGS
@example((Z7_PRODUCT.domain, Z7_PRODUCT.q, Z7_PRODUCT.table), 1)
@given(shift_tables(), st.integers(1, 64))
def test_banded_shift_code_text_matches_the_matrix_text(case, band):
    # a small band renders a few rows at a time, cutting the translates' row axes mid-axis
    domain, q, table = case
    fn = ZdbFunction(domain, q, table, 0)
    book = ccc_from_zdb(fn, passing_result(fn))
    with patch.object(codes_module, "_BAND", band):
        text = b"".join(book.text_parts("json"))
        csv = b"".join(book.text_parts("csv")).decode("ascii")
    assert book.words is None  # rendered band by band, the matrix never built
    words = _shift_codewords(fn)
    assert text == b"".join(matrix_json(words))
    assert text.decode() == json.dumps(words.tolist(), separators=(",", ":"))
    assert csv == joined_csv(words)


def test_banded_shift_code_text_peaks_far_below_the_matrix(catalog):
    fn = next(r.fn for r in catalog if r.certified == (2500, 834, 2))
    book = ccc_from_zdb(fn)
    peak = _peak_bytes(lambda: sum(map(len, book.text_parts("json"))))
    assert book.words is None
    assert peak < 0.25 * 2500**2 * 2


# -- codeword matrices across the JSON boundary ----------------------------


def matrix_json(words):
    """Parts of the JSON text of a codeword matrix, from the book writer."""
    m, n = words.shape
    return CodeBook("CCC", n, m, 0, 0, 0, words).text_parts("json")


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


@SETTINGS
@example([[]], 1)
@example([[], [5, -3], [], [], [7]], 1)  # empty blocks first and between others
@example([[0, 2**40], [-(2**63), 2**63 - 1]], 2)
@example([[1], list(range(-10, 10)), [2]], 1)  # a block longer than a band of 8 values
# an empty block ends the first band and one starts the third
@example([list(range(8)), [], list(range(8, 18)), [], [5]], 1)
@given(
    st.lists(st.lists(st.one_of(st.integers(-20, 20), st.integers(-(2**63), 2**63 - 1)),
                      max_size=6), min_size=1, max_size=8),
    st.integers(1, 64),
)
def test_block_writer_matches_json_dumps_and_the_line_join(blocks, band):
    # ragged blocks, empty ones included, cut into bands of whole blocks of 8 * band values
    points = np.array([x for b in blocks for x in b], dtype=np.int64)
    ends = np.cumsum([len(b) for b in blocks])
    with patch.object(codes_module, "_BAND", band):
        text = b"".join(codes_module._block_text(points, ends, "json")).decode()
        csv = b"".join(codes_module._block_text(points, ends, "csv")).decode()
    assert text == json.dumps(blocks, separators=(",", ":"))
    assert csv == "".join(",".join(map(str, b)) + "\n" for b in blocks)


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
    "escaped quote key", "newline inside",
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
    elif mutation == "escaped quote key":  # its bytes hold '"codewords":[[' first
        before = '"x\\"codewords":[[1,2]],'
    elif mutation == "escaped key":
        key = '"code\\u0077ords"'
    elif mutation == "newline inside":
        tokens[r][y] = "\n" + tokens[r][y]
    elif mutation != "canonical":
        tokens[r][y] = mutation
    matrix = {"[[]]": "[[]]", "[]": "[]"}.get(mutation) or _matrix_text(tokens, row_break)
    head = f'{{"kind":"CCC","n":{n},"M":{m},"q":{int(words.max()) + 1},"d":0,'
    return f"{head}{before}{key}:{matrix}{after}}}\n"


class _Pipe(io.BytesIO):
    """A file that cannot seek, as a pipe."""

    def seekable(self):
        return False


def _decode_file(text, pipe=False):
    return decode_file((_Pipe if pipe else io.BytesIO)(text.encode()))


def _plain(value):
    """A decoded value with arrays as lists, and (points, ends) as block lists."""
    if type(value) is tuple:
        return [block.tolist() for block in np.split(value[0], value[1])[:-1]]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return {k: _plain(v) for k, v in value.items()} if isinstance(value, dict) else value


def _outcome(read, text):
    try:
        value = read(text)
    except json.JSONDecodeError as exc:
        return "error", exc.msg, exc.pos
    return "value", _plain(value)


def _read(text, reader=None):
    """Codewords or the error of one reader: decode_file on the bytes of the
    text as a file or a pipe, with CodeBook.from_json, or json.loads with the
    list reader."""
    try:
        if reader is None:
            return list_codewords(json.loads(text))
        return CodeBook.from_json(reader(text)).codewords
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(SETTINGS, max_examples=15)
@given(data=st.data(), block=st.integers(1, 64))
def test_fast_reader_matches_json_loads(mutation, data, block):
    text = data.draw(codebook_texts(mutation))
    # a small read block makes the reader cut the matrix after many rows
    with patch.object(reader_module, "_READ_BLOCK", block):
        from_file = _read(text, _decode_file)
        from_pipe = _read(text, lambda t: _decode_file(t, pipe=True))
        if mutation in ("canonical", "999999999", "duplicate key", "escaped key", "quoted key",
                        "escaped quote key"):
            assert isinstance(_decode_file(text)["codewords"], np.ndarray)
        if mutation == "escaped quote key":  # the matrix cut from the bytes is not the codewords
            assert _decode_file(text)['x"codewords'] == [[1, 2]]
    slow = _read(text)
    if isinstance(slow, tuple):
        assert from_file == from_pipe == slow
        return
    fits = slow.size and -(2**15) <= slow.min() and slow.max() < 2**15
    for read in (from_file, from_pipe):
        assert np.array_equal(read, slow) and read.shape == slow.shape
        assert read.dtype == (np.int16 if fits else np.int32)


@pytest.mark.parametrize(
    "text",
    ["[1]", "1", '"x"', "", "{}", '{"codewords":[[1]]', '{"codewords":[[1]]}x',
     '{"a":1,}', '{"codewords":[[1],[2]],"codewords":[[3]]}', "\ufeff{}",
     '{"codewords":[[1,2],[3', '{"blocks":[[1],[]],"q":2', '{"codewords":[[1]]}\r\n',
     '{"blocks":[[1],[],[2]],\r"q":3}', '{"k":"\u00e9","codewords":[[1]]}',
     '\ufeff{"blocks":[[1]]}', '{"blocks":[[1]]}]]', '{"blocks":[[1]],"blocks":[[2,3]]}',
     '{"a":Infinity,"codewords":[[1]]}', '{"codewords":[[1]],"b":-Infinity}',
     '{"a":{"codewords":[[1]]},"codewords":[[2]]}', '[{"blocks":[[1]]}]'],
)
def test_fast_reader_keeps_json_loads_values_and_errors(text):
    expected = _outcome(json.loads, text)
    with patch.object(reader_module, "_READ_BLOCK", 3):
        assert _outcome(_decode_file, text) == expected
        assert _outcome(lambda t: _decode_file(t, pipe=True), text) == expected


# each mutation replaces one point token, or reshapes the block list or the file
POINT_MUTATIONS = [" 5", "5 ", "1.0", "true", "-1", "01", "1234567890", "null", '"7"', "[3]"]
BLOCK_MUTATIONS = [
    "canonical", *POINT_MUTATIONS, "newline inside", "),[", "];[", "[]", "[[]]", "crlf", "bom",
    "non-ascii", "truncated", "duplicate key", "escaped quote key",
]


@st.composite
def dss_texts(draw, mutation):
    """A DSS payload over Z_1000 whose blocks may be empty and may hold points
    outside the group, with one mutation."""
    points = st.one_of(st.integers(0, 999), st.integers(0, 10**9 - 1))
    blocks = draw(st.lists(st.lists(points, max_size=5), min_size=1, max_size=8))
    tokens = [[str(x) for x in block] for block in blocks]
    full = [b for b in range(len(tokens)) if tokens[b]]
    b = draw(st.sampled_from(full)) if full else None
    y = draw(st.integers(0, len(tokens[b]) - 1)) if full else None
    row_break, before, after = "],[", "", ""
    if mutation in ("),[", "];["):
        row_break = mutation
    elif mutation == "newline inside" and full:
        tokens[b][y] = "\n" + tokens[b][y]
    elif mutation == "duplicate key":
        after = ',"blocks":[[4,2],[]]'
    elif mutation == "escaped quote key":  # its bytes hold '"blocks":[[' first
        before = '"x\\"blocks":[[1,2]],'
    elif mutation in POINT_MUTATIONS and full:
        tokens[b][y] = mutation
    lists = {"[]": "[]", "[[]]": "[[]]"}.get(mutation) or _matrix_text(tokens, row_break)
    head = '{"kind":"DSS","group":{"kind":"ring_additive","ring":{"kind":"residue","n":1000}},'
    tail = ',"q":1,"tau":1,"lambda":null,"perfect":false,"partitioned":false}\n'
    text = f'{head}{before}"blocks":{lists}{after}{tail}'
    if mutation == "crlf":
        text = text.replace(",", ",\r\n", 1)
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "non-ascii":
        text = text.replace('"DSS"', '"DSS\u00e9"')
    elif mutation == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def _read_system(text, read):
    """Points and ends of the system read, or the error."""
    try:
        system = DssSystem.from_json(read(text))
    except ValueError as exc:
        return type(exc), str(exc)
    return system.points.tolist(), system.ends.tolist()


@pytest.mark.parametrize("mutation", BLOCK_MUTATIONS)
@settings(SETTINGS, max_examples=15)
@given(data=st.data(), block=st.integers(1, 16))
def test_block_reader_matches_json_loads(mutation, data, block):
    text = data.draw(dss_texts(mutation))
    # a read block of a few bytes makes every point and block straddle a chunk edge
    with patch.object(reader_module, "_READ_BLOCK", block):
        fast = _outcome(_decode_file, text)
        system = _read_system(text, _decode_file)
        if mutation in ("canonical", "[[]]", "duplicate key", "escaped quote key"):
            assert type(_decode_file(text)["blocks"]) is tuple
        if mutation == "escaped quote key":  # the lists cut from the bytes are not the blocks
            assert _decode_file(text)['x"blocks'] == [[1, 2]]
    assert fast == _outcome(json.loads, text)
    assert system == _read_system(text, json.loads)


@pytest.mark.parametrize("block", [1, 8, 64])
def test_rows_longer_than_a_read_block_are_cut_between_symbols(block):
    # a row of 300 symbols spans many read blocks: it is parsed a block at a time,
    # and a fault deep inside it still sends the file to json.loads
    row = ",".join(str(7 * i % 1000) for i in range(300))
    short = row[:50].rstrip(",")
    texts = {
        "codewords": '{"codewords":[[%s],[%s]],"n":300}' % (row, row),
        "blocks": '{"blocks":[[%s],[],[%s]],"q":3}' % (row, short),
    }
    with patch.object(reader_module, "_READ_BLOCK", block):
        for key, text in texts.items():
            value = _decode_file(text)[key]
            assert type(value) is (np.ndarray if key == "codewords" else tuple)
            assert _plain(_decode_file(text)) == json.loads(text)
            for fault in (", 7", ",07", ",1234567890"):  # valid, an error, valid
                bad = text.replace(",7", fault, 1)
                assert _outcome(_decode_file, bad) == _outcome(json.loads, bad)
                if fault != ",07":
                    assert type(_decode_file(bad)[key]) is list


def test_dss_blocks_of_equal_size_stay_lists():
    text = json.dumps(
        {"kind": "DSS", "group": {"kind": "additive"}, "blocks": [[0, 1], [2, 3], [4, 5]],
         "q": 3, "tau": 6, "lambda": 4, "perfect": True, "partitioned": True},
        separators=(",", ":"),
    )
    # a file's blocks arrive as (points, ends): equal blocks are not read as a matrix
    points, ends = _decode_file(text)["blocks"]
    assert (points.tolist(), ends.tolist()) == ([0, 1, 2, 3, 4, 5], [2, 4, 6])
    assert _plain(_decode_file(text)) == json.loads(text)


def test_shared_composition_memory_does_not_follow_the_alphabet():
    # two symbols 2047 apart in every row: no count is held per alphabet symbol
    words = np.tile(np.array([[0, 2047], [2047, 0]], dtype=np.int16), (512, 1))
    symbols, counts = _shared_composition(words)
    assert (symbols.tolist(), counts.tolist()) == ([0, 2047], [1, 1])
    assert _peak_bytes(_shared_composition, words) < 2**20


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
        # the same rows over a sparse alphabet, counted over the symbols that occur
        sparse = matrix.astype(np.int64) * 10**12 - 5
        with patch.object(codes_module, "_BAND", band):
            shared = _shared_composition(matrix)
            shared_sparse = _shared_composition(sparse)
        if (whole == whole[0]).all():
            # the first row's symbols, which are then every row's, and their counts
            symbols = np.unique(matrix)
            assert np.array_equal(shared[0], symbols)
            assert np.array_equal(shared[1], whole[0][symbols])
            assert np.array_equal(shared_sparse[0], np.unique(sparse))
            assert np.array_equal(shared_sparse[1], whole[0][symbols])
        else:  # the first row whose counts differ from the first row's
            differs = int(np.flatnonzero((whole != whole[0]).any(axis=1))[0])
            assert shared == shared_sparse == differs
