"""Codes and difference systems derived from verified balanced functions.

The shift code of a function f on an abelian group A has one codeword
per group element a, with coordinates c_a(y) = f(y + a) in domain index
order.  Because distances between shifted rows reduce to spectrum
counts, a zero-difference balanced f with parameters (n, m, lambda)
yields an equidistant code of length n, size n, and distance n - lambda
in which every codeword has the same composition (a constant
composition code), and, when symbol 0 has a single preimage, a constant
weight code of weight n - 1.  The preimages of the symbols form a
partitioned difference system whose blocks cover every nonzero group
element the same number of times.

A derived book holds its function, that is the domain and the table,
and builds no matrix: every row of the shift code is the table permuted
(y -> a + y is a bijection of the domain), so the shared composition is
the table's symbol counts and a table with one zero gives every codeword
weight n - 1.  The n x n matrix is built only when ``codewords`` is read:
the domain's ``translates`` of the table, gathered from a strided view of
cyclic windows over the additive digits, with the subgroup coordinate
gathered through its product table (see domains).  An export renders the
same view a band of rows at a time (``translate_bands``) and never holds
the matrix.

A difference system is two read-only arrays: the points of every block in
block order and the block ends, the cumulative block sizes: the layout
of a function's ``grouping`` by symbol, whose points a derived system
shares, and of the runs the counting kernel reads.

Derivations refuse unverified input: each builder takes the function and
an optional verification result, runs ``verify_zdb`` when none is given,
and refuses a failed result or the result of another function.  Every
derived count is read from the difference spectrum in that result, which
the domain's in-class ``difference_counts`` kernel counted once:

* the distance between the shifted rows c_a and c_b is n minus the
  spectrum at a - b, so the distance range of the shift code is
  n - (max, min) of the spectrum;
* the symbol classes partition the group, so the cross-block count of a
  nonzero a is n minus the in-class count, the spectrum at a; stored
  systems are recounted with the kernel itself by ``dss_perfect_check``.

A design read from a file rechecks itself: ``CodeBook.recheck`` and
``DssSystem.recheck`` recompute every stored claim and return a note, with
a witness, for each that does not hold; the command line only prints them.

Codebooks that arrive as explicit matrices are rechecked by
``distance_range`` with the same in-class idea applied to the stored
rows: two rows agree at a coordinate exactly when they share its
symbol, so the agreements of every pair of rows are counted from the
same-symbol row pairs of each column, at a cost of the sum of squared
class sizes rather than M^2 n symbol comparisons, in one loop over bands
of rows, each row's counts packed against its later rows only: a square
or wide code is one band, the upper triangle of the count matrix.  Their
shared composition is checked by comparing sorted rows with the sorted
first row.  Bound arithmetic is exact (integers and fractions); no
floats are involved anywhere.

Codeword matrices and block lists cross the file boundary as arrays, in
memory bounded by the array and one band: ``_list_text`` renders bands of
whole lists as runs (values, ends), a derived book's translates, a stored
matrix's rows or a system's blocks, to JSON or CSV text, one part per band,
and ``reader.decode_file`` parses them from the open file in blocks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .domains import _PAIR_BLOCK, AbelianDomain, _run_sizes, domain_from_json
from .errors import (
    NotCwcEligibleError,
    OversizedError,
    VerificationError,
    _field,
    _typed,
)
from .rings import _position_dtype

# the builders import verify inside, so a stored file is rechecked without
# loading the construction and verification modules
if TYPE_CHECKING:
    from .function import ZdbFunction
    from .verify import DifferenceSpectrum, VerificationResult

__all__ = [
    "CodeBook",
    "DssSystem",
    "BoundReport",
    "PerfectCheck",
    "ccc_from_zdb",
    "cwc_from_zdb",
    "dss_from_zdb",
    "dss_perfect_check",
    "distance_range",
    "ccc_bound",
    "cwc_bound",
    "dss_bound",
    "ccc_report",
    "cwc_report",
    "dss_report",
]

# matrix cells that distance_range and _shared_composition sort at once, the
# sort's temporaries taking some forty bytes a cell; a tall code's agreements are
# counted in bands of rows of up to 512 * _BAND cells.  The list writer renders
# bands of whole lists of about 8 * _BAND values, a few hundred kilobytes of text,
# at once, and a derived book's translates are built in bands of as many cells
_BAND = 1 << 13


@dataclass
class CodeBook:
    """A block code of M codewords of length n over the symbols range(q).

    kind is "CCC" (constant composition) or "CWC" (constant weight).
    d and d_max are the exhaustively computed minimum and maximum
    pairwise Hamming distances.  composition is the per-symbol count
    vector shared by all codewords; weight is set on CWC books.

    A book read from a file holds its explicit M x n matrix as words.  A
    book derived from a verified function holds the function as fn, and
    its matrix, the shift code, is built by ``codewords`` on first read
    and kept in words.
    """

    kind: str
    n: int
    M: int
    q: int
    d: int
    d_max: int
    words: np.ndarray | None = None
    composition: tuple[int, ...] | None = None
    weight: int | None = None
    fn: ZdbFunction | None = None

    @property
    def codewords(self) -> np.ndarray:
        """The M x n symbol matrix."""
        if self.words is None:
            self.words = _shift_codewords(self.fn)
        return self.words

    def to_json(self, *, codewords: bool = True) -> dict:
        """The JSON object of the book.  With codewords=False the
        "codewords" entry is None, a slot for a writer that renders the
        matrix itself (``text_parts``)."""
        out: dict = {
            "kind": self.kind,
            "n": self.n,
            "M": self.M,
            "q": self.q,
            "d": self.d,
            "d_max": self.d_max,
            "codewords": self.codewords.tolist() if codewords else None,
        }
        if self.composition is not None:
            out["composition"] = list(self.composition)
        if self.weight is not None:
            out["weight"] = self.weight
        return out

    @staticmethod
    def from_json(data: dict) -> "CodeBook":
        """Read a book parsed by ``json.loads``, the codewords as lists of
        rows, or by ``reader.decode_file``, a canonical matrix as an array.
        The matrix is stored as int16 when every symbol fits, else as int32."""
        rows = _field(data, "codewords", None)
        if isinstance(rows, np.ndarray):
            words = rows
        else:
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise ValueError("codewords must be a list of rows")
            if not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
                r, y, s = next(
                    (r, y, s) for r, row in enumerate(rows) for y, s in enumerate(row)
                    if type(s) is not int
                )
                raise ValueError(f"codeword row {r} column {y} is {s!r}, not an integer")
            r = next((r for r, row in enumerate(rows) if len(row) != len(rows[0])), None)
            if r is not None:
                raise ValueError(
                    f"codeword row {r} has {len(rows[r])} symbols, row 0 has {len(rows[0])}"
                )
            try:
                words = np.asarray(rows, dtype=np.int32)
            except OverflowError as exc:
                raise ValueError(f"codeword symbol out of range: {exc}") from None
        if words.size and -(2**15) <= words.min() and words.max() < 2**15:
            words = words.astype(np.int16, copy=False)
        n, M, q, d = (_field(data, key) for key in ("n", "M", "q", "d"))
        composition = None
        if "composition" in data:
            entries = _field(data, "composition", list)
            composition = tuple(_typed("composition", w) for w in entries)
        return CodeBook(
            kind=_field(data, "kind", None),
            n=n,
            M=M,
            q=q,
            d=d,
            d_max=_typed("d_max", data.get("d_max", d)),
            words=words,
            composition=composition,
            weight=_field(data, "weight") if "weight" in data else None,
        )

    def recheck(self, max_pairs: int | None = None) -> list[str]:
        """A note for each claim of the book that its matrix does not bear out.
        max_pairs bounds the recount as in ``distance_range`` and, as a code with
        more rows than columns is recounted over every row pair, its row pairs."""
        words = self.codewords
        if words.shape != (self.M, self.n):
            return [f"codeword matrix is {words.shape}, header says ({self.M}, {self.n})"]
        if words.size and (int(words.min()) < 0 or int(words.max()) >= self.q):
            r, y = divmod(int(np.flatnonzero((words < 0) | (words >= self.q))[0]), self.n)
            note = f"has symbol {words[r, y]} outside the alphabet of size {self.q}"
            return [f"row {r} column {y} {note}"]
        pairs = self.M * (self.M - 1) // 2
        if self.M > self.n and max_pairs is not None and pairs > max_pairs:
            raise OversizedError(
                f"recounting the distances of {self.M} codewords of length {self.n} compares "
                f"{pairs:,} row pairs, over the limit of {max_pairs:,}"
            )
        found = distance_range(words, max_pairs=max_pairs)
        problems = []
        if found != (self.d, self.d_max):
            named = (f"rows {r} and {s} at distance {x}" for (r, s), x in zip(found.pairs, found))
            note = f"stored distances {(self.d, self.d_max)} but recomputed {found}"
            problems.append(f"{note}: {', '.join(named)}")
        shared = _shared_composition(words)
        if isinstance(shared, int):
            note = f"row {shared} differs from row 0"
            problems.append(f"codewords do not share one composition: {note}")
        elif self.composition is not None:
            composition = dict(zip(*(a.tolist() for a in shared)))
            if len(self.composition) != self.q or any(
                w != composition.get(s, 0) for s, w in enumerate(self.composition)
            ):
                problems.append("stored composition differs from the codewords")
        if self.kind == "CWC" and self.weight is None:
            problems.append("stored weight differs from the codewords")
        elif self.kind == "CWC":
            weights = np.count_nonzero(words, axis=1)
            if (weights != self.weight).any():
                r = int(np.argmax(weights != self.weight))  # the first row of another weight
                note = f"row {r} has weight {weights[r]}"
                problems.append(f"stored weight {self.weight} differs from the codewords: {note}")
        return problems

    def text_parts(self, fmt: str) -> Iterator[bytes]:
        """The codewords as a JSON list of rows (fmt "json") or as CSV lines
        (fmt "csv"), in byte parts of whole rows, about 8 * _BAND symbols each.
        A derived book whose matrix was never read renders the translates of
        its table a band at a time, and never holds the matrix."""
        symbols = _shift_table(self.fn) if self.words is None else self.words
        n = symbols.shape[-1]
        rows = max(1, 8 * _BAND // max(n, 1))
        if self.words is None:
            bands = self.fn.domain.translate_bands(symbols, rows)
        else:
            bands = (symbols[r0 : r0 + rows] for r0 in range(0, len(symbols), rows))
        ends = n * np.arange(1, rows + 1)
        return _list_text(((band.ravel(), ends[: len(band)]) for band in bands), symbols, fmt)


def _decimal(keys: np.ndarray) -> np.ndarray:
    """Each key as the text "%d," in a fixed-width byte array: right-aligned,
    NUL-padded, the sign in a column of its own when any key is negative."""
    x = keys.astype(np.int64)
    negative = x < 0
    magnitude = np.abs(x).astype(np.uint64)  # -2**63 stays itself and reads as 2**63
    most = len(str(int(magnitude.max()))) if len(x) else 1
    sign = int(negative.any())
    cells = np.zeros((len(x), sign + most + 1), dtype=np.uint8)
    cells[negative, 0] = ord("-")
    cells[:, -1] = ord(",")
    cells[:, -2] = magnitude % 10 + ord("0")
    for col in range(sign + most - 2, sign - 1, -1):
        magnitude //= 10
        cells[:, col] = np.where(magnitude > 0, magnitude % 10 + ord("0"), 0)
    return cells.view(f"S{cells.shape[1]}").ravel()


# the text (before the first list, after each list but the last, after the
# last, of no lists at all) of each format the list writer renders
_LAYOUTS = {"json": (b"[[", b"],[", b"]]", b"[]"), "csv": (b"", b"\n", b"\n", b"\n")}


def _tokenizer(symbols: np.ndarray):
    """The per-call token table of the symbols an int array holds, from
    ``_decimal``, and a function from an array of those symbols to their
    rows in the table: the dense range from the least symbol when its span
    is at most the symbol count, else the distinct symbols, searched."""
    lo, hi = (int(symbols.min()), int(symbols.max())) if symbols.size else (0, 0)
    if hi - lo <= symbols.size:
        return _decimal(np.arange(lo, hi + 1)), lambda band: np.subtract(band, lo, dtype=np.intp)
    keys = np.unique(symbols)
    return _decimal(keys), lambda band: np.searchsorted(keys, band)


def _list_text(bands: Iterable, symbols: np.ndarray, fmt: str) -> Iterator[bytes]:
    """Lists of ints, given as bands (values, ends) of whole lists, list b of
    a band being values[ends[b-1] : ends[b]] (from 0 for b = 0), as decimal
    text with "," between the values of a list: a JSON list of lists for fmt
    "json", one CSV line per list for "csv", one part per band.  symbols holds
    every value of every band (the values, or a table each band permutes).

    A band is gathered from the token table and the marks into one cell per
    value and one per list for the mark before it, the mark of list b at
    cell ends[b-1] + b; the comma of the last value of each list and the NUL
    padding are dropped."""
    head, between, last, empty = _LAYOUTS[fmt]
    tokens, index = _tokenizer(symbols)
    width = tokens.itemsize
    cell = np.dtype(f"S{max(width, len(head), len(between))}")
    mark = head
    for values, ends in bands:
        at = np.arange(len(ends)) + ends  # the last cell of each list: a value, or its mark
        marks = at[:-1] + 1  # the mark before each list but the first
        value = np.ones(len(values) + len(ends), dtype=bool)
        value[0] = value[marks] = False
        cells = np.empty(len(value), dtype=cell)
        cells[value] = tokens[index(values)]
        cells[marks] = between
        cells[0] = mark
        cells.view(np.uint8).reshape(len(cells), -1)[at[value[at]], width - 1] = 0
        yield cells.tobytes().replace(b"\0", b"")
        mark = between
    yield empty if mark is head else last


def _block_text(values: np.ndarray, ends: np.ndarray, fmt: str) -> Iterator[bytes]:
    """The blocks values[ends[b-1] : ends[b]] (from 0 for b = 0) of an int
    array as the text of ``_list_text``, in bands of whole blocks of up to
    8 * _BAND values.  A block longer than that is a band of its own;
    ``codes dss`` writes none, as its blocks hold at most 10**4 points unless
    forced."""

    def bands():
        a, start = 0, 0
        while a < len(ends):
            b = max(a + 1, int(np.searchsorted(ends, start + 8 * _BAND, "right")))
            yield values[start : ends[b - 1]], ends[a:b] - start
            a, start = b, int(ends[b - 1])

    return _list_text(bands(), values, fmt)


@dataclass(frozen=True)
class DssSystem:
    """Disjoint difference sets D_0..D_{q-1} inside an abelian group.

    The blocks are two read-only arrays: points holds every block's
    members in block order and ends the cumulative block sizes, so block
    b is points[ends[b-1] : ends[b]] (from 0 for b = 0); ``blocks`` gives
    those slices as views.  Points are int32 while the group order is
    below 2**31, and ends while the point count is, else int64.  Every
    point is checked to be a group element index when the system is made,
    and a ValueError names the first that is not; ``from_json`` checks the
    exact JSON integers before numpy sees them.

    lam is the certified minimum coverage of nonzero elements by
    cross-block differences; perfect means the coverage is exactly lam
    everywhere; partitioned means the blocks cover the whole group.
    tau is the total number of points, the quantity the lower bound
    speaks about.
    """

    domain: AbelianDomain
    points: np.ndarray
    ends: np.ndarray
    q: int
    tau: int
    lam: int | None
    perfect: bool
    partitioned: bool

    def __post_init__(self):
        order = self.domain.order
        points, ends = np.asarray(self.points), np.asarray(self.ends)
        if not (points.ndim == ends.ndim == 1 and {points.dtype.kind, ends.dtype.kind} <= set("iu")):
            raise ValueError("block points and ends must be 1-D integer arrays")
        if points.size and (points.min() < 0 or points.max() >= order):
            outside = np.flatnonzero((points < 0) | (points >= order))
            raise _not_an_element(int(points[outside[0]]), order)
        if (_run_sizes(ends) < 0).any() or (ends[-1] if len(ends) else 0) != len(points):
            raise ValueError("block ends must ascend from 0 to the number of points")
        for name, values, dtype in (
            ("points", points, _position_dtype(order)),
            ("ends", ends, _position_dtype(len(points))),
        ):
            # a read-only array owning its data in its dtype, as a grouping, is shared
            if values.dtype != dtype or values.flags.writeable or not values.flags.owndata:
                values = np.array(values, dtype=dtype)
                values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def blocks(self) -> list[np.ndarray]:
        """Each block as a read-only view of points."""
        return np.split(self.points, self.ends)[:-1]

    def recount(self) -> tuple[int, int, bool]:
        """(q, tau, partitioned) from the arrays alone: the block count, the
        point count, and whether the points are every group element once."""
        order = self.domain.order
        partitioned = len(self.points) == order
        if partitioned:  # order points are every element once when they hit every element
            hit = np.zeros(order, dtype=bool)
            hit[self.points] = True
            partitioned = bool(hit.all())
        return len(self.ends), len(self.points), partitioned

    def to_json(self, *, blocks: bool = True) -> dict:
        """The JSON object of the system.  With blocks=False the "blocks"
        entry is None, a slot for a writer that renders them itself
        (``text_parts``)."""
        lists = None
        if blocks:
            points, ends = self.points.tolist(), self.ends.tolist()
            lists = [points[a:b] for a, b in zip([0, *ends], ends)]
        return {
            "kind": "DSS",
            "group": self.domain.to_json(),
            "blocks": lists,
            "q": self.q,
            "tau": self.tau,
            "lambda": self.lam,
            "perfect": self.perfect,
            "partitioned": self.partitioned,
        }

    @staticmethod
    def from_json(data: dict) -> "DssSystem":
        """Read a system parsed by ``json.loads``, the blocks as lists, or by
        ``reader.decode_file``, canonical blocks as the pair (points, ends)."""
        lam = data.get("lambda")
        pair = type(data.get("blocks")) is tuple
        blocks = _field(data, "blocks", None if pair else list)
        domain = domain_from_json(_field(data, "group", None))
        sizes = () if pair else [len(_typed("blocks", b, list)) for b in blocks]
        points, ends = blocks if pair else (None, None)
        claims = dict(
            q=_field(data, "q"),
            tau=_field(data, "tau"),
            lam=None if lam is None else _typed("lambda", lam),
            perfect=_field(data, "perfect", bool),
            partitioned=_field(data, "partitioned", bool),
        )
        if not pair:
            # exact ints only: numpy would read True as 1, 1.5 as a float and 2**70 as an object
            points, order = list(itertools.chain.from_iterable(blocks)), domain.order
            exact = set(map(type, points)) <= {int}
            if not exact or (points and not 0 <= min(points) <= max(points) < order):
                bad = next(x for x in points if type(x) is not int or not 0 <= x < order)
                raise _not_an_element(bad, order)
            points = np.array(points, dtype=_position_dtype(order))
            ends = np.cumsum(sizes, dtype=_position_dtype(len(points)))
        for values in (points, ends):
            values.flags.writeable = False  # read-only arrays of their own are shared
        return DssSystem(domain, points, ends, **claims)

    def recheck(self, max_pairs: int | None = None) -> list[str]:
        """A note for each claim that a recount of the blocks does not bear out,
        or the one that they overlap, and one that no bound applies to a system
        stored as not perfect; max_pairs bounds it as in ``dss_perfect_check``.
        The lam note names the smallest difference at the least coverage and,
        when the coverage is not constant, at the most."""
        q, tau, partitioned = self.recount()
        try:
            chk = dss_perfect_check(self, max_pairs=max_pairs)
        except RuntimeError as exc:  # overlapping blocks
            problems = [str(exc)]
        else:
            problems = []
            if (self.q, self.tau) != (q, tau):
                problems.append(f"stored q={self.q} tau={self.tau} but recounted q={q} tau={tau}")
            # lambda is the minimum coverage, as dss_from_zdb writes it, perfect or not
            if (chk.lam_min, chk.perfect) != (self.lam, self.perfect):
                note = (
                    f"stored lambda={self.lam} perfect={self.perfect} but recomputed "
                    f"lambda={chk.lam_min} perfect={chk.perfect}"
                )
                if chk.coverage is not None:
                    cover = np.delete(chk.coverage, self.domain.identity)
                    at = [int(cover.argmin())] + ([] if chk.perfect else [int(cover.argmax())])
                    note += ": " + ", ".join(
                        f"difference {i + (i >= self.domain.identity)} covered {cover[i]} times"
                        for i in at
                    )
                problems.append(note)
            if self.partitioned and not partitioned:
                problems.append("blocks marked partitioned do not cover the group")
        if self.lam is None or not self.perfect:
            problems.append("the system is not perfect, so no bound applies")
        return problems

    def text_parts(self, fmt: str) -> Iterator[bytes]:
        """The blocks as a JSON list of lists (fmt "json") or as CSV lines,
        one per block with its points joined by commas (fmt "csv"), in byte
        parts of about 8 * _BAND points each."""
        return _block_text(self.points, self.ends, fmt)


def _not_an_element(x, order: int) -> ValueError:
    return ValueError(f"block element {x!r} is not an element of the group of order {order}")


class PerfectCheck(NamedTuple):
    lam_min: int
    perfect: bool
    lam: int | None


class _Coverage(PerfectCheck):
    """A check with the coverage it read of each element; the identity's repeats another's."""

    coverage: np.ndarray | None = None  # no cross pair with fewer than two blocks


@dataclass(frozen=True)
class BoundReport:
    """An exact-rational bound next to the size a design achieves.

    bound_num / bound_den is the bound in lowest terms.  For code
    bounds it is an upper limit on the number of codewords and optimal
    means the achieved size equals its floor; for the difference-system
    bound it is an integer lower limit on the point count and optimal
    means equality.
    """

    kind: str
    bound_num: int
    bound_den: int
    achieved: int
    applicable: bool
    optimal: bool
    note: str = ""

    @property
    def bound(self) -> Fraction:
        return Fraction(self.bound_num, self.bound_den)

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "bound": {"num": self.bound_num, "den": self.bound_den},
            "achieved": self.achieved,
            "applicable": self.applicable,
            "optimal": self.optimal,
        }
        if self.note:
            out["note"] = self.note
        return out


def _require_verified(fn: ZdbFunction, result: VerificationResult | None) -> VerificationResult:
    from .verify import verify_zdb

    if result is None:
        result = verify_zdb(fn)
    if not result.ok:
        raise VerificationError(
            f"refusing to derive from an unverified function: {result.to_json()}"
        )
    if result.fn is not fn:
        raise VerificationError("verification result belongs to a different function")
    return result


def _shift_table(fn: ZdbFunction) -> np.ndarray:
    """The table in the dtype of its shift code: int16 when every symbol
    fits, else int32."""
    return fn.table.astype(np.int16 if fn.q < 2**15 else np.int32)


def _shift_codewords(fn: ZdbFunction) -> np.ndarray:
    """The n x n shift-code matrix, row a being y -> f(a + y)."""
    return fn.domain.translates(_shift_table(fn))


def _pair_blocks(start, width):
    """Walk a pair layout in blocks of about _PAIR_BLOCK pairs.

    Entry i pairs with the positions start[i], ..., start[i] + width[i] - 1.
    Yields (lo, hi, partners): the pairs of entries lo..hi-1, in entry
    order, as the partner position of each pair.  An entry with more than
    _PAIR_BLOCK pairs makes a block of its own.
    """
    end = np.cumsum(width)
    begin = end - width  # pairs are numbered consecutively, those of entry i from begin[i]
    lo = 0
    while lo < len(width):
        hi = max(lo + 1, int(np.searchsorted(end, begin[lo] + _PAIR_BLOCK, side="right")))
        shift = np.repeat(start[lo:hi] - begin[lo:hi], width[lo:hi])  # pair number -> partner
        yield lo, hi, shift + np.arange(begin[lo], end[hi - 1])
        lo = hi


class _Range(tuple):
    """(d, d_max) as a tuple, with pairs: the first row pair (r, s), r < s in
    row order, at distance d and the first at d_max."""

    pairs: tuple[tuple[int, int], tuple[int, int]]


def distance_range(codewords: np.ndarray, *, max_pairs: int | None = None) -> tuple[int, int]:
    """Minimum and maximum Hamming distance between distinct rows; the
    tuple's ``pairs`` names the first row pair at each.

    Two rows agree at coordinate y exactly when they sit in the same symbol
    class of column y.  Each band of about _BAND cells of columns is sorted by
    symbol and each row paired with the later rows of its class, at a cost of
    the sum of squared class sizes, not M^2 n; each pair adds one to the
    agreement count of its earlier row with the later one.  The counts
    (uint8, uint16 or uint32 as n needs) are held for a band of rows, packed
    row by row, each row holding only its later rows: one band of every row
    when M <= n, the upper triangle, M(M - 1)/2 cells counted as each column
    band is sorted.  A taller code keeps every column band's sort (the rows
    by rank and the later ranks of each rank's class) and counts bands of
    max(n, 512 _BAND / M) rows, each picking its rows of every sort by row
    index.  The extremes, and the first cell at each, are read from each
    band's packed counts.

    When max_pairs is given and that sum of squared class sizes exceeds it,
    OversizedError is raised, no more than max_pairs pairs counted.
    """
    c = np.asarray(codewords)
    m, n = c.shape
    if m < 2:
        raise ValueError("distance needs at least two codewords")
    count = np.uint8 if n < 2**8 else np.uint16 if n < 2**16 else np.uint32
    band = min(m, max(n, 1, (_BAND << 9) // m))  # rows counted at once: all when m <= n
    key = _position_dtype(band * m)

    def packed(r0, b):
        # where the later rows of rows r0 .. r0 + b (b + 1 entries) start in a band's counts
        i = np.arange(b + 1, dtype=np.int64)
        return i * (m - 1 - r0) - i * (i - 1) // 2

    counts = None if band < m else np.zeros(int(packed(0, m - 1)[-1]), dtype=count)
    sorts, pairs = [], 0

    def pair_up(counts, rows, later, picked, r0):
        # add one to the cell of (r, s) for each row r at the picked positions of a sort
        # (all of them when picked is None) and each later row s of its class; with i
        # = r - r0 that cell is i (m - 1 - r0) - i (i - 1) / 2 + s - r - 1
        if picked is None:
            first, width, ahead = np.arange(1, len(rows) + 1), later, rows
        else:
            first, width, ahead = picked + 1, later[picked], rows[picked]
        for lo, hi, partners in _pair_blocks(first, width):
            r = ahead[lo:hi]
            i = r - r0
            at = np.repeat(i * (m - 1 - r0) - i * (i - 1) // 2 - r - 1, width[lo:hi])
            np.add.at(counts, at + rows[partners], count(1))

    step = max(1, _BAND // m)
    for y0 in range(0, n, step):
        cols = c[:, y0 : y0 + step].T
        by_symbol = np.argsort(cols, axis=1, kind="stable")  # rows ascend inside a class
        sym = np.take_along_axis(cols, by_symbol, axis=1)
        opens = np.ones(sym.shape, dtype=bool)
        opens[:, 1:] = sym[:, 1:] != sym[:, :-1]
        start = np.flatnonzero(opens)  # flat over the band; a class never crosses a column
        size = np.diff(start, append=sym.size)
        pairs += int(size @ size)
        later = np.repeat(start + size, size) - np.arange(1, sym.size + 1)
        rows = by_symbol.ravel().astype(key)
        if band < m:
            sorts.append((rows, later.astype(key)))
        elif max_pairs is None or pairs <= max_pairs:
            pair_up(counts, rows, later, None, 0)
    if max_pairs is not None and pairs > max_pairs:
        raise OversizedError(
            f"recounting the distances of {m} codewords of length {n} needs "
            f"{pairs:,} in-class row pairs, over the limit of {max_pairs:,}"
        )

    # the most and the fewest agreements, each with the first row pair that has them;
    # bands go in row order and argmax and argmin take the first cell in a band
    most, fewest = (-1, None), (n + 1, None)
    for r0 in range(0, m - 1, band):
        b = min(band, m - 1 - r0)
        starts = packed(r0, b)
        if band < m:
            counts = np.zeros(int(starts[-1]), dtype=count)
            for rows, later in sorts:
                pair_up(counts, rows, later, np.flatnonzero((rows >= r0) & (rows < r0 + b)), r0)
        for cell in (int(counts.argmax()), int(counts.argmin())):
            agree = int(counts[cell])
            if agree > most[0] or agree < fewest[0]:
                i = int(np.searchsorted(starts, cell, side="right")) - 1
                pair = r0 + i, r0 + i + 1 + cell - int(starts[i])
                most = (agree, pair) if agree > most[0] else most
                fewest = (agree, pair) if agree < fewest[0] else fewest
    found = _Range((n - most[0], n - fewest[0]))
    found.pairs = most[1], fewest[1]
    return found


def _shared_composition(words: np.ndarray) -> tuple[np.ndarray, np.ndarray] | int:
    """The distinct symbols of the first row of a matrix and their counts
    there, when every row holds the same symbols as many times, else the
    first row that does not.  Each band of about _BAND cells is sorted along
    its rows and compared with the sorted first row, so memory does not
    depend on the alphabet."""
    first = np.sort(words[0])
    step = max(1, _BAND // max(words.shape[1], 1))
    for r0 in range(0, len(words), step):
        same = (np.sort(words[r0 : r0 + step], axis=1) == first).all(axis=1)
        if not same.all():
            return r0 + int(same.argmin())
    return np.unique(first, return_counts=True)


def _shift_book(kind: str, fn: ZdbFunction, spec: DifferenceSpectrum, **extra) -> CodeBook:
    """The shift code of fn as a book without a matrix; d(c_a, c_b) is
    n - spectrum(a - b), so d and d_max are n minus the extreme counts."""
    n = fn.n
    return CodeBook(kind, n, n, fn.q, n - spec.max_count, n - spec.min_count, fn=fn, **extra)


def ccc_from_zdb(fn: ZdbFunction, result: VerificationResult | None = None) -> CodeBook:
    """Constant composition code of all shifted copies of a verified function.

    Every codeword is the table permuted, so the shared composition is
    the table's symbol counts; d and d_max are n minus the extremes of
    the verified spectrum.  The book holds fn; its matrix is built only
    when ``codewords`` is read.
    """
    from .verify import composition_profile

    spec = _require_verified(fn, result).spectrum
    return _shift_book("CCC", fn, spec, composition=composition_profile(fn).counts)


def cwc_from_zdb(fn: ZdbFunction, result: VerificationResult | None = None) -> CodeBook:
    """Constant weight view of the same shift code.

    Requires symbol 0 to have exactly one preimage.  Every codeword is
    the table permuted, so each then holds exactly one zero and has
    weight n - 1.  The book holds fn; its matrix is built only when
    ``codewords`` is read.
    """
    spec = _require_verified(fn, result).spectrum
    zero_count = np.count_nonzero(fn.table == 0)
    if zero_count != 1:
        raise NotCwcEligibleError(
            f"symbol 0 must have exactly one preimage, found {zero_count}"
        )
    return _shift_book("CWC", fn, spec, weight=fn.n - 1)


def dss_from_zdb(fn: ZdbFunction, result: VerificationResult | None = None) -> DssSystem:
    """Partitioned difference system from the symbol preimages.

    The cross-block coverage is n minus the verified spectrum: lam is n
    minus its largest count, and the system is perfect when it is
    constant.  With fewer than two blocks there are no cross pairs, so
    lam is 0 and the system is not perfect, as in ``dss_perfect_check``.
    The points, and the ends when every symbol occurs, are the function's
    grouping by symbol, shared with it; else block b is symbol b's preimage
    in ascending order, empty if a forced result let an unused symbol through.
    """
    spec = _require_verified(fn, result).spectrum
    crossed = fn.q >= 2
    points, ends = fn.grouping
    if len(ends) != fn.q:
        sizes = np.zeros(fn.q, dtype=points.dtype)
        sizes[fn.table[points[ends - 1]]] = _run_sizes(ends)
        ends = sizes.cumsum(dtype=points.dtype)
        ends.flags.writeable = False  # shared as it is, like the points
    return DssSystem(
        domain=fn.domain,
        points=points,
        ends=ends,
        q=fn.q,
        tau=fn.n,
        lam=fn.n - spec.max_count if crossed else 0,
        perfect=crossed and spec.is_constant,
        partitioned=True,
    )


def dss_perfect_check(system: DssSystem, *, max_pairs: int | None = None) -> PerfectCheck:
    """Count the multiset of cross-block differences.

    Counts x - y over all ordered pairs taken from distinct blocks and
    reports the minimum coverage of nonzero group elements, whether the
    coverage is uniform, and its level when it is.  A system with fewer
    than two blocks has no cross pairs at all.  Overlapping blocks raise
    RuntimeError.  The blocks are the kernel's runs as stored, and all
    pairs are one run of every point, checked when the system was made.

    When max_pairs is given and the kernel would form more pairs than that
    (the squared block sizes, and the squared point count too unless the
    blocks partition the group), OversizedError is raised before any count.
    """
    domain, points, ends = system.domain, system.points, system.ends
    if len(ends) < 2:
        return _Coverage(0, False, None)
    partitioned = system.recount()[2]
    if max_pairs is not None:
        sizes = _run_sizes(ends).astype(np.int64)
        pairs = int(sizes @ sizes) + (0 if partitioned else len(points) ** 2)
        if pairs > max_pairs:
            raise OversizedError(
                f"recounting the coverage of {len(ends)} blocks of {len(points)} points "
                f"needs {pairs:,} point pairs, over the limit of {max_pairs:,}"
            )
    if partitioned:  # every difference arises from exactly n pairs
        union = domain.order
    else:
        union = domain.difference_counts(points, [len(points)])
    counts = union - domain.difference_counts(points, ends)
    if counts[domain.identity] != 0:
        raise RuntimeError("blocks are not disjoint")
    counts[domain.identity] = counts[domain.identity - 1]  # changes neither extreme
    lam_min = int(counts.min())
    perfect = lam_min == int(counts.max())
    chk = _Coverage(lam_min, perfect, lam_min if perfect else None)
    chk.coverage = counts
    return chk


# -- bound arithmetic (exact rationals only) ------------------------------


def ccc_bound(n: int, d: int, composition: Sequence[int], achieved: int) -> BoundReport:
    """Size limit n*d / (n*d - n^2 + sum of squared composition entries)."""
    wsq = sum(int(w) ** 2 for w in composition)
    den = n * d - n * n + wsq
    if den <= 0:
        return BoundReport("ccc", 0, 1, achieved, applicable=False, optimal=False)
    bound = Fraction(n * d, den)
    return BoundReport(
        "ccc",
        bound.numerator,
        bound.denominator,
        achieved,
        applicable=True,
        optimal=achieved == math.floor(bound),
    )


def cwc_bound(n: int, d: int, w: int, q: int, achieved: int) -> BoundReport:
    """Size limit n*d / (n*d - 2*n*w + (q/(q-1)) * w^2).

    The balance ratio uses the full alphabet size q for the number of
    nonzero symbol classes; that convention is recorded on the report.
    """
    note = "balance ratio computed with the alphabet size q"
    if q < 2:
        return BoundReport("cwc", 0, 1, achieved, applicable=False, optimal=False, note=note)
    den = Fraction(n * d) - 2 * n * w + Fraction(q, q - 1) * w * w
    if den <= 0:
        return BoundReport("cwc", 0, 1, achieved, applicable=False, optimal=False, note=note)
    bound = Fraction(n * d) / den
    return BoundReport(
        "cwc",
        bound.numerator,
        bound.denominator,
        achieved,
        applicable=True,
        optimal=achieved == math.floor(bound),
        note=note,
    )


def dss_bound(n: int, lam: int, q: int, achieved_tau: int) -> BoundReport:
    """Point-count lower limit: the root of the smallest perfect square at or
    above lam*(n-1) + ceil(lam*(n-1) / (q-1)).  Integer arithmetic only."""
    if q < 2 or lam < 1:
        return BoundReport("dss", 0, 1, achieved_tau, applicable=False, optimal=False)
    base = lam * (n - 1)
    x = base + -(-base // (q - 1))
    s = math.isqrt(x)
    if s * s < x:
        s += 1
    return BoundReport(
        "dss",
        s,
        1,
        achieved_tau,
        applicable=True,
        optimal=achieved_tau == s,
    )


def ccc_report(book: CodeBook) -> BoundReport:
    if book.kind != "CCC" or book.composition is None:
        raise ValueError("constant composition bound needs a CCC book")
    return ccc_bound(book.n, book.d, book.composition, book.M)


def cwc_report(book: CodeBook) -> BoundReport:
    if book.kind != "CWC" or book.weight is None:
        raise ValueError("constant weight bound needs a CWC book")
    return cwc_bound(book.n, book.d, book.weight, book.q, book.M)


def dss_report(system: DssSystem) -> BoundReport:
    if system.lam is None or not system.perfect:
        raise ValueError("bound certification needs a perfect system")
    return dss_bound(system.domain.order, system.lam, system.q, system.tau)
