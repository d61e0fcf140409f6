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
weight n - 1.  The n x n matrix is built only when ``codewords`` is read,
for an explicit export: the domain's ``translates`` of the table, one
strided copy of cyclic windows over the additive digits, with the
subgroup coordinate gathered through its product table (see domains).

A difference system is two read-only arrays: the points of every block in
block order and the block ends, the cumulative block sizes.  A derived
system's points are one stable argsort of the table, so each block is a
symbol's preimage in ascending order, and its ends are the cumulative
symbol counts.  JSON and CSV list the blocks; a stored system is read
back into the same two arrays.

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

Codebooks that arrive as explicit matrices are rechecked by
``distance_range`` with the same in-class idea applied to the stored
rows: two rows agree at a coordinate exactly when they share its
symbol, so the agreements of every pair of rows are counted from the
same-symbol row pairs of each column, at a cost of the sum of squared
class sizes rather than M^2 n symbol comparisons.  Bound arithmetic is
exact (integers and fractions); no floats are involved anywhere.

Codeword matrices cross the JSON boundary as arrays.  The writer renders
an int matrix straight to the text ``json.dumps(words.tolist())`` gives
with compact separators, and ``CodeBook.to_csv`` uses the same writer.
The reader, ``CodewordDecoder``, has a fast path for a canonical matrix
(``[[d,...],...]``: ASCII digits only, no leading zeros, at most nine
digits, equal nonempty rows, no whitespace), a strict subset of what
``json.loads`` accepts, on which it gives the same value as an array.
Any other text goes through ``json.loads`` unchanged, errors included.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from json.decoder import WHITESPACE, scanstring
from typing import NamedTuple, Sequence

import numpy as np

from .construct import ZdbFunction
from .domains import AbelianDomain, _pair_blocks, domain_from_json
from .errors import (
    NotCwcEligibleError,
    OversizedError,
    VerificationError,
    _field,
    _typed,
)
from .verify import DifferenceSpectrum, VerificationResult, composition_profile, verify_zdb

__all__ = [
    "CodeBook",
    "CodewordDecoder",
    "DssSystem",
    "BoundReport",
    "PerfectCheck",
    "ccc_from_zdb",
    "cwc_from_zdb",
    "dss_from_zdb",
    "dss_perfect_check",
    "min_distance",
    "distance_range",
    "matrix_json",
    "ccc_bound",
    "cwc_bound",
    "dss_bound",
    "ccc_report",
    "cwc_report",
    "dss_report",
]

# matrix cells that distance_range sorts, or holds agreement counts for, at once;
# the matrix writer renders 8 * _BAND cells at a time
_BAND = 1 << 15
# characters of matrix text the reader parses at once
_READ_BLOCK = 1 << 20


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
        matrix itself (``matrix_json``)."""
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
        """Read a book parsed by ``json.loads``, where the codewords are
        lists of rows, or by ``CodewordDecoder``, whose fast path gives a
        canonical matrix, a strict subset of those texts, as an int32
        array with the same value.  The matrix is stored as int16 when
        every symbol fits, else as int32."""
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
            words = words.astype(np.int16)
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

    def to_csv(self) -> str:
        words = self.codewords
        if not words.size:
            return "\n" * max(len(words), 1)
        return b"".join(_text_rows(words, b"\n", b"\n")).decode("ascii")


def _text_rows(words: np.ndarray, row_end: bytes, last_end: bytes) -> list[bytes]:
    """The rows of a nonempty int matrix as decimal text, one part per band
    of rows: "," between the symbols of a row, row_end after each row but
    the last, last_end after it.

    Each band is gathered from per-call tables of fixed-width byte tokens,
    "s," for a symbol inside a row and "s" for the last one, with a
    row_end column appended; the NUL padding of shorter tokens is dropped.
    """
    m, n = words.shape
    lo, hi = int(words.min()), int(words.max())
    dense = hi - lo <= words.size
    keys = np.arange(lo, hi + 1) if dense else np.unique(words)
    mid = np.array([b"%d," % s for s in keys.tolist()])
    token = np.dtype(f"S{max(mid.itemsize, len(row_end))}")
    mid = mid.astype(token)
    last = np.array([b"%d" % s for s in keys.tolist()], dtype=token)
    parts = []
    step = max(1, 8 * _BAND // (n + 1))
    for r0 in range(0, m, step):
        band = words[r0 : r0 + step]
        index = np.subtract(band, lo, dtype=np.intp) if dense else np.searchsorted(keys, band)
        cells = np.empty((len(band), n + 1), dtype=token)
        cells[:, :-1] = mid[index]
        cells[:, -2] = last[index[:, -1]]
        cells[:, -1] = row_end
        parts.append(cells.tobytes().replace(b"\0", b""))
    parts[-1] = parts[-1][: -len(row_end)] + last_end
    return parts


def matrix_json(words: np.ndarray) -> list[bytes]:
    """Parts of the text json.dumps(words.tolist(), separators=(",", ":"))."""
    if not words.size:
        return [json.dumps(words.tolist(), separators=(",", ":")).encode()]
    return [b"[[", *_text_rows(words, b"],[", b"]]")]


def _parse_rows(raw: bytes) -> tuple[np.ndarray, int] | None:
    """Symbols and row width of canonical rows "[d,...],...,[d,...]", or None.

    raw starts with "[" and ends with "]", where _parse_matrix cuts it.  A
    canonical row holds ASCII digit runs without leading zeros, at most
    nine digits each, so every symbol fits int32.  The text between two
    runs must be "," inside a row or "],[" between rows.
    """
    a = np.frombuffer(raw, dtype=np.uint8)
    digit = (a - ord("0")) < 10  # wraps below "0"
    edge = np.diff(digit.view(np.int8))
    start = np.flatnonzero(edge == 1).astype(np.int32) + 1
    stop = np.flatnonzero(edge == -1).astype(np.int32) + 1
    if len(start) == 0 or start[0] != 1 or stop[-1] != len(a) - 1:
        return None
    length = stop - start
    longest = int(length.max())
    if longest > 9 or (a[start[length > 1]] == ord("0")).any():
        return None
    gap, sep = start[1:] - stop[:-1], stop[:-1]
    row_break = (gap == 3) & (a[sep] == ord("]")) & (a[sep + 1] == ord(",")) & (a[sep + 2] == ord("["))
    if not (row_break | ((gap == 1) & (a[sep] == ord(",")))).all():
        return None
    breaks = np.flatnonzero(row_break)
    width = int(breaks[0]) + 1 if breaks.size else len(start)
    if len(start) % width or not np.array_equal(breaks, np.arange(width - 1, len(start) - 1, width)):
        return None
    value = a[start].astype(np.int32) - ord("0")
    for k in range(1, longest):
        more = np.flatnonzero(length > k)
        value[more] = value[more] * 10 + (a[start[more] + k] - ord("0"))
    return value, width


def _parse_matrix(s: str, i: int) -> tuple[np.ndarray, int] | None:
    """The canonical matrix starting at s[i] as an int32 array, and the index
    just past it; None when the text there is anything else.

    The rows are parsed in blocks of about _READ_BLOCK characters, each
    cut after a row, so the temporaries stay the size of one block.
    """
    if not s.startswith("[[", i):
        return None
    stop = s.find("]]", i) + 1  # the rows are s[i + 1 : stop]
    if stop == 0:
        return None
    values, width = [], None
    p = i + 1
    while p < stop:
        # end the block after the first row that ends past p + _READ_BLOCK
        cut = s.find("],[", p + _READ_BLOCK, stop) + 1 or stop
        try:
            rows = _parse_rows(s[p:cut].encode("ascii"))
        except UnicodeEncodeError:
            return None
        if rows is None or width not in (None, rows[1]):
            return None
        values.append(rows[0])
        width = rows[1]
        p = cut + 1
    return np.concatenate(values).reshape(-1, width), stop + 1


class CodewordDecoder(json.JSONDecoder):
    """``json.loads(text, cls=CodewordDecoder)`` reads a top-level object
    whose "codewords" value, when it is a canonical matrix, arrives as an
    int32 array instead of lists.

    The top-level object is walked key by key; every other value goes
    through the stdlib scanner.  Any text the walk or the matrix parser
    does not accept (whitespace inside the matrix, floats, bools,
    negatives, ragged or empty rows, a top level that is not an object)
    is read by the stdlib decoder whole, so the value and every error
    are those of ``json.loads``.  A repeated key keeps its first place
    and its last value, as in ``json.loads``.
    """

    def decode(self, s: str, _w=WHITESPACE.match):
        try:
            data = self._walk(s, _w)
        except (json.JSONDecodeError, StopIteration):
            data = None
        return super().decode(s) if data is None else data

    def _walk(self, s: str, _w) -> dict | None:
        i = _w(s, 0).end()
        if not s.startswith("{", i):
            return None
        data: dict = {}
        while True:
            i = _w(s, i + 1).end()
            if not s.startswith('"', i):
                return None
            key, i = scanstring(s, i + 1)
            i = _w(s, i).end()
            if not s.startswith(":", i):
                return None
            i = _w(s, i + 1).end()
            if key != "codewords":
                data[key], i = self.scan_once(s, i)
            elif (parsed := _parse_matrix(s, i)) is None:
                return None
            else:
                data[key], i = parsed
            i = _w(s, i).end()
            if not s.startswith(",", i):
                break
        if not s.startswith("}", i) or _w(s, i + 1).end() != len(s):
            return None
        return data


@dataclass(frozen=True)
class DssSystem:
    """Disjoint difference sets D_0..D_{q-1} inside an abelian group.

    The blocks are two read-only int64 arrays: points holds every block's
    members in block order and ends the cumulative block sizes, so block
    b is points[ends[b-1] : ends[b]] (from 0 for b = 0); ``blocks`` gives
    those slices as views.  Every point is checked to be a group element
    index when the system is made, and a ValueError names the first that
    is not; ``from_json`` checks the exact JSON integers before numpy
    sees them.

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
        outside = np.flatnonzero((points < 0) | (points >= order))
        if outside.size:
            raise _not_an_element(int(points[outside[0]]), order)
        if (np.diff(ends, prepend=0) < 0).any() or (ends[-1] if len(ends) else 0) != len(points):
            raise ValueError("block ends must ascend from 0 to the number of points")
        for name, values in (("points", points), ("ends", ends)):
            values = np.array(values, dtype=np.int64)
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def blocks(self) -> list[np.ndarray]:
        """Each block as a read-only view of points."""
        return np.split(self.points, self.ends)[:-1]

    def recount(self) -> tuple[int, int, bool]:
        """(q, tau, partitioned) from the arrays alone: the block count, the
        point count, and whether the points are every group element once."""
        partitioned = np.array_equal(np.sort(self.points), np.arange(self.domain.order))
        return len(self.ends), len(self.points), partitioned

    def to_json(self) -> dict:
        points, ends = self.points.tolist(), self.ends.tolist()
        return {
            "kind": "DSS",
            "group": self.domain.to_json(),
            "blocks": [points[a:b] for a, b in zip([0, *ends], ends)],
            "q": self.q,
            "tau": self.tau,
            "lambda": self.lam,
            "perfect": self.perfect,
            "partitioned": self.partitioned,
        }

    @staticmethod
    def from_json(data: dict) -> "DssSystem":
        lam = data.get("lambda")
        blocks = _field(data, "blocks", list)
        domain = domain_from_json(_field(data, "group", None))
        ends = np.cumsum([len(_typed("blocks", b, list)) for b in blocks], dtype=np.int64)
        claims = dict(
            q=_field(data, "q"),
            tau=_field(data, "tau"),
            lam=None if lam is None else _typed("lambda", lam),
            perfect=_field(data, "perfect", bool),
            partitioned=_field(data, "partitioned", bool),
        )
        # exact ints only: numpy would read True as 1, 1.5 as a float and 2**70 as an object
        points, order = list(itertools.chain.from_iterable(blocks)), domain.order
        exact = set(map(type, points)) <= {int}
        if not exact or (points and not 0 <= min(points) <= max(points) < order):
            bad = next(x for x in points if type(x) is not int or not 0 <= x < order)
            raise _not_an_element(bad, order)
        return DssSystem(domain, np.array(points, dtype=np.int64), ends, **claims)

    def to_csv(self) -> str:
        """One line per block, its points joined by commas."""
        return "\n".join(",".join(map(str, block)) for block in self.to_json()["blocks"]) + "\n"


def _not_an_element(x, order: int) -> ValueError:
    return ValueError(f"block element {x!r} is not an element of the group of order {order}")


class PerfectCheck(NamedTuple):
    lam_min: int
    perfect: bool
    lam: int | None


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
    if result is None:
        result = verify_zdb(fn)
    if not result.ok:
        raise VerificationError(
            f"refusing to derive from an unverified function: {result.to_json()}"
        )
    if result.fn is not fn:
        raise VerificationError("verification result belongs to a different function")
    return result


def _shift_codewords(fn: ZdbFunction) -> np.ndarray:
    """The n x n shift-code matrix, row a being y -> f(a + y); int16 when
    every symbol fits, else int32."""
    return fn.domain.translates(fn.table.astype(np.int16 if fn.q < 2**15 else np.int32))


def distance_range(codewords: np.ndarray, *, max_pairs: int | None = None) -> tuple[int, int]:
    """Minimum and maximum Hamming distance between distinct rows.

    Two rows agree at coordinate y exactly when they sit in the same symbol
    class of column y, so the distance of rows i and j is n minus the number
    of columns in whose classes they meet.  The rows are sorted by symbol
    once per column, and each row is paired with the later rows of its
    class in every column: k(k-1)/2 pairs for a class of size k, so the
    cost follows the sum over columns and symbols of the squared class
    size, not M^2 n.  Agreements are bincounted for one band of rows at a
    time; memory is three int32 arrays the size of the matrix plus one
    band of _BAND cells.

    When max_pairs is given and that sum of squared class sizes exceeds
    it, OversizedError is raised before any pair is formed.
    """
    c = np.asarray(codewords)
    m, n = c.shape
    if m < 2:
        raise ValueError("distance needs at least two codewords")
    cells = m * n
    index = np.int32 if cells < 2**31 else np.int64
    # column y's rows sorted by symbol fill the flat positions y*m .. y*m + m - 1
    rows = np.empty(cells, dtype=index)  # flat position -> row
    class_end = np.empty(cells, dtype=index)  # flat position -> one past its class
    position = np.empty((m, n), dtype=index)  # (row, column) -> flat position
    pairs = 0
    step = max(1, _BAND // m)
    for y0 in range(0, n, step):
        cols = c[:, y0 : y0 + step].T
        by_symbol = np.argsort(cols, axis=1, kind="stable")  # rows ascend inside a class
        sym = np.take_along_axis(cols, by_symbol, axis=1)
        opens = np.ones(sym.shape, dtype=bool)
        opens[:, 1:] = sym[:, 1:] != sym[:, :-1]
        span = np.arange(y0 * m, y0 * m + sym.size)
        start = span[opens.ravel()]
        size = np.diff(start, append=span[-1] + 1)
        pairs += int(size @ size)
        rows[span] = by_symbol.ravel()
        class_end[span] = np.repeat(start + size, size)
        position[by_symbol, np.arange(y0, y0 + len(sym))[:, None]] = span.reshape(sym.shape)
    if max_pairs is not None and pairs > max_pairs:
        raise OversizedError(
            f"recounting the distances of {m} codewords of length {n} needs "
            f"{pairs:,} in-class row pairs, over the limit of {max_pairs:,}"
        )

    lo_agree, hi_agree = n + 1, -1
    band = max(1, _BAND // max(m, n))
    for r0 in range(0, m - 1, band):
        # each row of the band meets the later rows of its class in every column
        b = min(band, m - 1 - r0)
        first = position[r0 : r0 + b].ravel()
        width = class_end[first] - first - 1
        agree = np.zeros(b * m, dtype=np.int64)
        for lo, hi, partners in _pair_blocks(first + 1, width):
            band_row = np.arange(lo, hi) // n
            key = np.repeat(band_row * m, width[lo:hi]) + rows[partners]
            agree += np.bincount(key, minlength=b * m)
        later = np.arange(m) > np.arange(r0, r0 + b)[:, None]
        vals = agree.reshape(b, m)[later]
        lo_agree = min(lo_agree, int(vals.min()))
        hi_agree = max(hi_agree, int(vals.max()))
    return n - hi_agree, n - lo_agree


def min_distance(code: "CodeBook | np.ndarray | Sequence[Sequence[int]]") -> int:
    """Exhaustive minimum pairwise Hamming distance."""
    words = code.codewords if isinstance(code, CodeBook) else np.asarray(code)
    return distance_range(words)[0]


def _shared_composition(words: np.ndarray, q: int) -> np.ndarray | None:
    """The symbol counts of the first row of a matrix with symbols in
    range(q) when every row has the same counts, else None.  The rows are
    bincounted one band of about _BAND cells at a time and compared with
    the first row, so no m x q count matrix is held."""
    m, n = words.shape
    first = np.bincount(words[0], minlength=q)
    step = max(1, _BAND // max(n, 1))
    for r0 in range(0, m, step):
        band = words[r0 : r0 + step]
        b = len(band)
        flat = (np.arange(b, dtype=np.intp)[:, None] * q + band).ravel()
        if not (np.bincount(flat, minlength=b * q).reshape(b, q) == first).all():
            return None
    return first


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
    The points are one stable argsort of the table and the ends its
    cumulative symbol counts, so block b lists the preimage of symbol b
    in ascending order.
    """
    spec = _require_verified(fn, result).spectrum
    crossed = fn.q >= 2
    return DssSystem(
        domain=fn.domain,
        points=np.argsort(fn.table, kind="stable"),
        ends=np.cumsum(np.bincount(fn.table, minlength=fn.q)),
        q=fn.q,
        tau=fn.n,
        lam=fn.n - spec.max_count if crossed else 0,
        perfect=crossed and spec.is_constant,
        partitioned=True,
    )


def dss_perfect_check(system: DssSystem) -> PerfectCheck:
    """Count the multiset of cross-block differences.

    Counts x - y over all ordered pairs taken from distinct blocks and
    reports the minimum coverage of nonzero group elements, whether the
    coverage is uniform, and its level when it is.  A system with fewer
    than two blocks has no cross pairs at all.  Overlapping blocks raise
    RuntimeError.  Block b's points carry label b, read off the block
    ends; the points themselves were checked when the system was made.
    """
    domain, points, ends = system.domain, system.points, system.ends
    if len(ends) < 2:
        return PerfectCheck(0, False, None)
    if system.recount()[2]:  # a partition: every difference arises from exactly n pairs
        union = domain.order
    else:
        union = domain.difference_counts(points, np.zeros_like(points))
    labels = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    counts = union - domain.difference_counts(points, labels)
    if counts[domain.identity] != 0:
        raise RuntimeError("blocks are not disjoint")
    nonzero = np.delete(counts, domain.identity)
    lam_min = int(nonzero.min())
    perfect = bool((nonzero == nonzero[0]).all())
    return PerfectCheck(lam_min, perfect, lam_min if perfect else None)


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
