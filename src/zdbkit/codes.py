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

Derivations refuse unverified input: each builder takes the function
plus an optional verification result and re-runs the exhaustive
verification when none is supplied.  Every count comes from the table
through the domain's in-class ``difference_counts`` kernel, never from
the construction or the caller's verification result:

* the distance between the shifted rows c_a and c_b is n minus the
  spectrum at a - b, so the distance range of the shift code is
  n - (max, min) of the spectrum;
* the cross-block difference count of a block system is the difference
  count of the union of its blocks minus the in-block count; the union
  term is the constant n when the blocks partition the group.

Codebooks that arrive as explicit matrices are rechecked by
``distance_range`` with the same in-class idea applied to the stored
rows: two rows agree at a coordinate exactly when they share its
symbol, so the agreements of every pair of rows are counted from the
same-symbol row pairs of each column, at a cost of the sum of squared
class sizes rather than M^2 n symbol comparisons.  Bound arithmetic is
exact (integers and fractions); no floats are involved anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .construct import ZdbFunction
from .domains import _PAIR_BLOCK, AbelianDomain, _pair_blocks, domain_from_json
from .errors import NotCwcEligibleError, OversizedError, VerificationError
from .verify import VerificationResult, difference_spectrum, verify_zdb

__all__ = [
    "CodeBook",
    "DssSystem",
    "BoundReport",
    "PerfectCheck",
    "ccc_from_zdb",
    "cwc_from_zdb",
    "dss_from_zdb",
    "dss_perfect_check",
    "min_distance",
    "distance_range",
    "ccc_bound",
    "cwc_bound",
    "dss_bound",
    "ccc_report",
    "cwc_report",
    "dss_report",
]

# matrix cells that distance_range sorts, or holds agreement counts for, at once
_BAND = 1 << 15


_TYPE_NAMES = {int: "an integer", bool: "a boolean", list: "a list"}


def _typed(key: str, value, kind: type = int):
    """value, if its type is exactly kind (so a bool is not an integer);
    otherwise a ValueError naming the payload field."""
    if type(value) is not kind:
        raise ValueError(f"field {key!r} is {value!r}, not {_TYPE_NAMES[kind]}")
    return value


@dataclass
class CodeBook:
    """A block code stored as an M x n symbol matrix.

    kind is "CCC" (constant composition) or "CWC" (constant weight).
    d and d_max are the exhaustively computed minimum and maximum
    pairwise Hamming distances.  composition is the per-symbol count
    vector shared by all codewords; weight is set on CWC books.
    """

    kind: str
    n: int
    M: int
    q: int
    d: int
    d_max: int
    codewords: np.ndarray
    composition: tuple[int, ...] | None = None
    weight: int | None = None

    def to_json(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "n": self.n,
            "M": self.M,
            "q": self.q,
            "d": self.d,
            "d_max": self.d_max,
            "codewords": self.codewords.tolist(),
        }
        if self.composition is not None:
            out["composition"] = list(self.composition)
        if self.weight is not None:
            out["weight"] = self.weight
        return out

    @staticmethod
    def from_json(data: dict) -> "CodeBook":
        rows = data["codewords"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("codewords must be a list of rows")
        if not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
            r, y, s = next(
                (r, y, s) for r, row in enumerate(rows) for y, s in enumerate(row)
                if type(s) is not int
            )
            raise ValueError(f"codeword row {r} column {y} is {s!r}, not an integer")
        try:
            words = np.asarray(rows, dtype=np.int32)
        except OverflowError as exc:
            raise ValueError(f"codeword symbol out of range: {exc}") from None
        n, M, q, d = (_typed(key, data[key]) for key in ("n", "M", "q", "d"))
        composition = None
        if "composition" in data:
            entries = _typed("composition", data["composition"], list)
            composition = tuple(_typed("composition", w) for w in entries)
        return CodeBook(
            kind=data["kind"],
            n=n,
            M=M,
            q=q,
            d=d,
            d_max=_typed("d_max", data.get("d_max", d)),
            codewords=words,
            composition=composition,
            weight=_typed("weight", data["weight"]) if "weight" in data else None,
        )

    def to_csv(self) -> str:
        lines = [",".join(str(int(s)) for s in row) for row in self.codewords]
        return "\n".join(lines) + "\n"


@dataclass
class DssSystem:
    """Disjoint difference sets D_0..D_{q-1} inside an abelian group.

    lam is the certified minimum coverage of nonzero elements by
    cross-block differences; perfect means the coverage is exactly lam
    everywhere; partitioned means the blocks cover the whole group.
    tau is the total number of points, the quantity the lower bound
    speaks about.
    """

    domain: AbelianDomain
    blocks: tuple[tuple[int, ...], ...]
    q: int
    tau: int
    lam: int | None
    perfect: bool
    partitioned: bool

    def to_json(self) -> dict:
        return {
            "kind": "DSS",
            "group": self.domain.to_json(),
            "blocks": [list(b) for b in self.blocks],
            "q": self.q,
            "tau": self.tau,
            "lambda": self.lam,
            "perfect": self.perfect,
            "partitioned": self.partitioned,
        }

    @staticmethod
    def from_json(data: dict) -> "DssSystem":
        lam = data.get("lambda")
        blocks = _typed("blocks", data["blocks"], list)
        return DssSystem(
            domain=domain_from_json(data["group"]),
            blocks=tuple(tuple(_typed("blocks", b, list)) for b in blocks),
            q=_typed("q", data["q"]),
            tau=_typed("tau", data["tau"]),
            lam=None if lam is None else _typed("lambda", lam),
            perfect=_typed("perfect", data["perfect"], bool),
            partitioned=_typed("partitioned", data["partitioned"], bool),
        )


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
    if result.n != fn.n:
        raise VerificationError("verification result belongs to a different function")
    return result


def _shift_codewords(fn: ZdbFunction) -> np.ndarray:
    domain = fn.domain
    n = domain.order
    dtype = np.int16 if fn.q < 2**15 else np.int32
    table = np.asarray(fn.table, dtype=dtype)
    out = np.empty((n, n), dtype=dtype)
    step = max(1, _PAIR_BLOCK // n)
    for start in range(0, n, step):
        deltas = range(start, min(start + step, n))
        out[start : start + step] = table[domain.shift_rows(deltas)]
    return out


def _shift_distances(fn: ZdbFunction) -> tuple[int, int]:
    """Minimum and maximum distance between distinct shifted rows:
    d(c_a, c_b) = n - spectrum(a - b)."""
    spec = difference_spectrum(fn)
    return fn.n - spec.max_count, fn.n - spec.min_count


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


def _row_compositions(words: np.ndarray, q: int) -> np.ndarray:
    m, n = words.shape
    flat = (np.arange(m, dtype=np.int64)[:, None] * q + words).ravel()
    return np.bincount(flat, minlength=m * q).reshape(m, q)


def ccc_from_zdb(fn: ZdbFunction, result: VerificationResult | None = None) -> CodeBook:
    """Constant composition code of all shifted copies of a verified function."""
    _require_verified(fn, result)
    words = _shift_codewords(fn)
    comps = _row_compositions(words, fn.q)
    if not (comps == comps[0]).all():
        raise VerificationError("shifted rows do not share one composition")
    dmin, dmax = _shift_distances(fn)
    return CodeBook(
        kind="CCC",
        n=fn.n,
        M=fn.n,
        q=fn.q,
        d=dmin,
        d_max=dmax,
        codewords=words,
        composition=tuple(int(c) for c in comps[0]),
    )


def cwc_from_zdb(
    fn: ZdbFunction,
    result: VerificationResult | None = None,
    base: CodeBook | None = None,
) -> CodeBook:
    """Constant weight view of the same codeword matrix.

    Requires symbol 0 to have exactly one preimage, so that every
    codeword contains exactly one zero.  Pass the already-built CCC as
    ``base`` to reuse its codeword matrix.
    """
    _require_verified(fn, result)
    zero_count = fn.table.count(0)
    if zero_count != 1:
        raise NotCwcEligibleError(
            f"symbol 0 must have exactly one preimage, found {zero_count}"
        )
    if base is not None and (base.n != fn.n or base.M != fn.n or base.q != fn.q):
        raise ValueError("base codebook does not match the function")
    words = _shift_codewords(fn) if base is None else base.codewords
    dmin, dmax = _shift_distances(fn)
    weights = np.count_nonzero(words, axis=1)
    if not (weights == fn.n - 1).all():
        raise VerificationError("codewords do not share weight n - 1")
    return CodeBook(
        kind="CWC",
        n=fn.n,
        M=fn.n,
        q=fn.q,
        d=dmin,
        d_max=dmax,
        codewords=words,
        weight=fn.n - 1,
    )


def dss_from_zdb(fn: ZdbFunction, result: VerificationResult | None = None) -> DssSystem:
    """Partitioned difference system from the symbol preimages."""
    _require_verified(fn, result)
    blocks: list[list[int]] = [[] for _ in range(fn.q)]
    for y, s in enumerate(fn.table):
        blocks[s].append(y)
    system = DssSystem(
        domain=fn.domain,
        blocks=tuple(tuple(b) for b in blocks),
        q=fn.q,
        tau=fn.n,
        lam=None,
        perfect=False,
        partitioned=True,
    )
    lam_min, perfect, lam = dss_perfect_check(system)
    system.lam = lam if perfect else lam_min
    system.perfect = perfect
    return system


def dss_perfect_check(system: DssSystem) -> PerfectCheck:
    """Count the multiset of cross-block differences.

    Counts x - y over all ordered pairs taken from distinct blocks and
    reports the minimum coverage of nonzero group elements, whether the
    coverage is uniform, and its level when it is.  A system with fewer
    than two blocks has no cross pairs at all.  Block elements that are
    not group element indices raise ValueError; overlapping blocks raise
    RuntimeError.
    """
    domain = system.domain
    order = domain.order
    for block in system.blocks:
        for x in block:
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < order:
                raise ValueError(
                    f"block element {x!r} is not an element of the group of order {order}"
                )
    if len(system.blocks) < 2:
        return PerfectCheck(0, False, None)
    sizes = [len(b) for b in system.blocks]
    elements = np.fromiter((x for b in system.blocks for x in b), np.int64, sum(sizes))
    if np.array_equal(np.sort(elements), np.arange(order)):
        union = order  # a partition: every difference arises from exactly n pairs
    else:
        union = domain.difference_counts(elements, np.zeros_like(elements))
    counts = union - domain.difference_counts(elements, np.repeat(np.arange(len(sizes)), sizes))
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
