"""Finite abelian groups serving as the domain of a balanced function.

Two shapes are used: the additive group of a ring, and the direct
product of a ring's additive group with a multiplicative subgroup.  In
the product shape an element is a pair (ring element, subgroup element)
and its flat index is ring_index * e + group_position, where positions
number the subgroup's elements in ascending index order.  That flat
order is also the codeword coordinate order used throughout.

``op_vec`` and the difference law ``sub_vec``, op(a, inverse(b)), are the
bulk group law.  They run in int32 on int32 positions while the order is
below 2^31, else in int64 (``_as_positions`` in rings).  In the product
shape they split a flat index as r = a // e and position = a - r * e, the
same remainder the rings use in place of numpy's slower %, and gather the
subgroup part from mul_pos, or div_pos = mul_pos[:, inv_pos], indexed by
the two positions, which broadcast without a combined index array.
``difference_counts``, the one kernel behind every certificate, is built
on ``sub_vec`` and on nothing else.  It sorts nothing: it is handed runs
(points, ends), a table's grouping by symbol from ``_sorted_by_label`` or
a stored system's blocks, and stacks the runs of one size w as a (w, c)
matrix with the c runs innermost, so its one ``sub_vec`` call per (w, w, c)
pair block runs inner loops of length c, not c loops of length w.
``shift_rows`` returns full translation rows for any list of shifts, one
permutation of the domain per shift, derived from ``op_vec`` once for both
shapes and filled a band of rows at a time.

``translate_bands`` builds the matrix of every translate of a table, row
a being y -> table[op(a, y)], a band of rows at a time, without index
arithmetic.  The additive group is Z_{r1} x ... x Z_{rk} over the ring's
``radices``, so a table reshaped to (r_k, ..., r_1, e) is translated by a
cyclic window on each ring axis and a gather through the subgroup's
product table on the last axis.  Each band is gathered from the windows
of the wrap-padded, gathered table, and ``translates`` is the one band of
every row.  The additive shape is the product shape with the trivial
subgroup (e = 1), so both shapes share that one method.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import _field, _int_list, _typed
from .groups import Subgroup, cyclic_subgroup, subgroup_from_elements
from .rings import Ring, _as_positions, _position_dtype, ring_from_json

__all__ = ["AbelianDomain", "RingAdditiveDomain", "RingTimesGroupDomain", "domain_from_json"]

# element pairs combined, and counted, per group-law call in difference_counts
_PAIR_BLOCK = 1 << 18

# output cells filled per group-law call in shift_rows (whole rows, at least one)
_ROW_BAND = 1 << 16


def _sorted_by_label(labels):
    """The positions sorted stably by label and the cumulative sizes of
    their runs: the grouping (points, ends) that ``difference_counts`` reads,
    both in the position dtype of the length, int32 below 2**31.

    When the label span times the length fits an int64, one value sort of
    (label - min) << bits | position stands in for the stable argsort,
    which takes several times longer, and the positions are masked off the
    sorted keys straight into their own dtype, so the int64 keys are the one
    int64 array; other labels take the argsort.
    """
    labels = np.array(labels, dtype=np.int64)  # a copy, reused as the sort key
    m = len(labels)
    dtype = _position_dtype(m)
    bits = m.bit_length()
    low = int(labels.min()) if m else 0
    if m and (int(labels.max()) - low + 1) << bits < 1 << 63:
        labels -= low
        labels <<= bits
        labels |= np.arange(m, dtype=dtype)
        labels.sort()
        by_label = np.empty(m, dtype=dtype)
        np.bitwise_and(labels, (1 << bits) - 1, out=by_label, casting="unsafe")
        labels >>= bits
    else:
        order = np.argsort(labels, kind="stable")
        by_label, labels = order.astype(dtype), labels[order]
    ends = np.concatenate((labels[1:] != labels[:-1], [m > 0])).nonzero()[0].astype(dtype)
    ends += 1
    return by_label, ends


def _run_sizes(ends: np.ndarray) -> np.ndarray:
    """np.diff(ends, prepend=0), the run sizes, without its Python wrapper."""
    return np.concatenate((ends[:1], ends[1:] - ends[:-1]))


def _class_blocks(x, starts, w):
    """The in-class pairs of the w-member classes that start at starts in
    x, in blocks of about _PAIR_BLOCK pairs, as (rows, members) shaped to
    broadcast to one difference per pair.  Whole classes go as one (w, c)
    stack with the c classes innermost, rows (w, 1, c) against members
    (1, w, c), so each group-law call runs inner loops of length c, not w;
    a class of more than _PAIR_BLOCK pairs goes a few rows at a time, (k, 1)
    against all its members (1, w)."""
    if w * w <= _PAIR_BLOCK:
        step = _PAIR_BLOCK // (w * w)
        for lo in range(0, len(starts), step):
            members = x[np.arange(w)[:, None] + starts[None, lo : lo + step]]
            yield members[:, None, :], members[None]
    else:
        step = max(1, _PAIR_BLOCK // w)
        for s in starts.tolist():
            for lo in range(s, s + w, step):
                yield x[lo : min(lo + step, s + w), None], x[None, s : s + w]


class AbelianDomain:
    """Interface shared by both domain shapes."""

    ring: Ring
    order: int
    identity: int
    _mul_pos: np.ndarray  # subgroup position products, (e, e)

    def op(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inverse(self, a: int) -> int:
        raise NotImplementedError

    def shift_rows(self, deltas: Sequence[int]) -> np.ndarray:
        """Array of shape (len(deltas), order): row i is y -> op(delta_i, y),
        int32 while the order is below 2**31, else int64.  It is allocated
        once and filled by ``op_vec`` in bands of whole rows, about _ROW_BAND
        cells each, so the group law's temporaries are the size of a band."""
        dtype = _position_dtype(self.order)
        d = np.asarray(deltas, dtype=dtype)[:, None]
        y = np.arange(self.order, dtype=dtype)
        out = np.empty((len(d), self.order), dtype=dtype)
        step = max(1, _ROW_BAND // self.order)
        for lo in range(0, len(d), step):
            out[lo : lo + step] = self.op_vec(d[lo : lo + step], y)
        return out

    def translate_bands(self, table, rows: int) -> Iterator[np.ndarray]:
        """The (order, order) matrix, in the table's dtype, whose row a is
        y -> table[op(a, y)], in bands of the given number of rows, the last
        band holding what is left.

        Reshaped to (r_k, ..., r_1, e), the table's translate by a ring
        element is a cyclic window on each ring axis, and the subgroup
        part is a gather through mul_pos.  So the table is gathered once to
        (e_a, r_k, ..., r_1, e_y), each ring axis is wrap-padded to 2r - 1,
        and the matrix is a strided view of that array's sliding windows,
        its rows indexed by (a_k, ..., a_1, e_a).  Each band gathers its rows
        of that view, their indices unravelled over those axes, so a band
        may start and end anywhere on them.  The padded array has
        e^2 * prod(2r - 1) < 2^k * e * order cells.
        """
        table = np.asarray(table)
        radices = self.ring.radices[::-1]  # most significant digit first, as in C order
        k, e = len(radices), len(self._mul_pos)
        # gathered[p, ..., q] = table[ring part, mul_pos[p, q]]
        gathered = np.moveaxis(table.reshape(radices + (e,))[..., self._mul_pos], k, 0)
        padded = np.pad(gathered, [(0, 0), *((0, r - 1) for r in radices), (0, 0)], mode="wrap")
        # windows[p, a_k..a_1, q, y_k..y_1] = padded[p, a_k + y_k, ..., a_1 + y_1, q]
        windows = sliding_window_view(padded, radices, axis=tuple(range(1, k + 1)))
        a, y = list(range(1, k + 1)), list(range(k + 2, 2 * k + 2))
        matrix = windows.transpose(a + [0] + y + [k + 1])
        for r0 in range(0, self.order, rows):
            index = np.unravel_index(np.arange(r0, min(r0 + rows, self.order)), radices + (e,))
            yield matrix[index].reshape(-1, self.order)

    def translates(self, table) -> np.ndarray:
        """The whole matrix of ``translate_bands``, as one band."""
        return next(self.translate_bands(table, self.order))

    def difference_counts(self, points, ends) -> np.ndarray:
        """counts[a] = #{(i, j) : i and j in one run and
        op(points[i], inverse(points[j])) == a}, for every group element a,
        where run b is points[ends[b-1] : ends[b]] (from 0 for b = 0).

        Only pairs inside one run are formed, so the cost is the sum of
        squared run sizes, not the square of their total; an empty run
        counts nothing.  Repeated points count once per occurrence.  Every
        pair (i, i) lands on the identity, so counts[identity] >= len(points).
        One-member runs add their number to the identity's count without the
        group law.  The runs of each larger size w are stacked into a (w, c)
        matrix, whose pairs are one sub_vec of its members against
        themselves, broadcast to (w, w, c); int32 points are read as they are,
        so the group law runs in int32 while the order is below 2**31.  Each
        block is counted as soon as it is formed: by an order-length bincount
        when it has at least as many pairs as the group has elements, else by
        ``np.add.at`` into the counts, whose cost follows the pairs, not
        the order.  The counts are int32 while the order and the pair count
        are below 2**31, else int64.
        """
        x, ends = np.asarray(points), np.asarray(ends)
        size = _run_sizes(ends)
        classes = np.bincount(size)  # classes[w]: the number of w-member runs
        widths = (classes[1:].nonzero()[0] + 1).tolist()  # empty runs have no pairs
        pairs = sum(int(classes[w]) * w * w for w in widths)  # no count can exceed it
        counts = np.zeros(self.order, dtype=_position_dtype(max(pairs, self.order)))
        one = counts.dtype.type(1)  # a Python 1 would take ufunc.at off its fast path
        for w in widths:
            if w == 1:  # a one-member run pairs only with itself, at the identity
                counts[self.identity] = classes[1]
                continue
            for rows, members in _class_blocks(x, ends[size == w] - w, w):
                diffs = self.sub_vec(rows, members).ravel()
                if len(diffs) >= self.order:
                    counts += np.bincount(diffs, minlength=self.order)
                else:
                    np.add.at(counts, diffs, one)
        return counts

    def to_json(self) -> dict:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class RingAdditiveDomain(AbelianDomain):
    """The additive group (R, +) of a ring."""

    kind = "ring_additive"

    # the trivial subgroup's product table, so translate_bands serves both shapes
    _mul_pos = np.zeros((1, 1), dtype=np.int64)

    def __init__(self, ring: Ring):
        self.ring = ring
        self.order = ring.order
        self.identity = 0

    def op(self, a: int, b: int) -> int:
        return self.ring.add(a, b)

    def inverse(self, a: int) -> int:
        return self.ring.neg(a)

    # own binding, not only inherited: perfbench/tracer.py wraps each domain class's shift_rows
    shift_rows = AbelianDomain.shift_rows

    def op_vec(self, a, b) -> np.ndarray:
        return self.ring.add_vec(a, b)

    def sub_vec(self, a, b) -> np.ndarray:
        return self.ring.sub_vec(a, b)

    def to_json(self) -> dict:
        return {"kind": self.kind, "ring": self.ring.to_json()}

    def describe(self) -> str:
        return f"additive group of {self.ring!r}"

    def __eq__(self, other) -> bool:
        return isinstance(other, RingAdditiveDomain) and self.ring == other.ring

    def __hash__(self) -> int:
        return hash((self.kind, self.ring))


class RingTimesGroupDomain(AbelianDomain):
    """(R, +) x (G, *) for a multiplicative subgroup G of the units of R.

    Flat element index: ring_index * e + group_position.  The pair form
    (ring index, subgroup element index) is accepted by ``encode`` and
    returned by ``decode``.
    """

    kind = "ring_times_group"

    def __init__(self, ring: Ring, group: Subgroup):
        if group.ring != ring:
            raise ValueError("subgroup belongs to a different ring")
        self.ring = ring
        self.group = group
        self.e = group.order
        self.order = ring.order * self.e
        self.identity = group.identity_pos
        self._mul_pos = np.asarray(group.mul_pos, dtype=_position_dtype(self.e))
        self._div_pos = self._mul_pos[:, group.inv_pos]  # [p, q]: the position of g_p * g_q^-1

    def encode(self, pair: tuple[int, int]) -> int:
        r, g = pair
        return self.ring._check(r) * self.e + self.group.position(g)

    def decode(self, a: int) -> tuple[int, int]:
        r, pos = divmod(a, self.e)
        return r, self.group.elements[pos]

    def op(self, a: int, b: int) -> int:
        ra, pa = divmod(a, self.e)
        rb, pb = divmod(b, self.e)
        return self.ring.add(ra, rb) * self.e + self.group.mul_pos[pa][pb]

    def inverse(self, a: int) -> int:
        r, pos = divmod(a, self.e)
        return self.ring.neg(r) * self.e + self.group.inv_pos[pos]

    # own binding, not only inherited: perfbench/tracer.py wraps each domain class's shift_rows
    shift_rows = AbelianDomain.shift_rows

    # flat index = ring part * e + position, split as in the module docstring
    def op_vec(self, a, b) -> np.ndarray:
        a, b = _as_positions(self.order, a, b)
        e = self.e
        ra, rb = a // e, b // e
        out = self.ring.add_vec(ra, rb)
        out *= e
        out += self._mul_pos[a - ra * e, b - rb * e]
        return out

    def sub_vec(self, a, b) -> np.ndarray:
        a, b = _as_positions(self.order, a, b)
        e = self.e
        ra, rb = a // e, b // e
        out = self.ring.sub_vec(ra, rb)
        out *= e
        out += self._div_pos[a - ra * e, b - rb * e]
        return out

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "ring": self.ring.to_json(),
            "group": self.group.to_json(),
        }

    def describe(self) -> str:
        return (
            f"additive group of {self.ring!r} times a multiplicative subgroup "
            f"of order {self.e}"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingTimesGroupDomain)
            and self.ring == other.ring
            and self.group == other.group
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.ring, self.group))


def domain_from_json(data: dict) -> AbelianDomain:
    ring = ring_from_json(_field(data, "ring", None))
    kind = data.get("kind")
    if kind == "ring_additive":
        return RingAdditiveDomain(ring)
    if kind == "ring_times_group":
        stored = _field(data, "group", dict)
        group = subgroup_from_elements(ring, _int_list(stored, "elements"))
        gen = stored.get("generator")
        if gen is not None:
            # a generator outside the group is refused before its powers are walked
            if _typed("generator", gen) not in group or cyclic_subgroup(ring, gen) != group:
                raise ValueError(f"group generator {gen} does not generate the stored elements")
            group.generator = gen
        return RingTimesGroupDomain(ring, group)
    raise ValueError(f"unknown domain kind {kind!r}")
