"""A candidate zero-difference balanced function: a lookup table on a domain.

A function is its table over a domain's flat indices, the size q of its
image alphabet and the balance level it claims, plus a free provenance
block.  This module holds the table, its grouping by symbol (the runs the
difference kernel reads) and its JSON form, and nothing of how a table
is built: the verifier, the derived codes and the command line read
functions from here without loading the constructions or the coset
partitions.  A provenance value with a ``to_json`` method (the
constructions' symbol labels) is written through it.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from .domains import AbelianDomain, RingTimesGroupDomain, _sorted_by_label, domain_from_json
from .errors import _field, _int_list, _typed
from .rings import _position_dtype

__all__ = ["ZdbFunction"]


class ZdbFunction:
    """A candidate zero-difference balanced function as a lookup table.

    ``table[i]`` is the symbol at domain element index i; q is the size
    of the image alphabet and claimed_lambda the balance level the
    construction promises.  Claims are exactly that: claims.  The
    verification module re-derives them from the table alone.

    The table may be given as any 1-D sequence or array of integers in
    range(q); floats, strings and out-of-range symbols raise ValueError.
    A sequence's entries are checked as Python values before numpy reads
    them, so a bool is refused and 2**63 is out of range, not a float.
    It is copied once into a read-only array, int32 unless q exceeds
    2**31 - 1 (then int64), so a verification result stays the result of
    the table it counted: ``table`` can be neither written nor rebound.
    For the same reason its ``grouping`` by symbol is made once and kept.
    """

    def __init__(
        self,
        domain: AbelianDomain,
        q: int,
        table: Sequence[int] | np.ndarray,
        claimed_lambda: int,
        provenance: dict | None = None,
    ):
        # a sequence's entries are typed before numpy reads them, as it would read True as 1
        listed = not isinstance(table, np.ndarray)
        kinds = set(map(type, table)) if listed else ()
        if any(k is bool or not issubclass(k, (int, np.integer)) for k in kinds):
            bad = next(s for s in table if type(s) is bool or not isinstance(s, (int, np.integer)))
            raise ValueError(f"table symbols must be integers, got {type(bad).__name__} entries")
        symbols = np.asarray(table)
        if symbols.shape != (domain.order,):
            raise ValueError(f"table length {len(table)} does not match domain order {domain.order}")
        if symbols.dtype.kind not in "iu" and not listed:
            raise ValueError(f"table symbols must be integers, got {symbols.dtype} entries")
        # an int64 table holds symbols below 2**63 whatever q claims; integers that
        # numpy reads as floats or objects (2**63 next to -1, or 2**64) fail here too
        if int(symbols.min()) < 0 or int(symbols.max()) >= min(q, 2**63):
            raise ValueError(f"table contains symbols outside range(0, {min(q, 2**63)})")
        self._table = symbols.astype(_position_dtype(q))
        self._table.flags.writeable = False
        self.domain = domain
        self.q = q
        self.claimed_lambda = int(claimed_lambda)
        self.provenance = provenance or {}

    @property
    def table(self) -> np.ndarray:
        return self._table

    @functools.cached_property
    def grouping(self) -> tuple[np.ndarray, np.ndarray]:
        """The table grouped by symbol, read-only: see ``_sorted_by_label``."""
        points, ends = _sorted_by_label(self._table)
        points.flags.writeable = ends.flags.writeable = False
        return points, ends

    @property
    def n(self) -> int:
        return self.domain.order

    def claimed_parameters(self) -> tuple[int, int, int]:
        return (self.n, self.q, self.claimed_lambda)

    def _flat(self, y) -> int:
        if isinstance(y, tuple):
            if not isinstance(self.domain, RingTimesGroupDomain):
                raise ValueError("pair elements apply to product domains only")
            return self.domain.encode(y)
        return int(y)

    def evaluate(self, y) -> int:
        """Symbol at y; y is a flat index, or a (ring, group) pair on product domains."""
        return int(self.table[self._flat(y)])

    def to_json(self) -> dict:
        return {
            "domain": self.domain.to_json(),
            "q": self.q,
            "lambda": self.claimed_lambda,
            "table": self.table.tolist(),
            "provenance": {
                key: value.to_json() if hasattr(value, "to_json") else value
                for key, value in self.provenance.items()
            },
        }

    @staticmethod
    def from_json(data: dict) -> "ZdbFunction":
        domain = domain_from_json(_field(data, "domain", None))
        q, table = _field(data, "q"), _field(data, "table", list)
        try:
            return ZdbFunction(
                domain,
                q,
                table,
                _field(data, "lambda"),
                _typed("provenance", data.get("provenance", {}), dict),
            )
        except ValueError:  # the constructor scanned the entries' types once; name a bad one
            _int_list(data, "table")
            raise

    def __repr__(self) -> str:
        n, m, lam = self.claimed_parameters()
        return f"ZdbFunction(({n}, {m}, {lam}), domain={self.domain.describe()})"
