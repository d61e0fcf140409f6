"""Finite rings with integer-indexed elements.

Every element of a ring is addressed by an integer index in
``range(order)``, and index 0 is always the additive identity.  Four
kinds are supported:

* ``residue``  Z_n; the index is the residue itself.
* ``field``    GF(p^r), polynomials over F_p modulo a monic irreducible
  modulus.  The base-p digits of the index are the coefficients, with
  the constant term least significant, so GF(p^1) indices coincide with
  residues mod p.
* ``product``  direct products of rings; the index is mixed-radix over
  the component orders with the first component least significant.
* ``matrix``   k-by-k matrices over a field; the base-q digits of the
  index are the entries in row-major order, entry (0,0) least
  significant.

The additive group of every kind is Z_{r1} x ... x Z_{rk} under the
same index, read mixed-radix over ``radices`` = (r1, ..., rk) with the
least significant digit first: (n,) for Z_n, (p,) * r for GF(p^r), the
components' radices concatenated for a product, and the field's radices
repeated k^2 times for M_k(GF(q)).  Addition adds digits, each modulo
its radix, so ``add``/``neg`` and the vectorized ``add_vec``/``neg_vec``
(numpy arrays with broadcasting, what the exhaustive verification
kernels run on) are written once, in ``Ring``.  Orders must stay below
2^62, so that the sum of two indices fits in int64.

All operations are pure functions of an immutable descriptor, so ring
objects can be shared freely between threads.  ``try_invert`` returns
``None`` for a non-unit instead of raising: non-units are ordinary
values here, not errors.
"""

from __future__ import annotations

import itertools
from operator import index as _as_index
from typing import Iterable, Sequence

import numpy as np

from .arith import is_prime

__all__ = [
    "Ring",
    "ResidueRing",
    "GaloisField",
    "ProductRing",
    "MatrixRing",
    "ring_from_json",
]


# orders from here up are refused: the vector kernels add two indices in int64
_ORDER_LIMIT = 1 << 62


class Ring:
    """Common interface for all ring kinds."""

    kind: str
    order: int
    radices: tuple[int, ...]

    def _set_radices(self, radices: Iterable[int]) -> None:
        """Fix the additive group Z_{r1} x ... x Z_{rk} and its order, the
        product of the radices; stops at the first radix past the limit."""
        digits, place = [], 1
        for r in radices:
            if r < 2:
                raise ValueError(f"{self!r} has an additive radix {r}; radices must be >= 2")
            digits.append((r, place))
            place *= r
            if place >= _ORDER_LIMIT:
                raise ValueError(f"{self!r} has order at least 2^62; orders must be below 2^62")
        self.radices = tuple(r for r, _ in digits)
        self.order = place
        self._upper = tuple(digits[1:])  # (radix, place value) of each digit above the lowest

    # Digitwise sum and negation; the same expressions serve Python ints and
    # int64 arrays.  Digit i of a is (a // place_i) % r_i, and no carry leaves it.

    def _add_digits(self, a, b):
        out = (a + b) % self.radices[0]
        for r, place in self._upper:
            out = out + (a // place + b // place) % r * place
        return out

    def _neg_digits(self, a):
        out = -a % self.radices[0]
        for r, place in self._upper:
            out = out + -(a // place) % r * place
        return out

    # -- scalar operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add_digits(self._check(a), self._check(b))

    def neg(self, a: int) -> int:
        return self._neg_digits(self._check(a))

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def try_invert(self, a: int) -> int | None:
        """Two-sided multiplicative inverse of a, or None if a is not a unit."""
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def one(self) -> int:
        """Index of the multiplicative identity."""
        raise NotImplementedError

    def zero(self) -> int:
        return 0

    def is_unit(self, a: int) -> bool:
        return self.try_invert(a) is not None

    def elements(self) -> range:
        """All elements in index order."""
        return range(self.order)

    def is_commutative(self) -> bool:
        raise NotImplementedError

    # -- vectorized additive structure ------------------------------------

    def add_vec(self, a, b) -> np.ndarray:
        """Elementwise add on index arrays, with numpy broadcasting."""
        return self._add_digits(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    def neg_vec(self, a) -> np.ndarray:
        return self._neg_digits(np.asarray(a, dtype=np.int64))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        raise NotImplementedError

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _check(self, a: int) -> int:
        a = _as_index(a)
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range for {self!r}")
        return a


class ResidueRing(Ring):
    """The integers modulo n, for n >= 2."""

    kind = "residue"

    def __init__(self, n: int):
        n = _as_index(n)
        if n < 2:
            raise ValueError(f"residue ring needs n >= 2, got {n}")
        self.n = n
        self._set_radices((n,))

    def mul(self, a: int, b: int) -> int:
        return (self._check(a) * self._check(b)) % self.n

    def try_invert(self, a: int) -> int | None:
        a = self._check(a)
        try:
            return pow(a, -1, self.n)
        except ValueError:
            return None

    def one(self) -> int:
        return 1 % self.n

    def is_commutative(self) -> bool:
        return True

    # own binding, not only inherited: perfbench/tracer.py wraps each ring class's add_vec
    add_vec = Ring.add_vec

    def to_json(self) -> dict:
        return {"kind": "residue", "n": self.n}

    def _key(self):
        return ("residue", self.n)

    def __repr__(self) -> str:
        return f"ResidueRing({self.n})"


# -- polynomial helpers over F_p (dense coefficient tuples) ---------------


def _poly_trim(c: Sequence[int]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)

def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    # m must be monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1] % p
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm + 1):
                r[shift + i] = (r[shift + i] - lead * m[i]) % p
        r.pop()
    return _poly_trim(r)


def _poly_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division of a monic polynomial by all lower-degree monic ones."""
    deg = len(m) - 1
    if deg < 1:
        return False
    if m[0] == 0:
        return deg == 1  # divisible by x unless m is x itself
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = tuple(tail) + (1,)
            if not _poly_mod(m, div, p):
                return False
    return True


def _smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Monic irreducible of degree r over F_p with the lexicographically
    smallest coefficient vector (c_0, ..., c_{r-1})."""
    for tail in itertools.product(range(p), repeat=r):
        cand = tuple(tail) + (1,)
        if _poly_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible of degree {r} over F_{p}")  # unreachable


class GaloisField(Ring):
    """GF(p^r) with a deterministic default modulus.

    When no modulus is given the monic irreducible of degree r whose
    coefficient vector (c_0, ..., c_{r-1}) is lexicographically smallest
    is selected, so equal (p, r) always yields an identical field.
    """

    kind = "field"

    def __init__(self, p: int, r: int = 1, modulus: Sequence[int] | None = None):
        p = _as_index(p)
        r = _as_index(r)
        if r < 1:
            raise ValueError(f"field extension degree must be >= 1, got {r}")
        self.p = p
        self.r = r
        self._set_radices(p for _ in range(r))  # refuses a huge p before the primality test
        if not is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        if modulus is None:
            self.modulus = _smallest_irreducible(p, r)
        else:
            m = tuple(_as_index(c) for c in modulus)
            if len(m) != r + 1 or m[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {r}: {m}")
            if any(not 0 <= c < p for c in m):
                raise ValueError(f"modulus coefficients out of range mod {p}: {m}")
            if not _poly_irreducible(m, p):
                raise ValueError(f"modulus {m} is reducible over F_{p}")
            self.modulus = m

    def _decode(self, a: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.r):
            a, d = divmod(a, self.p)
            digits.append(d)
        return tuple(digits)

    def _encode(self, c: Sequence[int]) -> int:
        out = 0
        for d in reversed(tuple(c) + (0,) * (self.r - len(c))):
            out = out * self.p + d
        return out

    def mul(self, a: int, b: int) -> int:
        ca = self._decode(self._check(a))
        cb = self._decode(self._check(b))
        return self._encode(_poly_mod(_poly_mul(ca, cb, self.p), self.modulus, self.p))

    def try_invert(self, a: int) -> int | None:
        a = self._check(a)
        if a == 0:
            return None
        # a^(q-2) by square and multiply; every nonzero element is a unit
        e = self.order - 2
        acc, base = self.one(), a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def one(self) -> int:
        return 1

    def is_commutative(self) -> bool:
        return True

    # own binding, not only inherited: perfbench/tracer.py wraps each ring class's add_vec
    add_vec = Ring.add_vec

    def to_json(self) -> dict:
        return {"kind": "field", "p": self.p, "r": self.r, "modulus": list(self.modulus)}

    def _key(self):
        return ("field", self.p, self.r, self.modulus)

    def __repr__(self) -> str:
        return f"GaloisField({self.p}, {self.r})"


class ProductRing(Ring):
    """Direct product of rings with componentwise operations."""

    kind = "product"

    def __init__(self, components: Sequence[Ring]):
        comps = tuple(components)
        if not comps:
            raise ValueError("product ring needs at least one component")
        if not all(isinstance(c, Ring) for c in comps):
            raise TypeError("product components must be rings")
        self.components = comps
        self._set_radices(r for c in comps for r in c.radices)

    def _decode(self, a: int) -> tuple[int, ...]:
        out = []
        for c in self.components:
            a, d = divmod(a, c.order)
            out.append(d)
        return tuple(out)

    def _encode(self, parts: Sequence[int]) -> int:
        out = 0
        for c, d in zip(reversed(self.components), reversed(tuple(parts))):
            out = out * c.order + d
        return out

    def mul(self, a: int, b: int) -> int:
        pa = self._decode(self._check(a))
        pb = self._decode(self._check(b))
        return self._encode([c.mul(x, y) for c, x, y in zip(self.components, pa, pb)])

    def try_invert(self, a: int) -> int | None:
        pa = self._decode(self._check(a))
        inv = []
        for c, x in zip(self.components, pa):
            ix = c.try_invert(x)
            if ix is None:
                return None
            inv.append(ix)
        return self._encode(inv)

    def one(self) -> int:
        return self._encode([c.one() for c in self.components])

    def is_commutative(self) -> bool:
        return all(c.is_commutative() for c in self.components)

    # own binding, not only inherited: perfbench/tracer.py wraps each ring class's add_vec
    add_vec = Ring.add_vec

    def to_json(self) -> dict:
        return {"kind": "product", "components": [c.to_json() for c in self.components]}

    def _key(self):
        return ("product", tuple(c._key() for c in self.components))

    def __repr__(self) -> str:
        return f"ProductRing({list(self.components)!r})"


class MatrixRing(Ring):
    """Full ring of k-by-k matrices over a finite field."""

    kind = "matrix"

    def __init__(self, k: int, field: GaloisField):
        k = _as_index(k)
        if k < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {k}")
        if not isinstance(field, GaloisField):
            raise TypeError("matrix entries must come from a field")
        self.k = k
        self.field = field
        self.q = field.order
        self._set_radices(r for _ in range(k * k) for r in field.radices)

    def _decode(self, a: int) -> list[list[int]]:
        rows = []
        for _ in range(self.k):
            row = []
            for _ in range(self.k):
                a, d = divmod(a, self.q)
                row.append(d)
            rows.append(row)
        return rows

    def _encode(self, rows: Sequence[Sequence[int]]) -> int:
        out = 0
        for i in reversed(range(self.k)):
            for j in reversed(range(self.k)):
                out = out * self.q + rows[i][j]
        return out

    def mul(self, a: int, b: int) -> int:
        ma = self._decode(self._check(a))
        mb = self._decode(self._check(b))
        f = self.field
        k = self.k
        out = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                acc = 0
                for t in range(k):
                    acc = f.add(acc, f.mul(ma[i][t], mb[t][j]))
                out[i][j] = acc
        return self._encode(out)

    def try_invert(self, a: int) -> int | None:
        # Gauss-Jordan elimination over the entry field
        f = self.field
        k = self.k
        m = self._decode(self._check(a))
        aug = [list(m[i]) + [f.one() if i == j else 0 for j in range(k)] for i in range(k)]
        for col in range(k):
            pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
            if pivot is None:
                return None
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = f.try_invert(aug[col][col])
            aug[col] = [f.mul(inv, x) for x in aug[col]]
            for r in range(k):
                if r != col and aug[r][col] != 0:
                    c = aug[r][col]
                    aug[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(aug[r], aug[col])]
        return self._encode([row[k:] for row in aug])

    def one(self) -> int:
        return self._encode(
            [[self.field.one() if i == j else 0 for j in range(self.k)] for i in range(self.k)]
        )

    def is_commutative(self) -> bool:
        return self.k == 1

    # own binding, not only inherited: perfbench/tracer.py wraps each ring class's add_vec
    add_vec = Ring.add_vec

    def to_json(self) -> dict:
        return {"kind": "matrix", "k": self.k, "field": self.field.to_json()}

    def _key(self):
        return ("matrix", self.k, self.field._key())

    def __repr__(self) -> str:
        return f"MatrixRing({self.k}, {self.field!r})"


def ring_from_json(data: dict) -> Ring:
    """Rebuild a ring from its descriptor dictionary."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"not a ring descriptor: {data!r}")
    kind = data["kind"]
    if kind == "residue":
        return ResidueRing(data["n"])
    if kind == "field":
        return GaloisField(data["p"], data["r"], data["modulus"])
    if kind == "product":
        return ProductRing([ring_from_json(c) for c in data["components"]])
    if kind == "matrix":
        field = ring_from_json(data["field"])
        if not isinstance(field, GaloisField):
            raise ValueError("matrix ring requires a field descriptor")
        return MatrixRing(data["k"], field)
    raise ValueError(f"unknown ring kind {kind!r}")
