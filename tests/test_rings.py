"""Ring axioms checked exhaustively from multiplication tables, plus
frozen encodings for the worked examples."""

import math
import tracemalloc
from itertools import product as iproduct

import numpy as np
import pytest

from zdbkit import (
    GaloisField,
    MatrixRing,
    ProductRing,
    ResidueRing,
    ring_from_json,
)
from zdbkit.arith import factorize, is_prime, prime_power
from zdbkit.rings import _poly_irreducible

RINGS = [
    ResidueRing(2),
    ResidueRing(5),
    ResidueRing(12),
    GaloisField(2, 2),
    GaloisField(2, 3),
    GaloisField(3, 2),
    GaloisField(5, 2),
    GaloisField(11, 2),
    ProductRing([GaloisField(7), GaloisField(13)]),
    MatrixRing(2, GaloisField(2)),
    MatrixRing(2, GaloisField(3)),
]

IDS = [
    "Z2", "Z5", "Z12", "GF4", "GF8", "GF9", "GF25", "GF121",
    "F7xF13", "M2F2", "M2F3",
]


def _tables(ring):
    n = ring.order
    add = np.array([[ring.add(a, b) for b in range(n)] for a in range(n)])
    mul = np.array([[ring.mul(a, b) for b in range(n)] for a in range(n)])
    return add, mul


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_ring_axioms_exhaustive(ring):
    n = ring.order
    add, mul = _tables(ring)
    assert add.min() >= 0 and add.max() < n
    assert mul.min() >= 0 and mul.max() < n

    zero, one = ring.zero(), ring.one()
    assert zero == 0
    assert (add[zero] == np.arange(n)).all()
    assert (mul[one] == np.arange(n)).all()
    assert (mul[:, one] == np.arange(n)).all()

    # the additive group is abelian
    assert (add == add.T).all()
    assert np.array_equal(add[add, :], add[:, add])
    negs = np.array([ring.neg(a) for a in range(n)])
    assert (add[np.arange(n), negs] == zero).all()

    # multiplication is associative and distributes on both sides
    assert np.array_equal(mul[mul, :], mul[:, mul])
    assert np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])
    assert np.array_equal(mul[add, :], add[mul[:, None, :], mul[None, :, :]])

    assert ring.is_commutative() == bool((mul == mul.T).all())


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_try_invert_against_table_scan(ring):
    """Compare try_invert with a two-sided inverse scan of the full table."""
    n = ring.order
    _, mul = _tables(ring)
    one = ring.one()
    for a in range(n):
        found = [b for b in range(n) if mul[a, b] == one and mul[b, a] == one]
        assert len(found) <= 1
        got = ring.try_invert(a)
        if found:
            assert got == found[0]
            assert ring.is_unit(a)
        else:
            assert got is None
            assert not ring.is_unit(a)


@pytest.mark.parametrize("n", [2, 9, 12, 15, 30])
def test_residue_units_match_gcd(n):
    ring = ResidueRing(n)
    for a in range(n):
        assert ring.is_unit(a) == (math.gcd(a, n) == 1)


def enumerated_units(ring):
    """The units counted one element at a time."""
    return sum(1 for a in ring.elements() if ring.is_unit(a))


UNIT_RINGS = RINGS + [
    ResidueRing(36),
    ResidueRing(97),
    ResidueRing(210),
    GaloisField(7),
    MatrixRing(1, GaloisField(5)),
    MatrixRing(2, GaloisField(2, 2)),
    MatrixRing(3, GaloisField(2)),
    ProductRing([ResidueRing(4), GaloisField(3), MatrixRing(2, GaloisField(2))]),
    ProductRing([ProductRing([ResidueRing(6), GaloisField(2, 2)]), ResidueRing(9)]),
]


@pytest.mark.parametrize("ring", UNIT_RINGS, ids=repr)
def test_unit_count_matches_enumeration(ring):
    assert ring.unit_count() == enumerated_units(ring)


def test_residue_ring_rejects_tiny_order():
    with pytest.raises(ValueError):
        ResidueRing(1)


def _poly_value(p, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _irreducible_oracle(p, coeffs):
    """Degree 2 or 3 polynomials are irreducible iff they have no roots."""
    assert len(coeffs) - 1 in (2, 3)
    return all(_poly_value(p, coeffs, x) != 0 for x in range(p))


@pytest.mark.parametrize(
    "p,r,expected",
    [
        (2, 2, (1, 1, 1)),
        (3, 2, (1, 0, 1)),
        (5, 2, (1, 1, 1)),
        (11, 2, (1, 0, 1)),
        (2, 3, (1, 0, 1, 1)),
    ],
)
def test_modulus_is_first_monic_irreducible(p, r, expected):
    field = GaloisField(p, r)
    modulus = tuple(field.modulus)
    assert modulus == expected
    assert _irreducible_oracle(p, modulus)
    # everything lexicographically earlier must be reducible
    for lower in iproduct(range(p), repeat=r):
        coeffs = lower + (1,)
        if coeffs >= modulus:
            break
        assert not _irreducible_oracle(p, coeffs)


def product_scan_modulus(p, r):
    """The first irreducible of itertools.product(range(p), repeat=r) + (1,)."""
    return next(
        tail + (1,) for tail in iproduct(range(p), repeat=r) if _poly_irreducible(tail + (1,), p)
    )


@pytest.mark.parametrize("p,r", [(2, 1), (7, 1), (2, 4), (2, 5), (2, 8), (3, 3), (3, 4),
                                 (5, 3), (7, 2), (13, 2)])
def test_default_modulus_matches_the_product_scan(p, r):
    assert GaloisField(p, r).modulus == product_scan_modulus(p, r)


def test_default_modulus_of_a_large_prime_field_is_x_without_a_range_of_p():
    tracemalloc.start()
    try:
        field = GaloisField(1_000_003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.modulus == (0, 1)
    assert peak < 1 << 20


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        GaloisField(2, 2, modulus=(1, 0, 1))  # (x + 1)^2 over F_2
    with pytest.raises(ValueError):
        GaloisField(5, 2, modulus=(1, 0, 2))  # not monic


def test_field_characteristic_must_be_prime():
    with pytest.raises(ValueError):
        GaloisField(4)
    with pytest.raises(ValueError):
        GaloisField(6, 2)


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (5, 2), (2, 3)])
def test_field_power_identity(p, r):
    # a^q = a for every a in GF(q)
    field = GaloisField(p, r)
    q = field.order
    for a in range(q):
        acc = a
        for _ in range(q - 1):
            acc = field.mul(acc, a)
        assert acc == a


def test_matrix_ring_frozen_encodings():
    """Worked 2x2 example over F_5: indices are row-major base-5 digits."""
    ring = MatrixRing(2, GaloisField(5))
    assert ring.order == 625
    assert ring.one() == 126  # I = [[1,0],[0,1]] -> 1*5^0 + 1*5^3

    three_i = 378  # [[3,0],[0,3]]
    assert ring.mul(three_i, three_i) == 504  # [[4,0],[0,4]]

    b = 49  # [[4,4],[1,0]] -> 4 + 4*5 + 1*5^2
    b2 = ring.mul(b, b)
    assert b2 == 605
    assert ring.try_invert(b) == b2  # B has order 3, so B^-1 = B^2
    assert ring.mul(b, b2) == ring.one()

    assert not ring.is_commutative()
    assert MatrixRing(1, GaloisField(5)).is_commutative()


def test_matrix_singular_elements_have_no_inverse():
    ring = MatrixRing(2, GaloisField(3))
    # [[1,1],[1,1]] has determinant 0
    idx = 1 + 1 * 3 + 1 * 9 + 1 * 27
    assert ring.try_invert(idx) is None


def test_product_ring_componentwise():
    ring = ProductRing([GaloisField(7), GaloisField(13)])
    assert ring.order == 91
    # first component is the least significant digit
    a = ring._encode([3, 5])
    b = ring._encode([6, 9])
    assert ring.add(a, b) == ring._encode([(3 + 6) % 7, (5 + 9) % 13])
    assert ring.mul(a, b) == ring._encode([(3 * 6) % 7, (5 * 9) % 13])


def test_orders_from_two_to_the_62_are_refused():
    # int64 sums of two indices below 2^62 cannot overflow
    top = ResidueRing(2**62 - 1)
    a = 2**62 - 2
    assert top.add(a, a) == top.add_vec(a, a) == 2**62 - 3
    with pytest.raises(ValueError, match="order at least 2\\^62"):
        ResidueRing(2**62 + 3)
    with pytest.raises(ValueError, match="order at least 2\\^62"):
        ring_from_json({"kind": "residue", "n": 2**62})


def test_product_crossing_the_order_limit_is_refused():
    half = ResidueRing(2**31)
    assert ProductRing([half, ResidueRing(2**31 - 1)]).order == 2**62 - 2**31
    with pytest.raises(ValueError, match="order at least 2\\^62"):
        ProductRing([half, half])
    # refused digit by digit, before the order or the modulus is computed
    with pytest.raises(ValueError, match="order at least 2\\^62"):
        MatrixRing(10**9, GaloisField(2))
    with pytest.raises(ValueError, match="order at least 2\\^62"):
        GaloisField(2, 10**12)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_ring_json_round_trip(ring):
    data = ring.to_json()
    again = ring_from_json(data)
    assert again == ring
    assert again.to_json() == data


def test_ring_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        ring_from_json({"kind": "banana"})
    with pytest.raises(ValueError):
        ring_from_json([1, 2, 3])


def test_arith_helpers():
    assert [x for x in range(2, 30) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}
    assert prime_power(121) == (11, 2)
    assert prime_power(8) == (2, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_factorize_round_trip():
    for n in range(2, 400):
        total = 1
        for p, k in factorize(n).items():
            assert is_prime(p)
            total *= p**k
        assert total == n


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def trial_factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_primality_and_factoring_match_trial_division_below_10_5():
    # trial division yields the primes in ascending order, and factorize must too
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial_is_prime(n)]
    for n in range(2, 10**5):
        assert list(factorize(n).items()) == list(trial_factorize(n).items()), n


@pytest.mark.parametrize(
    "n, factors",
    [
        (2**61 - 1, {2**61 - 1: 1}),
        (4611686018427387847, {4611686018427387847: 1}),  # the largest prime below 2^62
        (2147483629 * 2147483647, {2147483629: 1, 2147483647: 1}),
        ((2**31 - 1) ** 2, {2**31 - 1: 2}),
        (1073741789 * 4294967291, {1073741789: 1, 4294967291: 1}),
        (3 * 2**61, {2: 61, 3: 1}),
        # the least strong pseudoprime to the bases 2..31, composite by base 37
        (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),
    ],
)
def test_factorize_below_2_62(n, factors):
    assert list(factorize(n).items()) == sorted(factors.items())
    assert is_prime(n) == (factors == {n: 1})


def test_primality_refuses_the_first_pseudoprime_to_its_bases():
    limit = 3317044064679887385961981
    assert is_prime(limit - 2) is False
    for call in (is_prime, factorize):
        with pytest.raises(ValueError, match=f"{limit}, the limit of exact primality"):
            call(limit)
