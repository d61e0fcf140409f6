"""Subgroup tables, unit tests and coset partitions against the
computations they replaced, on rings of every kind.

``cyclic_subgroup`` fills its position tables from the exponents of the
powers it walked; ``Subgroup(ring, elements)``, which checks closure on
the full e x e product table, is the oracle.  ``is_unit`` is checked
against ``try_invert(a) is not None`` on every element of small rings,
and the digit remainder ``_rem`` against Python's ``%``.  The coset
partition fills its (e, n) product table from one ``mul_vec`` per
generator plus gathers; the oracle is the full (e, n) ``mul_vec`` table
the partition was built from before, with the same derivation of the
representatives, coset numbers, column positions and refusal.  Groups
are cyclic, doubled, and explicit element lists, some of them not
cyclic.
"""

import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdbkit import (
    ConditionNotSatisfiedError,
    GaloisField,
    MatrixRing,
    NotAUnitError,
    ProductRing,
    ResidueRing,
    Subgroup,
    coset_partition,
    cyclic_subgroup,
    doubled_subgroup,
)
from zdbkit.cosets import _product_rows
from zdbkit.rings import _rem

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

SMALL_RINGS = (
    [ResidueRing(n) for n in (2, 4, 6, 8, 9, 12, 15, 16, 21, 25, 27, 30, 36, 45, 63)]
    + [GaloisField(p, r) for p, r in ((2, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3))]
    + [
        ProductRing([GaloisField(3), GaloisField(7)]),
        ProductRing([ResidueRing(4), GaloisField(5)]),
        ProductRing([GaloisField(2, 2), GaloisField(2, 2)]),
        ProductRing([ResidueRing(3), MatrixRing(2, GaloisField(2))]),
        MatrixRing(1, GaloisField(5)),
        MatrixRing(2, GaloisField(2)),
        MatrixRing(2, GaloisField(3)),
        MatrixRing(2, GaloisField(2, 2)),
    ]
)

rings = st.sampled_from(SMALL_RINGS)


@SETTINGS
@given(st.integers(-(2**62), 2**62), st.integers(1, 2**62))
def test_rem_matches_python_mod_on_ints(x, m):
    assert _rem(x, m) == x % m


@SETTINGS
@given(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=40), st.integers(1, 2**40))
def test_rem_matches_python_mod_on_int64_arrays(xs, m):
    x = np.array(xs, dtype=np.int64)
    out = _rem(x, m)
    assert out.dtype == np.int64
    assert out.tolist() == [v % m for v in xs]


@SETTINGS
@given(st.lists(st.integers(-(2**126), 2**126), min_size=1, max_size=40), st.integers(1, 2**62))
def test_rem_matches_python_mod_on_wide_object_arrays(xs, m):
    # the object arrays of a _wide ring's mul_vec hold digit products past int64
    assert _rem(np.array(xs, dtype=object), m).tolist() == [v % m for v in xs]


@SETTINGS
@given(rings)
def test_is_unit_matches_try_invert_on_every_element(ring):
    units = [a for a in range(ring.order) if ring.is_unit(a)]
    assert units == [a for a in range(ring.order) if ring.try_invert(a) is not None]
    assert len(units) == ring.unit_count()


def tables(group):
    return group.elements, group.mul_pos, group.identity_pos, group.inv_pos


@SETTINGS
@given(rings, st.data())
def test_exponent_tables_match_the_validated_subgroup(ring, data):
    b = data.draw(st.integers(0, ring.order - 1))
    if ring.try_invert(b) is None:
        message = f"generator {b} is not a unit in {ring!r}"
        with pytest.raises(NotAUnitError, match=f"^{re.escape(message)}$"):
            cyclic_subgroup(ring, b)
        return
    group = cyclic_subgroup(ring, b)
    assert group.generator == b
    assert tables(group) == tables(Subgroup(ring, group.elements))
    assert all(type(x) is int for x in (*group.elements, group.identity_pos, *group.inv_pos))


def full_products(ring, group):
    """The (e, n) table r * g_j from one mul_vec over all of it."""
    elems = np.asarray(group.elements, dtype=np.int64)
    return ring.mul_vec(np.arange(ring.order)[None, :], elems[:, None])


def oracle_partition(ring, group):
    """(rep_array, coset_index, column_positions) derived from the full
    product table, or the refusal message."""
    n, e = ring.order, group.order
    index = np.arange(n)
    products = full_products(ring, group)
    reps = np.flatnonzero(products.min(axis=0) == index)
    members = products[:, reps[1:]]
    covered = np.zeros(n, dtype=bool)
    covered[members] = True
    if members.size != n - 1 or not covered[1:].all():
        return "subgroup fails the unit-difference condition: some g - 1 is not a unit"
    coset_index = np.zeros(n, dtype=np.int64)
    coset_index[members] = np.arange(1, len(reps))
    column_positions = np.full(n, -1, dtype=np.int64)
    column_positions[members] = np.arange(e)[:, None]
    return reps.tolist(), coset_index.tolist(), column_positions.tolist()


def partition_outcome(ring, group):
    try:
        part = coset_partition(ring, group)
    except ConditionNotSatisfiedError as exc:
        return str(exc)
    return part.rep_array.tolist(), part.coset_index.tolist(), part.column_positions.tolist()


def generated(ring, gens):
    """The closure of the identity under right multiplication by gens, by ring.mul."""
    seen = {ring.one()}
    todo = list(seen)
    while todo:
        x = todo.pop()
        for g in gens:
            y = ring.mul(x, g)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return sorted(seen)


@st.composite
def groups(draw):
    """A cyclic, doubled or explicit subgroup of a small ring; explicit ones
    come from one to three random units, so some are not cyclic."""
    ring = draw(rings)
    units = [a for a in range(ring.order) if ring.is_unit(a)]
    kind = draw(st.sampled_from(["cyclic", "doubled", "explicit"]))
    if kind == "explicit":
        gens = draw(st.lists(st.sampled_from(units), min_size=1, max_size=3))
        return ring, Subgroup(ring, generated(ring, gens))
    group = cyclic_subgroup(ring, draw(st.sampled_from(units)))
    if kind == "doubled" and ring.neg(ring.one()) not in group:
        group = doubled_subgroup(ring, group)
    return ring, group


@SETTINGS
@given(groups())
def test_partition_matches_the_full_product_table(case):
    ring, group = case
    index = np.arange(ring.order, dtype=np.int64)
    assert _product_rows(ring, group, index).tolist() == full_products(ring, group).tolist()
    assert partition_outcome(ring, group) == oracle_partition(ring, group)


@SETTINGS
@given(rings, st.data())
def test_a_cyclic_group_takes_one_mul_vec(ring, data):
    units = [a for a in range(ring.order) if ring.is_unit(a)]
    group = Subgroup(ring, cyclic_subgroup(ring, data.draw(st.sampled_from(units))).elements)
    index = np.arange(ring.order, dtype=np.int64)
    with patch.object(ring, "mul_vec", wraps=ring.mul_vec) as spy:
        _product_rows(ring, group, index)
    assert spy.call_count == (group.order > 1)
