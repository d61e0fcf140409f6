"""Brute-force checks of two construction lemmas, as test oracles.

Each recomputes, by ring arithmetic and plain loops, a fact that the
constructions' balance rests on; neither is a certificate, which the
verifier derives from a table and the group law alone.
"""

from zdbkit import construct_generic


def check_solution_set(ring, group, a: int) -> bool:
    """Compare the coincidence set of the generic construction at shift a
    against its closed form {a * (g - 1)^-1 : g in G, g != 1}.

    The left side is found by brute force over the table; the right
    side by direct ring arithmetic.  Commutative rings only.
    """
    if a == 0:
        raise ValueError("the shift must be nonzero")
    if not ring.is_commutative():
        raise ValueError("the closed form applies to commutative rings only")
    table = construct_generic(ring, group).table
    brute = {x for x in range(ring.order) if table[ring.add(x, a)] == table[x]}
    one = ring.one()
    closed = set()
    for g in group.elements:
        if g == one:
            continue
        inv = ring.try_invert(ring.sub(g, one))
        if inv is None:  # cannot happen once the partition exists
            return False
        closed.add(ring.mul(a, inv))
    return brute == closed


def check_column_ratios(partition) -> bool:
    """Check that for every nonzero r the map g -> CI(r) * CI(r*g)^-1 is a
    bijection of the subgroup onto itself whose value is 1 only at g = 1.

    CI denotes the column indicator.  This is the combinatorial engine
    behind the balance of the product construction.
    """
    ring = partition.ring
    group = partition.subgroup
    one = ring.one()
    elems = group.elements
    inverse_of = {g: elems[group.inv_pos[i]] for i, g in enumerate(elems)}
    target = set(elems)
    for r in range(1, ring.order):
        ci_r = int(partition.column_indicators[r])
        ratios = set()
        for g in elems:
            ci_rg = int(partition.column_indicators[ring.mul(r, g)])
            ratio = ring.mul(ci_r, inverse_of[ci_rg])
            if (ratio == one) != (g == one):
                return False
            ratios.add(ratio)
        if ratios != target:
            return False
    return True
