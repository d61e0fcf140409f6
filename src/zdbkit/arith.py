"""Small integer-arithmetic helpers used by ring validation and recipes.

Everything here is exact and deterministic.  Factoring and primality use
trial division, which costs about sqrt(n) steps: instant for the recipe
and catalog sizes, but ring orders go up to 2**62, where sqrt(n) is 2**31
steps.  A faster factorization is ROADMAP item 7.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 2 by trial division."""
    if n < 2:
        raise ValueError(f"cannot factorize {n}")
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


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, r) with n == p**r if n is a prime power, else None."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    ((p, r),) = fac.items()
    return p, r
