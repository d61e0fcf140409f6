"""Small integer-arithmetic helpers used by ring validation and recipes.

Everything here is exact and deterministic.  Primality is Miller-Rabin
with the first twelve primes as bases, which decides every n below
3.3 * 10**24 (3317044064679887385961981) exactly; factoring strips those
twelve primes and splits what is left with Brent's variant of Pollard's
rho, from fixed starting values, testing each part for primality.  Ring
orders go up to 2**62, where either takes at most about 15 ms.  Past that
limit both raise ValueError, as a probable prime is not a proof.  An
irreducibility test for the moduli of large fields (Rabin's) is ROADMAP
item 7.
"""

from __future__ import annotations

import itertools
import math


def _check_exact(n: int) -> None:
    limit = 3317044064679887385961981  # the least strong pseudoprime to the twelve bases
    if n >= limit:
        raise ValueError(f"{n} is not below {limit}, the limit of exact primality and factoring")


def is_prime(n: int) -> bool:
    _check_exact(n)
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor up to 37, so none at all
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witnesses that n is composite
    return True


def _rho(n: int) -> int:
    """A proper factor of an odd composite n with no prime factor up to 37:
    Brent's cycle search on y -> y^2 + c from y = 2, the gcds taken over
    batches of 128 steps, with c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch passed the factor: step again one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 2, in ascending p."""
    _check_exact(n)
    if n < 2:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    for p in range(2, 38):  # the primes up to 37; a composite p no longer divides n
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            parts += [d, m // d]
    return dict(sorted(out.items()))


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, r) with n == p**r if n is a prime power, else None."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    ((p, r),) = fac.items()
    return p, r
