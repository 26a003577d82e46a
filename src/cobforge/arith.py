"""Exact integer primitives: binomials, Lucas reduction, gcds, prime powers.

Every integer in this package is a plain Python ``int``; arithmetic is
arbitrary-precision, so nothing here ever rounds or overflows.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional

_INT_ONLY = frozenset((int,))


def _require_ints(values: Iterable, message: str) -> None:
    """``ValueError(message)`` unless every value's type is exactly ``int`` (a ``bool`` is not)."""
    if not _INT_ONLY.issuperset(map(type, values)):
        raise ValueError(message)


def is_prime(p: int) -> bool:
    """Trial-division primality test; inputs in this package stay small."""
    _require_ints((p,), "is_prime requires an integer")
    return p >= 2 and _smallest_prime_factor(p) == p


def binomial(n: int, k: int) -> int:
    """C(n, k) by ``math.comb``; 0 when k < 0 or k > n, ``ValueError`` when n < 0."""
    _require_ints((n, k), "binomial requires integers")
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    return math.comb(n, k) if k >= 0 else 0


def base_p_digits(n: int, p: int) -> tuple[int, ...]:
    """Base-p digits of n, least significant first; empty for zero."""
    _require_ints((n, p), "base-p expansion requires integers")
    if n < 0:
        raise ValueError("base-p expansion requires n >= 0")
    if not is_prime(p):
        raise ValueError(f"base {p} is not prime")
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return tuple(digits)


def binomial_mod_p(n: int, m: int, p: int) -> int:
    """C(n, m) mod p, computed digit-by-digit from base-p expansions.

    By Lucas' theorem the product of the digit-wise binomials
    C(n_i, m_i) mod p equals C(n, m) mod p.  ``base_p_digits`` refuses a
    non-``int``, a negative n or m and a p that is not prime.
    """
    nd = base_p_digits(n, p)
    md = base_p_digits(m, p)
    result = 1
    for ni, mi in itertools.zip_longest(nd, md, fillvalue=0):
        result = result * binomial(ni, mi) % p
        if result == 0:
            break
    return result


def gcd_list(values: Iterable[int]) -> int:
    """Nonnegative gcd of the absolute values; at least one must be nonzero.

    The values are consumed lazily and the scan stops at the first gcd of 1.
    """
    g, seen = 0, False
    for v in values:
        _require_ints((v,), "gcd_list requires integers")
        seen = True
        g = math.gcd(g, abs(v))
        if g == 1:
            return 1
    if not seen:
        raise ValueError("gcd_list needs at least one value")
    if g == 0:
        raise ValueError("gcd_list of all-zero input")
    return g


def prime_power_check(m: int) -> Optional[tuple[int, int]]:
    """Return (p, e) with m = p**e if m is a prime power, else None.

    Trial division up to sqrt(m); the dimensions fed to this stay small.
    """
    _require_ints((m,), "prime_power_check requires an integer")
    if m < 2:
        raise ValueError("prime_power_check requires m >= 2")
    p = _smallest_prime_factor(m)
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return (p, e) if m == 1 else None


def _smallest_prime_factor(m: int) -> int:
    if m % 2 == 0:
        return 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return f
        f += 2
    return m
