"""Closed forms for Milnor numbers of sequential blow-up modifications.

A modification of an n-dimensional complex manifold blows up a point and then
a k-dimensional projective subspace of the exceptional divisor (0 <= k <=
n-2).  The change of the Milnor number s_n under that operation is a
universal constant depending on (n, k) only.  This module provides:

* ``s_dkn_row(n)``: the Milnor numbers s_dkn(n, k), k = 0..n-2, of the
  twisted projectivisations P(O(-1) + O(1)^(n-k-1) + conjugate-trivial) over
  CP^k, the correction terms of the second blow-up stage, yielded lazily by
  a recurrence at O(1) big-integer steps per entry;
* ``s_dkn(n, k)``: entry k of that row;
* ``s_kn_row(n)``: the total changes s_kn(n, k) = -(n + (-1)^n) - s_dkn(n, k)
  of s_n under the two-stage modification, lazily, k = 0..n-2;
* ``s_kn(n, k)``: entry k of that row;
* ``L_kn(n, k)``: the combination -s_kn(n,k) + 3*s_kn(n,k-1) - 2*s_kn(n,k-2),
  which collapses to a compact closed form and is the handle for
  divisibility arguments;
* ``coprimality_check``: gcd of the whole s_kn row for even n;
* ``witness_k``: for a prime p dividing n+1 (with n+1 not a prime power), a
  digit-driven choice of k with L_kn(n, k) not divisible by p, certifying
  that the gcd of the row is 1.

Every value here is cross-checked in the tests against the fiber-integration
oracle in :mod:`cobforge.chern`, and the row against the closed form summed
out term by term with binomials.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .arith import _require_ints
from .arith import base_p_digits, binomial, binomial_mod_p, gcd_list, is_prime, prime_power_check


def _check_range(n: int, k: int, k_min: int = 0) -> None:
    _require_ints((n, k), "n and k must be integers")
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    if not k_min <= k <= n - 2:
        raise ValueError(f"k must satisfy {k_min} <= k <= n-2, got k={k} for n={n}")


def s_dkn_row(n: int) -> Iterator[int]:
    """Yield s_dkn(n, k) for k = 0, 1, ..., n-2, each in O(1) big-integer steps.

    The closed form is
    s_dkn(n, k) = (n-k-1)*(2^(k+1)-1) + A_k + (-1)^n * B_k with
    A_k = sum_{i<=k} (-2)^i * c_i and B_k = sum_{i<=k} (-1)^i * 2^(k-i) * c_i,
    c_i = C(n-1, i).  Both sums follow k by one step:
    c_k = c_(k-1) * (n-k) / k (exact), A_k = A_(k-1) + (-2)^k * c_k and
    B_k = 2*B_(k-1) + (-1)^k * c_k.  The row is lazy, so a consumer that
    stops early (``coprimality_check``) pays only for what it reads; n is
    checked at the call, before the first entry is asked for.
    """
    _require_ints((n,), "dimension n must be an integer")
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    return _s_dkn_row(n)


def _s_dkn_row(n: int) -> Iterator[int]:
    """``s_dkn_row`` on an ``int`` n >= 2, which its callers have checked."""
    sign_n = 1 if n % 2 == 0 else -1
    c, two_k, a_sum, b_sum = 1, 1, 0, 0
    for k in range(n - 1):
        if k:
            c = c * (n - k) // k
        signed = -c if k % 2 else c
        a_sum += two_k * signed
        b_sum = 2 * b_sum + signed
        two_k *= 2
        yield (n - k - 1) * (two_k - 1) + a_sum + sign_n * b_sum


def s_dkn(n: int, k: int) -> int:
    """Milnor number of the two-stage blow-up correction space: entry k of ``s_dkn_row(n)``."""
    _check_range(n, k)
    return next(itertools.islice(_s_dkn_row(n), k, None))


def point_blowup_delta(n: int) -> int:
    """Change of s_n under a single blow-up at a point: -(n + (-1)^n)."""
    _require_ints((n,), "dimension n must be an integer")
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    return -(n + (1 if n % 2 == 0 else -1))


def s_kn_row(n: int) -> Iterator[int]:
    """Yield s_kn(n, k) for k = 0, 1, ..., n-2, as lazily as ``s_dkn_row(n)``.

    The point blow-up contributes -(n + (-1)^n) and the second stage
    contributes -s_dkn(n, k).
    """
    delta = point_blowup_delta(n)
    return (delta - s for s in _s_dkn_row(n))


def s_kn(n: int, k: int) -> int:
    """Change of s_n under the two-stage modification (n, k): entry k of ``s_kn_row(n)``."""
    _check_range(n, k)
    return next(itertools.islice(s_kn_row(n), k, None))


def L_kn(n: int, k: int) -> int:
    """The combination -s_kn(n,k) + 3*s_kn(n,k-1) - 2*s_kn(n,k-2) in closed form.

    Equals -2^k - 1 + (-1)^(n+k) * C(n,k) + (-2)^k * C(n,k); for even n this
    factors as -(2^k + 1) * (1 + (-1)^(k+1) * C(n,k)).
    """
    _check_range(n, k, k_min=2)
    c = binomial(n, k)
    return -(2**k) - 1 + (-1) ** (n + k) * c + (-2) ** k * c


def coprimality_check(n: int) -> tuple[int, bool]:
    """Gcd of {s_kn(n, k) : 0 <= k <= n-2} for even n, and whether it is 1.

    ``gcd_list`` consumes ``s_kn_row`` lazily and stops at a gcd of 1, since
    the row entries grow like 2^n: n = 20000 stops after 114 of 19,999
    entries, where a list would build them all.  Odd n is rejected: the
    construction this feeds only consumes even dimensions; ``s_kn_row``
    refuses n < 2.
    """
    _require_ints((n,), "dimension n must be an integer")
    if n % 2:
        raise ValueError("coprimality check applies to even n only")
    g = gcd_list(s_kn_row(n))
    return g, g == 1


def witness_k(n: int, p: int) -> tuple[int, int]:
    """A k in [2, n-2] with L_kn(n, k) not divisible by p, and that residue.

    Requires n even, p a prime divisor of n+1, and n+1 not a prime power.
    p < 2 and p not dividing n+1 are refused before the primality test, so a
    huge p costs no trial division.  Let j be the least index with digit
    n_j < p-1 in the base-p expansion of n (it exists because n+1 is not a
    power of p).  For k = p^j the digit product rule gives C(n,k) = n_j mod
    p, which rules out the binomial factor of L_kn vanishing; if 2^k = -1
    mod p would kill the other factor, k+1 works instead.  The residue is
    read off the even-n factorization L_kn = -(2^k + 1) * (1 + (-1)^(k+1) *
    C(n,k)) with C(n,k) mod p taken by the same digit rule
    (``binomial_mod_p``), so no big binomial is formed; it is verified
    nonzero, so the CLI's ``L_not_divisible`` check cannot pass vacuously.
    """
    if n % 2:
        raise ValueError("witness search applies to even n only")
    if p < 2 or (n + 1) % p:
        raise ValueError(f"{p} is not a prime divisor of n+1 = {n + 1}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if prime_power_check(n + 1) is not None:
        raise ValueError(f"n+1 = {n + 1} is a prime power; no witness exists")
    j = next(i for i, d in enumerate(base_p_digits(n, p)) if d < p - 1)
    k = p**j
    if pow(2, k, p) == p - 1:
        k += 1
    if not 2 <= k <= n - 2:  # the case analysis guarantees this range
        raise ArithmeticError(f"witness k={k} fell outside [2, {n - 2}]")
    residue = -(pow(2, k, p) + 1) * (1 + (-1) ** (k + 1) * binomial_mod_p(n, k, p)) % p
    if residue == 0:  # unreachable by the case analysis; guard anyway
        raise ArithmeticError(f"L_kn({n},{k}) unexpectedly divisible by {p}")
    return k, residue
