import random

import pytest
from hypothesis import given, strategies as st

from cobforge import L_kn, construct_plan, milnor_novikov_check, s_dkn, s_kn, witness_k
from cobforge.arith import (
    base_p_digits,
    binomial,
    binomial_mod_p,
    gcd_list,
    is_prime,
    prime_power_check,
)
from cobforge.chern import dkn_spec
from cobforge.milnor import coprimality_check, point_blowup_delta
from cobforge.polytope import simplex, verify_complementary_equiv

TEST_PRIMES = (2, 3, 5, 7, 11, 13)


def pascal_triangle(limit):
    rows = [[1]]
    for n in range(1, limit + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        rows.append(row)
    return rows


PASCAL = pascal_triangle(200)


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(14, 4) == 1001
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_matches_pascal_triangle():
    for n in range(0, 201, 7):
        for k in range(n + 1):
            assert binomial(n, k) == PASCAL[n][k]


def test_binomial_pascal_recurrence_exhaustive():
    for n in range(1, 65):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_mod_p_examples():
    assert binomial_mod_p(14, 4, 3) == 1001 % 3 == 2
    assert binomial_mod_p(14, 5, 5) == 2002 % 5 == 2
    for n in (0, 1, 17, 100):
        assert binomial_mod_p(n, 0, 7) == 1


def test_binomial_mod_p_rejects_composite_modulus():
    with pytest.raises(ValueError):
        binomial_mod_p(10, 3, 6)
    with pytest.raises(ValueError):
        binomial_mod_p(10, 3, 1)


def test_binomial_mod_p_rejects_negative_arguments():
    with pytest.raises(ValueError):
        binomial_mod_p(-1, 0, 5)
    with pytest.raises(ValueError):
        binomial_mod_p(10, -3, 5)


def test_binomial_mod_p_matches_direct_reduction():
    # oracle equivalence against the Pascal table, full grid
    for p in TEST_PRIMES:
        for n in range(0, 201, 3):
            for m in range(0, 201, 5):
                direct = PASCAL[n][m] % p if m <= n else 0
                assert binomial_mod_p(n, m, p) == direct, (n, m, p)


def test_base_p_digits_roundtrip():
    assert base_p_digits(14, 5) == (4, 2)
    assert base_p_digits(14, 3) == (2, 1, 1)
    assert base_p_digits(0, 7) == ()
    for n in range(0, 3000, 37):
        for p in TEST_PRIMES:
            digits = base_p_digits(n, p)
            assert sum(d * p**i for i, d in enumerate(digits)) == n
            assert all(0 <= d < p for d in digits)
            assert not digits or digits[-1] != 0


def test_base_p_digits_validation():
    with pytest.raises(ValueError):
        base_p_digits(5, 4)
    with pytest.raises(ValueError):
        base_p_digits(-1, 3)


def test_gcd_list_examples():
    assert gcd_list([6, -10, 15]) == 1
    assert gcd_list([-10, -5, -20]) == 5
    assert gcd_list([7]) == 7
    assert gcd_list([0, 4, 0]) == 4


def test_gcd_list_errors():
    with pytest.raises(ValueError):
        gcd_list([])
    with pytest.raises(ValueError):
        gcd_list([0, 0, 0])


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8).filter(lambda v: any(v)))
def test_gcd_list_permutation_and_sign_invariant(values):
    g = gcd_list(values)
    assert g >= 1
    shuffled = sorted(values, reverse=True)
    assert gcd_list(shuffled) == g
    assert gcd_list([-v for v in values]) == g
    assert all(v % g == 0 for v in values)


def test_prime_power_check_examples():
    assert prime_power_check(9) == (3, 2)
    assert prime_power_check(15) is None
    assert prime_power_check(7) == (7, 1)
    assert prime_power_check(1024) == (2, 10)
    assert prime_power_check(2) == (2, 1)


def test_prime_power_check_rejects_small():
    with pytest.raises(ValueError):
        prime_power_check(1)
    with pytest.raises(ValueError):
        prime_power_check(0)


def smallest_factor_sieve(limit):
    spf = list(range(limit + 1))
    for i in range(2, int(limit**0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def test_prime_power_check_against_factorization():
    # trial-factorization oracle: exhaustive on a small range, sampled up to 10**6
    limit = 10**6
    spf = smallest_factor_sieve(limit)

    def single_prime_divisor(m):
        p = spf[m]
        while m % p == 0:
            m //= p
        return m == 1

    for m in range(2, 30000):
        assert (prime_power_check(m) is not None) == single_prime_divisor(m), m
    rng = random.Random(20240)
    for _ in range(20000):
        m = rng.randrange(2, limit + 1)
        got = prime_power_check(m)
        assert (got is not None) == single_prime_divisor(m), m
        if got is not None:
            p, e = got
            assert is_prime(p) and p**e == m


def test_is_prime_small_values():
    primes_below_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(-3, 60):
        assert is_prime(n) == (n in primes_below_60)


# Without the integer rule the first seven answer as if given an int and the
# rest raise TypeError.  The submodule functions at the end follow the same
# rule; without it is_prime(5.0) is True, point_blowup_delta(14.0) is -15.0,
# their other float cases raise TypeError and most bool cases answer as if
# given 1.
NON_INTEGER_CALLS = [
    (s_kn, (14, True)),
    (s_dkn, (14, True)),
    (binomial_mod_p, (5, True, 3)),
    (prime_power_check, (9.0,)),
    (milnor_novikov_check, (14, True)),
    (milnor_novikov_check, (14.0, 1)),
    (verify_complementary_equiv, (simplex(4), 0, True)),
    (s_dkn, (14.0, 2)),
    (L_kn, (6, 2.0)),
    (witness_k, (14, 5.0)),
    (witness_k, (14.0, 5)),
    (construct_plan, (14.0,)),
    (binomial_mod_p, (5, 2, 3.0)),
    (is_prime, (5.0,)),
    (is_prime, (True,)),
    (point_blowup_delta, (14.0,)),
    (point_blowup_delta, (True,)),
    (coprimality_check, (14.0,)),
    (coprimality_check, (True,)),
    (dkn_spec, (14.0, 2)),
    (dkn_spec, (14, True)),
    (binomial, (5.0, 2)),
    (binomial, (5, True)),
    (gcd_list, ([2.0, 4],)),
    (gcd_list, ([True, 4],)),
]


@pytest.mark.parametrize(
    "function, args",
    NON_INTEGER_CALLS,
    ids=[f"{f.__name__}({', '.join(map(repr, args))})" for f, args in NON_INTEGER_CALLS],
)
def test_top_level_api_refuses_non_integers(function, args):
    with pytest.raises(ValueError, match="integer"):
        function(*args)
