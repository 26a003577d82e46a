import time

import pytest

from cobforge import milnor
from cobforge.arith import binomial, prime_power_check
from cobforge.chern import dkn_spec, milnor_projectivisation
from cobforge.milnor import (
    L_kn,
    coprimality_check,
    point_blowup_delta,
    s_dkn,
    s_dkn_row,
    s_kn,
    s_kn_row,
    witness_k,
)


def s_kn_expanded(n, k):
    """Fully expanded closed form, written out independently of s_dkn."""
    sign_n = (-1) ** n
    inner = (n - k - 1) * (2 ** (k + 1) - 1)
    inner += sum(
        (-1) ** i * (2**i + sign_n * 2 ** (k - i)) * binomial(n - 1, i)
        for i in range(k + 1)
    )
    return -(inner + n + sign_n)


def test_s_dkn_pinned_values():
    assert s_dkn(3, 0) == 2
    assert s_dkn(6, 1) == 0
    assert s_dkn(5, 3) == 0
    assert s_dkn(4, 2) == 15
    assert s_dkn(14, 0) == 15


def test_s_dkn_range_errors():
    with pytest.raises(ValueError):
        s_dkn(1, 0)
    with pytest.raises(ValueError):
        s_dkn(5, 4)
    with pytest.raises(ValueError):
        s_dkn(5, -1)


def test_s_dkn_special_cases():
    for n in range(2, 21):
        assert s_dkn(n, 0) == n + (-1) ** n
    for n in range(3, 21):
        expected = 0 if n % 2 == 0 else 2 * (n - 3)
        assert s_dkn(n, 1) == expected
    for n in range(2, 21):
        expected = 2**n - 1 if n % 2 == 0 else 0
        assert s_dkn(n, n - 2) == expected


def test_s_kn_pinned_values():
    assert s_kn(14, 1) == -15
    assert s_kn(14, 0) == -30
    assert s_kn(4, 2) == -20
    assert s_kn(3, 0) == -4
    assert s_kn(3, 1) == -2


def test_s_kn_matches_expanded_form():
    for n in range(2, 41):
        for k in range(n - 1):
            assert s_kn(n, k) == s_kn_expanded(n, k), (n, k)


def test_s_dkn_row_matches_expanded_form_to_n100():
    # the recurrence row at its ends and middle against the binomial sum
    for n in range(2, 101):
        row = list(s_dkn_row(n))
        assert len(row) == n - 1
        for k in {0, 1, 2, n // 2, n - 3, n - 2} & set(range(n - 1)):
            assert -row[k] + point_blowup_delta(n) == s_kn_expanded(n, k), (n, k)
        assert list(s_kn_row(n)) == [s_kn_expanded(n, k) for k in range(n - 1)], n


@pytest.mark.parametrize("n", [63, 64, 100])
def test_s_dkn_row_matches_oracle(n):
    for k, value in enumerate(s_dkn_row(n)):
        assert value == milnor_projectivisation(dkn_spec(n, k)), (n, k)


def test_s_dkn_row_range_error():
    # refused at the call, before the lazy row is asked for an entry
    for n in (1, 2.5, True, "4"):
        with pytest.raises(ValueError):
            s_dkn_row(n)


def test_s_kn_odd_dimensions_computable():
    # odd n is legal for the closed forms even though the planner never asks
    for n in (3, 5, 7, 9, 15):
        for k in range(n - 1):
            assert s_kn(n, k) == s_kn_expanded(n, k)


def test_point_blowup_delta():
    for n in range(2, 12):
        assert point_blowup_delta(n) == -(n + (-1) ** n)
        assert point_blowup_delta(n) == -s_dkn(n, 0)


def test_L_range_errors():
    with pytest.raises(ValueError):
        L_kn(6, 1)
    with pytest.raises(ValueError):
        L_kn(6, 5)


def test_L_defining_recurrence():
    # both sides computed independently: closed form vs the s_kn combination
    for n in range(4, 21):
        for k in range(2, n - 1):
            combo = -s_kn(n, k) + 3 * s_kn(n, k - 1) - 2 * s_kn(n, k - 2)
            assert L_kn(n, k) == combo, (n, k)


def test_L_even_factorization():
    for n in range(4, 21, 2):
        for k in range(2, n - 1):
            factored = -(2**k + 1) * (1 + (-1) ** (k + 1) * binomial(n, k))
            assert L_kn(n, k) == factored, (n, k)


def test_coprimality_pinned():
    assert coprimality_check(14) == (1, True)
    assert coprimality_check(4) == (5, False)
    assert coprimality_check(20) == (1, True)


def test_coprimality_reads_the_row_lazily(monkeypatch):
    # gcd_list stops at the first gcd of 1: for n = 20000 (n+1 = 3 * 59 * 113)
    # that is k = 113, so 114 of the row's 19,999 entries are built
    read = []
    row = milnor._s_dkn_row

    def counted(n):
        for value in row(n):
            read.append(value)
            yield value

    monkeypatch.setattr(milnor, "_s_dkn_row", counted)
    assert coprimality_check(20000) == (1, True)
    assert len(read) == 114


def test_coprimality_checks_n_once(monkeypatch):
    # s_kn_row's check is the only one: coprimality_check makes no second
    calls = []
    check = milnor._require_ints

    def counted(values, message):
        calls.append(message)
        return check(values, message)

    monkeypatch.setattr(milnor, "_require_ints", counted)
    assert coprimality_check(20) == (1, True)
    assert calls == ["dimension n must be an integer"]


def test_coprimality_rejects_odd():
    with pytest.raises(ValueError):
        coprimality_check(13)
    with pytest.raises(ValueError):
        coprimality_check(1)


def test_prime_power_rows_divisible():
    for n in (4, 6, 8, 10, 12, 16):
        p, _ = prime_power_check(n + 1)
        row = [s_kn(n, k) for k in range(n - 1)]
        assert all(v % p == 0 for v in row), (n, p)
        gcd, holds = coprimality_check(n)
        assert not holds and gcd % p == 0


def scan_witnesses(n, p):
    return [k for k in range(2, n - 1) if L_kn(n, k) % p != 0]


def test_witness_pinned_values():
    k, residue = witness_k(14, 5)
    assert k == 5 and residue != 0 and L_kn(14, 5) % 5 == residue
    k, residue = witness_k(14, 3)
    assert k == 4 and residue != 0 and L_kn(14, 4) % 3 == residue
    k, residue = witness_k(20, 3)
    assert k in (3, 4) and L_kn(20, k) % 3 == residue != 0


def test_witness_matches_scanning_fallback():
    # the digit-driven choice must always be one of the brute-force witnesses
    for n in range(4, 101, 2):
        if prime_power_check(n + 1) is not None:
            continue
        m = n + 1
        p = 2
        primes = set()
        while m > 1:
            while m % p:
                p += 1
            primes.add(p)
            while m % p == 0:
                m //= p
        for p in sorted(primes):
            k, residue = witness_k(n, p)
            assert 2 <= k <= n - 2
            assert k in scan_witnesses(n, p), (n, p, k)
            assert L_kn(n, k) % p == residue != 0


def test_witness_errors():
    with pytest.raises(ValueError):
        witness_k(13, 7)  # odd n
    with pytest.raises(ValueError):
        witness_k(14, 7)  # 7 does not divide 15
    with pytest.raises(ValueError):
        witness_k(8, 3)  # 9 is a prime power
    with pytest.raises(ValueError):
        witness_k(14, 15)  # not prime


def test_witness_refuses_before_primality_test():
    # p < 2 is a ValueError before n+1 mod p is taken (p = 0 would divide by
    # zero); a huge p is tested for dividing n+1 before any trial division
    for p in (0, 1, -3):
        with pytest.raises(ValueError):
            witness_k(14, p)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not a prime divisor"):
        witness_k(14, 10**18 + 3)
    assert time.perf_counter() - start < 1.0
