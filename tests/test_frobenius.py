import random
from math import gcd

import pytest

from cobforge.frobenius import Representation, _apery_distances, represent


def reachable_nonneg(basis, limit):
    """Coin-DP oracle: which of 0..limit are nonnegative combinations."""
    ok = bytearray(limit + 1)
    ok[0] = 1
    for t in basis:
        for v in range(t, limit + 1):
            if ok[v - t]:
                ok[v] = 1
    return ok


def bruteforce_frobenius(basis):
    limit = max(basis) ** 2 + max(basis)  # generous scan window
    ok = reachable_nonneg(basis, limit)
    worst = -1
    for v in range(limit + 1):
        if not ok[v]:
            worst = v
    return worst


def mixed_representable(x, basis, lift_limit=600):
    """Brute-force membership: x = P - Q with P, Q in the two coin semigroups."""
    pos = [t for t in basis if t > 0]
    neg = [-t for t in basis if t < 0]
    hi = lift_limit + max(x, 0) + max(abs(t) for t in basis)
    pos_ok = reachable_nonneg(pos, hi)
    neg_ok = reachable_nonneg(neg, lift_limit) if neg else bytearray([1])
    for q in range(len(neg_ok)):
        if neg_ok[q] and 0 <= x + q <= hi and pos_ok[x + q]:
            return True
    return False


def test_represent_pinned_examples():
    assert represent(8, [3, 5]).coefficients == (1, 1)
    assert represent(1, [3, -5]).coefficients == (2, 1)


def test_representation_identity_enforced():
    with pytest.raises(ValueError):
        Representation(8, (3, 5), (1, 2))
    with pytest.raises(ValueError):
        Representation(8, (3, 5), (-4, 4))
    with pytest.raises(ValueError):
        Representation(8, (3, 5), (1, 1, 0))


def test_represent_validation():
    with pytest.raises(ValueError):
        represent(5, [])
    with pytest.raises(ValueError):
        represent(5, [-3, 5])
    with pytest.raises(ValueError):
        represent(5, [4, -6])  # gcd 2
    # int() would read [3.5, 5] as (3, 5), over which 7 is not representable
    for x, basis in ((7, [3.5, 5]), (7, [3, True]), (8.0, [3, 5]), (True, [1])):
        with pytest.raises(ValueError, match="target and basis must be integers"):
            represent(x, basis)


def test_represent_exactness_at_the_bound():
    rng = random.Random(40)
    for _ in range(25):
        size = rng.randrange(2, 5)
        while True:
            basis = [rng.randrange(2, 51) for _ in range(size)]
            g = 0
            for t in basis:
                g = gcd(g, t)
            if g == 1:
                break
        bound = bruteforce_frobenius(basis)
        if bound > 0:
            with pytest.raises(ValueError):
                represent(bound, basis)
        for x in range(bound + 1, bound + 502):
            rep = represent(x, basis)
            assert sum(c * t for c, t in zip(rep.coefficients, rep.basis)) == x


def test_represent_all_positive_window_decided_exactly():
    rng = random.Random(41)
    for _ in range(40):
        while True:
            basis = [rng.randrange(2, 30) for _ in range(rng.randrange(2, 5))]
            g = 0
            for t in basis:
                g = gcd(g, t)
            if g == 1:
                break
        ok = reachable_nonneg(basis, 80)
        for x in range(-5, 81):
            representable = x >= 0 and bool(ok[x])
            if representable:
                represent(x, basis)
            else:
                with pytest.raises(ValueError):
                    represent(x, basis)


def random_mixed_basis(rng):
    while True:
        size = rng.randrange(2, 6)
        basis = [rng.choice([-1, 1]) * rng.randrange(1, 41) for _ in range(size)]
        basis[0] = abs(basis[0])
        if not any(t < 0 for t in basis):
            basis[rng.randrange(1, size)] *= -1
        g = 0
        for t in basis:
            g = gcd(g, abs(t))
        if g == 1:
            return basis


def test_represent_mixed_sign_randomized():
    # wherever the bounded brute force certifies representability the solver
    # must succeed; the sum identity is checked on every call either way
    rng = random.Random(1060)
    for _ in range(1000):
        basis = random_mixed_basis(rng)
        for x in (rng.randrange(-50, 120), rng.randrange(-5, 20)):
            rep = represent(x, basis)
            assert all(c >= 0 for c in rep.coefficients)
            assert sum(c * t for c, t in zip(rep.coefficients, rep.basis)) == x
    for _ in range(40):
        basis = random_mixed_basis(rng)
        certified = [x for x in range(-20, 60) if mixed_representable(x, basis)]
        assert certified, basis
        for x in certified:
            rep = represent(x, basis)
            assert sum(c * t for c, t in zip(rep.coefficients, rep.basis)) == x


def test_represent_deterministic():
    basis = [15, 30, 435, -2010, 10100, -31779]
    first = represent(44, basis)
    second = represent(44, basis)
    assert first == second


def test_represent_planner_style_basis():
    from cobforge.milnor import s_kn

    n = 14
    ks = [1, 0] + list(range(2, n - 1))
    basis = [-s_kn(n, k) for k in ks]
    assert basis[0] == n + 1
    rep = represent(44, basis)
    assert sum(c * t for c, t in zip(rep.coefficients, rep.basis)) == 44


def loop_lift_represent(x, basis):
    """Reference: represent() with the lift found one step of |entry| at a time."""
    vals = tuple(basis)
    abs_vals = tuple(abs(t) for t in vals)
    active = tuple(i for i, t in enumerate(vals) if t != 0)
    solve_vals = tuple(abs_vals[i] for i in active)
    m_pos, dist, pred = _apery_distances(solve_vals)
    m = solve_vals[m_pos]

    def abs_coeffs_for(y):
        r0 = y % m
        if y < 0 or dist[r0] > y:
            return None
        coeffs = [0] * len(vals)
        r = r0
        while r != 0:
            r, idx = pred[r]
            coeffs[active[idx]] += 1
        coeffs[active[m_pos]] += (y - dist[r0]) // m
        return coeffs

    negatives = [i for i, t in enumerate(vals) if t < 0]
    coeffs = abs_coeffs_for(x)
    shift = 0
    while coeffs is None:
        shift += 1
        coeffs = abs_coeffs_for(x + shift * abs_vals[negatives[0]])
    coeffs[negatives[0]] -= shift
    for i in negatives:
        a_i = coeffs[i]
        k = -(-a_i // vals[0]) if a_i > 0 else 0
        coeffs[0] += k * abs_vals[i]
        coeffs[i] = -a_i + k * vals[0]
    return Representation(x, vals, tuple(coeffs)), shift


def random_mixed_basis_with_zeros(rng):
    while True:
        size = rng.randrange(2, 7)
        basis = [rng.randrange(-60, 61) for _ in range(size)]
        basis[0] = rng.randrange(1, 61)
        if not any(t < 0 for t in basis):
            basis[rng.randrange(1, size)] = -rng.randrange(1, 61)
        g = 0
        for t in basis:
            g = gcd(g, abs(t))
        if g == 1:
            return basis


def test_represent_matches_loop_lift():
    from cobforge.milnor import s_kn

    rng = random.Random(5)
    cases = [
        (-100, [7, -6, 3]),  # step 6 is a multiple of m = 3: period 1
        (-1000, [7, 0, -6, 0, 3]),  # zero entries, m not first
        (-1, [5, -9, 2, 0]),
        (44, [15, 30, 435, -2010, 10100, -31779]),
    ]
    for n in (14, 20, 32):
        ks = [1, 0] + list(range(2, n - 1))
        cases.append((n, [-s_kn(n, k) for k in ks]))
    for _ in range(3000):
        basis = random_mixed_basis_with_zeros(rng)
        cases.append((rng.randrange(-400, 400), basis))

    period_one = zeros = m_not_first = past_first_period = 0
    for x, basis in cases:
        expected, shift = loop_lift_represent(x, basis)
        assert represent(x, basis) == expected, (x, basis)
        if shift:
            m = min(abs(t) for t in basis if t)
            step = abs(next(t for t in basis if t < 0))
            period_one += step % m == 0
            zeros += 0 in basis
            m_not_first += m != basis[0]
            past_first_period += shift > m // gcd(step, m)
    # the lift must actually run in each of the shapes the closed form treats
    counts = (period_one, zeros, m_not_first, past_first_period)
    assert min(counts) >= 10, counts
