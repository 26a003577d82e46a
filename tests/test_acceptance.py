"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion asserts exact values (and a wall-clock budget where
one is part of the criterion).
"""

import functools
import itertools
import random
import time
from math import gcd

import pytest

from cobforge.arith import binomial, binomial_mod_p, prime_power_check
from cobforge.chern import TruncatedPoly, dkn_spec, milnor_projectivisation, poly_inverse
from cobforge.frobenius import represent
from cobforge.milnor import L_kn, coprimality_check, s_dkn, s_kn, witness_k
from cobforge.planner import construct_plan, milnor_novikov_check, verify_plan
from cobforge.polytope import (
    carries_vertices,
    comb_iso,
    cut_face,
    cut_vertex,
    h_vector,
    product,
    rigidity_demo,
    simplex,
    verify_complementary_equiv,
)


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] {name}: FAIL")
                raise
            print(f"[criterion {num:02d}] {name}: PASS")

        return wrapper

    return decorate


@criterion(1, "L-table reproduction")
def test_l_tables():
    start = time.perf_counter()
    assert [L_kn(4, k) for k in range(2, 3)] == [25]
    assert [L_kn(6, k) for k in range(2, 5)] == [70, -189, 238]
    assert [L_kn(8, k) for k in range(2, 7)] == [135, -513, 1173, -1881, 1755]
    assert time.perf_counter() - start < 1.0


@criterion(2, "closed form vs fiber-integration oracle, n = 2..100")
def test_closed_form_oracle_sweep():
    start = time.perf_counter()
    for n in range(2, 101):
        for k in range(n - 1):
            assert s_dkn(n, k) == milnor_projectivisation(dkn_spec(n, k)), (n, k)
    assert time.perf_counter() - start < 30.0


@criterion(3, "special-case closed forms, n <= 20")
def test_special_case_formulas():
    for n in range(2, 21):
        assert s_dkn(n, 0) == n + (-1) ** n
        if n >= 3:
            assert s_dkn(n, 1) == (0 if n % 2 == 0 else 2 * (n - 3))
        assert s_dkn(n, n - 2) == (2**n - 1 if n % 2 == 0 else 0)


@criterion(4, "coprimality and prime-power divisibility")
def test_coprimality():
    for n in (14, 20, 32):
        assert coprimality_check(n) == (1, True)
    for n in (4, 6, 8, 10, 12, 16):
        p, _ = prime_power_check(n + 1)
        assert all(s_kn(n, k) % p == 0 for k in range(n - 1)), (n, p)


@criterion(5, "witness validity for even n <= 100")
def test_witness_validity():
    start = time.perf_counter()
    checked = 0
    for n in range(4, 101, 2):
        if prime_power_check(n + 1) is not None:
            continue
        m = n + 1
        primes = set()
        d = 2
        while m > 1:
            while m % d:
                d += 1
            primes.add(d)
            while m % d == 0:
                m //= d
        for p in sorted(primes):
            k, residue = witness_k(n, p)
            assert 2 <= k <= n - 2, (n, p, k)
            assert L_kn(n, k) % p == residue != 0, (n, p, k)
            checked += 1
    assert checked >= 40
    assert time.perf_counter() - start < 10.0


@criterion(6, "generator plans for n = 14 and n = 20")
def test_generator_plans():
    start = time.perf_counter()
    for n in (14, 20):
        plan = construct_plan(n)
        assert plan.predicted_milnor == 1, n
        assert verify_plan(plan), n
        assert milnor_novikov_check(n, plan.predicted_milnor).is_generator, n
    assert time.perf_counter() - start < 10.0


@criterion(7, "frobenius solver: classic Frobenius numbers and 1000 mixed-sign identities")
def test_frobenius_solver():
    def reachable(basis, limit):
        ok = bytearray(limit + 1)
        ok[0] = 1
        for t in basis:
            for v in range(t, limit + 1):
                if ok[v - t]:
                    ok[v] = 1
        return ok

    def brute_frobenius(basis):
        limit = max(basis) ** 2 + max(basis)
        ok = reachable(basis, limit)
        return max(v for v in range(limit + 1) if not ok[v])

    # the solver refuses the Frobenius number and decomposes every larger target
    for basis, frob in (([3, 5], 7), ([6, 10, 15], 29)):
        assert brute_frobenius(basis) == frob
        with pytest.raises(ValueError):
            represent(frob, basis)
        for x in range(frob + 1, frob + 1 + min(basis)):
            assert represent(x, basis).target == x

    rng = random.Random(3551)
    bases_checked = 0
    while bases_checked < 1000:
        size = rng.randrange(2, 6)
        basis = [rng.choice([-1, 1]) * rng.randrange(1, 41) for _ in range(size)]
        basis[0] = abs(basis[0])
        if not any(t < 0 for t in basis):
            basis[rng.randrange(1, size)] *= -1
        g = 0
        for t in basis:
            g = gcd(g, abs(t))
        if g != 1:
            continue
        x = rng.randrange(-60, 140)
        rep = represent(x, basis)
        assert all(c >= 0 for c in rep.coefficients)
        assert sum(c * t for c, t in zip(rep.coefficients, rep.basis)) == x
        bases_checked += 1


@criterion(8, "complementary-face equivalence sweep")
def test_complementary_equivalence():
    start = time.perf_counter()
    for n in range(3, 7):
        p = simplex(n)
        for k in range(n - 1):
            assert verify_complementary_equiv(p, 0, k), ("simplex", n, k)
    for n in range(4, 7):
        p = product(product(simplex(1), simplex(1)), simplex(n - 2))
        for k in range(n - 1):
            assert verify_complementary_equiv(p, 0, k), ("product", n, k)
    assert time.perf_counter() - start < 60.0


@criterion(9, "vertex-cut figure: complementary cuts of the truncated 3-simplex")
def test_figure_reproduction():
    s = simplex(3)
    g = s.facet_count
    q = cut_vertex(s, 0)
    gverts = [v for v in q.vertices if g in v]
    p1 = cut_face(q, gverts[0])
    p2 = cut_face(q, set(gverts[1]).intersection(*gverts[2:]))
    assert p1.facet_count == 6 and len(p1.vertices) == 8
    assert p2.facet_count == 6 and len(p2.vertices) == 8
    assert comb_iso(p1, p2) is not None


@criterion(10, "rigidity demonstration for n = 3..6")
def test_rigidity():
    for n in range(3, 7):
        rep = rigidity_demo(n)
        assert carries_vertices(rep.facet_bijection, rep.first, rep.last), n
        assert rep.h_first == rep.h_last, n
        # equivalent polytopes, yet the two modifications change the Milnor number differently
        assert s_kn(n, 0) != s_kn(n, n - 2), n


@criterion(11, "property suites: Dehn-Sommerville, digit-wise binomials, ring axioms")
def test_property_suites():
    rng = random.Random(88)

    # 500 random truncation sequences keep the h-vector palindromic
    for _ in range(500):
        dims = rng.choice([[1, 1, 2], [2, 2], [3], [4], [1, 3], [1, 1, 1]])
        poly = simplex(dims[0])
        for d in dims[1:]:
            poly = product(poly, simplex(d))
        for _ in range(rng.randrange(3)):
            if rng.random() < 0.5:
                poly = cut_vertex(poly, rng.randrange(len(poly.vertices)))
            else:
                v = poly.vertices[rng.randrange(len(poly.vertices))]
                c = rng.randrange(2, poly.dim + 1)
                poly = cut_face(poly, frozenset(sorted(v)[:c]))
        hv = h_vector(poly)
        assert hv == hv[::-1]
        assert sum(hv) == len(poly.vertices)

    # 500 digit-wise binomial reductions against direct computation
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(500):
        n = rng.randrange(0, 220)
        m = rng.randrange(0, 220)
        p = rng.choice(primes)
        assert binomial_mod_p(n, m, p) == binomial(n, m) % p, (n, m, p)

    # 500 random truncated-polynomial triples satisfy the ring axioms
    def random_poly(bounds):
        terms = {}
        for _ in range(rng.randrange(5)):
            exps = tuple(rng.randrange(m + 2) for m in bounds)
            terms[exps] = rng.randrange(-9, 10)
        # the coefficient list over the box; terms outside it are 0
        box = itertools.product(*(range(m + 1) for m in bounds))
        return TruncatedPoly(bounds, [terms.get(e, 0) for e in box])

    bounds_pool = [(2, 2), (1, 1, 1), (3,), (1, 2)]
    for _ in range(500):
        bounds = rng.choice(bounds_pool)
        a, b, c = (random_poly(bounds) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        unit = TruncatedPoly.one(bounds)
        assert a * unit == a
        u = a + (1 - a.constant_term())
        assert u * poly_inverse(u) == 1
