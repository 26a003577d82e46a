import dataclasses
import heapq
import time
from math import gcd

import pytest

from cobforge import planner
from cobforge.arith import prime_power_check
from cobforge.chern import milnor_projectivisation
from cobforge.milnor import s_kn, s_kn_row
from cobforge.planner import (
    GeneratorVerdict,
    ModificationPlan,
    construct_plan,
    milnor_novikov_check,
    verify_plan,
)
from cobforge.polytope import _step_vertex_count, check_plan_size, plan_vertex_count


def test_milnor_novikov_pinned():
    assert milnor_novikov_check(14, 1).is_generator
    assert milnor_novikov_check(14, -1).is_generator
    assert milnor_novikov_check(4, 5).is_generator
    assert milnor_novikov_check(4, -5).is_generator
    assert not milnor_novikov_check(4, 1).is_generator
    assert not milnor_novikov_check(14, 5).is_generator
    assert not milnor_novikov_check(14, 0).is_generator


def test_milnor_novikov_required_branch():
    v = milnor_novikov_check(8, 3)
    assert isinstance(v, GeneratorVerdict)
    assert "3^2" in v.required and v.is_generator
    assert "not a prime power" in milnor_novikov_check(14, 1).required


def test_milnor_novikov_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        milnor_novikov_check(0, 1)


def target(n):
    """The generator value a plan aims at: 1, or p when n+1 = p^e."""
    pp = prime_power_check(n + 1)
    return 1 if pp is None else pp[0]


def positive_row(n):
    """(k, b_k) for every positive b_k = -s_kn(n, k): the planner's steps."""
    return [(k, -s) for k, s in enumerate(s_kn_row(n)) if s < 0]


@pytest.mark.parametrize("n", range(3, 101))
def test_construct_plan_reaches_one(n):
    # one, or p when n+1 = p^e: the value the generator criterion asks for
    # stated bound: construct + verify + generator check under 1 s for each n
    # (the slowest n <= 100 takes about 0.003 s on a 2-vCPU x86-64 host, Python 3.11)
    start = time.perf_counter()
    plan = construct_plan(n)
    verified = verify_plan(plan)
    verdict = milnor_novikov_check(n, plan.predicted_milnor)
    elapsed = time.perf_counter() - start
    assert verified
    assert verdict.is_generator
    assert elapsed < 1.0
    assert plan.predicted_milnor == target(n)
    assert plan.a >= 1
    assert plan.base_milnor == (n + 1) * plan.a
    assert len(plan.counts) == n - 1
    assert all(c >= 0 for c in plan.counts)
    assert sum(plan.counts) <= n // 2
    # the plan's own defining identity
    assert plan.predicted_milnor == plan.base_milnor + sum(
        c * s_kn(n, k) for k, c in enumerate(plan.counts)
    )
    # apply-plan takes it: at most 2,710 vertices (n = 92), under its 10,000 limit
    assert plan_vertex_count(n, plan.counts) <= 2710
    check_plan_size(plan)


def test_plan_sizes_pinned():
    assert sum(construct_plan(14).counts) == 2
    assert sum(construct_plan(20).counts) == 3


@pytest.mark.parametrize("n", range(3, 13))
def test_construct_plan_has_fewest_vertices(n):
    # brute force over every count vector on the positive b_k whose polytope
    # has at most as many vertices as the plan's: none that reaches the
    # generator value mod n+1 is smaller
    m, t = n + 1, target(n)
    steps = positive_row(n)
    best = plan_vertex_count(n, construct_plan(n).counts)

    def smallest(i, counts, residue):
        vertices = plan_vertex_count(n, counts)
        if vertices > best:
            return None
        found = vertices if (residue + t) % m == 0 else None
        for j in range(i, len(steps)):
            k, b = steps[j]
            counts[k] += 1
            deeper = smallest(j, counts, (residue + b) % m)
            counts[k] -= 1
            if deeper is not None and (found is None or deeper < found):
                found = deeper
        return found

    assert smallest(0, [0] * (n - 1), 0) == best


def test_positive_row_entries_and_n_plus_one_have_gcd_one():
    # construct_plan's Dijkstra from residue 0 reaches exactly the multiples
    # of g = gcd(n+1, positive b_k) mod n+1, so its goal -t is reachable iff
    # g divides t: g = 1 when n+1 is not a prime power, and g divides p when
    # n+1 = p^e (checked for every n in 3..400, plan's whole range)
    for n in range(3, 401):
        g = gcd(n + 1, *(b for _, b in positive_row(n)))
        assert target(n) % g == 0, n




def plan_on_every_positive_entry(n):
    """(counts, a, predicted_milnor) from the Dijkstra with one edge per positive b_k.

    Steps of 0 mod n+1 and dearer edges of a shared step are edges here too;
    ``construct_plan`` leaves them out and must give the same plan, which
    pins its tie rule (the cheapest edge of a step, then the lowest k).
    """
    m = n + 1
    t = target(n)
    goal = -t % m
    row = [-s for s in s_kn_row(n)]
    edges = [(b % m, _step_vertex_count(n, k), k) for k, b in enumerate(row) if b > 0]
    dist = [None] * m
    pred = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if r == goal:
            break
        if d > dist[r]:
            continue
        for step, cost, k in edges:
            s, nd = (r + step) % m, d + cost
            if dist[s] is None or nd < dist[s]:
                dist[s], pred[s] = nd, (r, k)
                heapq.heappush(heap, (nd, s))
    counts = [0] * (n - 1)
    r = goal
    while r:
        r, k = pred[r]
        counts[k] += 1
    reached = sum(c * b for c, b in zip(counts, row))
    a = (reached + t) // m
    return tuple(counts), a, m * a - reached


def test_construct_plan_matches_every_positive_entry_dijkstra():
    for n in range(3, 401):
        plan = construct_plan(n)
        assert (plan.counts, plan.a, plan.predicted_milnor) == plan_on_every_positive_entry(n), n


def patched_row(monkeypatch, n, entries):
    """Make s_kn_row(n) give b_k = entries[k] (b_k = -s_kn) and b = -1 elsewhere."""
    row = [-entries.get(k, -1) for k in range(n - 1)]
    monkeypatch.setattr(planner.milnor, "s_kn_row", lambda _: iter(row))


def test_construct_plan_keeps_the_cheaper_edge_of_a_step(monkeypatch):
    # n = 14: b_1 = 14 and b_12 = 29 both step 14 = goal; k = 12 adds
    # 13 + 13 * 1 = 26 vertices, k = 1 adds 13 + 2 * 12 = 37
    assert _step_vertex_count(14, 12) < _step_vertex_count(14, 1)
    patched_row(monkeypatch, 14, {1: 14, 12: 29})
    plan = construct_plan(14)
    assert plan.counts == (0,) * 12 + (1,)
    assert (plan.a, plan.predicted_milnor) == (2, 1)


def test_construct_plan_keeps_the_lower_k_on_a_tie(monkeypatch):
    # k = 0 and k = 12 each add 26 vertices at n = 14, and both step 14
    assert _step_vertex_count(14, 0) == _step_vertex_count(14, 12)
    patched_row(monkeypatch, 14, {0: 14, 12: 29})
    plan = construct_plan(14)
    assert plan.counts == (1,) + (0,) * 12
    assert (plan.a, plan.predicted_milnor) == (1, 1)


def test_construct_plan_unreachable_goal_names_n(monkeypatch):
    # no step leaves residue 0, and the goal -1 mod 15 is not 0: first no
    # positive b_k, then positive b_k that are all multiples of 15 (step 0)
    for entries in ({}, {0: 15, 5: 30, 12: 45}):
        patched_row(monkeypatch, 14, entries)
        with pytest.raises(ValueError, match="n = 14"):
            construct_plan(14)


def test_construct_plan_base_matches_oracle():
    plan = construct_plan(14)
    assert milnor_projectivisation(plan.base) == plan.base_milnor


def test_construct_plan_deterministic():
    assert construct_plan(14) == construct_plan(14)


def test_construct_plan_rejects_bad_dimensions():
    # every n >= 3 plans; only n < 3 and non-int n are refused
    for n in (2, 0, -1):
        with pytest.raises(ValueError, match=">= 3"):
            construct_plan(n)
    for n in (14.0, True, "14"):
        with pytest.raises(ValueError, match="integer"):
            construct_plan(n)


def test_verify_plan_zero_counts():
    n = 14
    plan = ModificationPlan(
        n=n,
        a=1,
        base_milnor=n + 1,
        counts=(0,) * (n - 1),
        predicted_milnor=n + 1,
    )
    assert verify_plan(plan)


def test_verify_plan_detects_tampering():
    for n in (14, 20, 44):
        plan = construct_plan(n)
        assert verify_plan(plan), n
        # one more modification of any type k, with the prediction unchanged
        for k in range(n - 1):
            bumped = list(plan.counts)
            bumped[k] += 1
            tampered = dataclasses.replace(plan, counts=tuple(bumped))
            assert not verify_plan(tampered), (n, k)
        wrong_total = dataclasses.replace(plan, predicted_milnor=2)
        assert not verify_plan(wrong_total), n
        # the sum identity still holds; only the oracle on the base can object
        shifted = dataclasses.replace(
            plan,
            base_milnor=plan.base_milnor + 1000,
            predicted_milnor=plan.predicted_milnor + 1000,
        )
        assert not verify_plan(shifted), n


def test_plan_shape_validation():
    with pytest.raises(ValueError):
        ModificationPlan(14, 1, 15, (0,) * 5, 15)
    with pytest.raises(ValueError):
        ModificationPlan(14, 1, 15, (-1,) + (0,) * 12, 15)


@pytest.mark.parametrize(
    "n, counts, base_milnor, predicted_milnor",
    [
        (4, (0.9, 0, 0), 5, 5),  # int() makes this (0, 0, 0), which verify_plan accepts
        (4, (True, 0, 0), 5, 5),  # int() makes this (1, 0, 0)
        (4.0, (0, 0, 0), 5, 5),
        (4, (0, 0, 0), 5.0, 5),  # equal to 5, so verify_plan would accept it
        (4, (0, 0, 0), True, 5),
        (4, (0, 0, 0), 5, 5.0),
        (4, (0, 0, 0), 5, True),
    ],
)
def test_plan_rejects_non_integer_fields(n, counts, base_milnor, predicted_milnor):
    with pytest.raises(ValueError, match="integers"):
        ModificationPlan(n, 1, base_milnor, counts, predicted_milnor)


# the base adjustable_base_spec(n, a) needs a >= 1 and n >= 3
@pytest.mark.parametrize("n, a", [(4, 0), (4, True), (4, 1.0), (2, 1)])
def test_plan_rejects_fields_without_a_base(n, a):
    with pytest.raises(ValueError):
        ModificationPlan(n, a, 5, (0,) * (n - 1), 5)
