import dataclasses
import time
from math import gcd

import pytest

from cobforge.arith import prime_power_check
from cobforge.chern import milnor_projectivisation
from cobforge.milnor import s_kn
from cobforge.planner import (
    GeneratorVerdict,
    ModificationPlan,
    construct_plan,
    milnor_novikov_check,
    verify_plan,
)


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


# Every even n <= 100 with n+1 not a prime power: the range the witness gate covers.
ADMISSIBLE = [n for n in range(2, 101, 2) if prime_power_check(n + 1) is None]


@pytest.mark.parametrize("n", ADMISSIBLE)
def test_construct_plan_reaches_one(n):
    # stated bound: construct + verify + generator check under 1 s for each n
    # (the slowest, n = 98, takes about 0.003 s on a 2-vCPU x86-64 host, Python 3.11)
    start = time.perf_counter()
    plan = construct_plan(n)
    verified = verify_plan(plan)
    verdict = milnor_novikov_check(n, plan.predicted_milnor)
    elapsed = time.perf_counter() - start
    assert verified
    assert verdict.is_generator
    assert elapsed < 1.0
    assert plan.predicted_milnor == 1
    assert plan.a >= 1
    assert plan.base_milnor == (n + 1) * plan.a
    assert len(plan.counts) == n - 1
    assert all(c >= 0 for c in plan.counts)
    assert sum(plan.counts) <= n // 2
    # the plan's own defining identity
    assert plan.predicted_milnor == plan.base_milnor + sum(
        c * s_kn(n, k) for k, c in enumerate(plan.counts)
    )


def test_plan_sizes_pinned():
    assert sum(construct_plan(14).counts) == 4
    assert sum(construct_plan(20).counts) == 4


def test_positive_row_entries_and_n_plus_one_have_gcd_one():
    # construct_plan solves over the positive entries of -s_kn plus -(n+1):
    # represent needs that basis to have gcd 1 (checked to hold up to n = 400).
    for n in ADMISSIBLE:
        positive = [-s_kn(n, k) for k in range(n - 1) if -s_kn(n, k) > 0]
        assert gcd(n + 1, *positive) == 1, n


def test_construct_plan_base_matches_oracle():
    plan = construct_plan(14)
    assert milnor_projectivisation(plan.base) == plan.base_milnor


def test_construct_plan_deterministic():
    assert construct_plan(14) == construct_plan(14)


def test_construct_plan_rejects_bad_dimensions():
    with pytest.raises(ValueError, match="prime power"):
        construct_plan(4)
    with pytest.raises(ValueError, match="prime power"):
        construct_plan(16)
    with pytest.raises(ValueError, match="even"):
        construct_plan(13)


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
    plan = construct_plan(14)
    bumped = list(plan.counts)
    bumped[3] += 1
    tampered = dataclasses.replace(plan, counts=tuple(bumped))
    assert not verify_plan(tampered)
    wrong_total = dataclasses.replace(plan, predicted_milnor=2)
    assert not verify_plan(wrong_total)
    # the sum identity still holds; only the oracle on the base can object
    shifted = dataclasses.replace(
        plan,
        base_milnor=plan.base_milnor + 1000,
        predicted_milnor=plan.predicted_milnor + 1000,
    )
    assert not verify_plan(shifted)


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
