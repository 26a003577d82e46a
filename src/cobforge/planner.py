"""Constructing modification plans that land on a generator's Milnor number.

For every n >= 3 the base projectivisation ``chern.adjustable_base_spec(n, a)``
has Milnor number (n+1)*a and each modification of type k changes it by
s_kn(n, k).  A plan takes the twist a and the modification counts from one
nonnegative solution of (n+1)*a + sum(c_k * s_kn(n, k)) = t, where t is 1,
or p when n+1 = p^e; among those it takes one whose polytope
(``polytope.apply_plan``) has the fewest vertices.  An independent
recomputation path and the Milnor-Novikov generator criterion validate the
result.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import chern, milnor
from .arith import _require_ints, prime_power_check
from .polytope import _step_vertex_count


@dataclass(frozen=True)
class GeneratorVerdict:
    """Outcome of the Milnor-Novikov criterion for a value s in dimension n.

    A class with top characteristic number s generates in degree 2n exactly
    when |s| is 1 (n+1 not a prime power) or p (n+1 = p^e).
    """

    is_generator: bool
    required: str


def milnor_novikov_check(n: int, s: int) -> GeneratorVerdict:
    """Decide whether Milnor number s qualifies as a generator in dimension n."""
    _require_ints((n, s), "n and s must be integers")
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    pp = prime_power_check(n + 1)
    if pp is None:
        return GeneratorVerdict(abs(s) == 1, "s = +-1 (n+1 is not a prime power)")
    p, e = pp
    return GeneratorVerdict(abs(s) == p, f"s = +-{p} (n+1 = {p}^{e})")


@dataclass(frozen=True)
class ModificationPlan:
    """The plan document's fields: base twist a plus counts per parameter k.

    ``counts[k]`` is the number of two-stage modifications with parameter k
    to apply; ``predicted_milnor`` must equal base_milnor plus the weighted
    sum of the per-modification changes (enforced by construct_plan and
    checked independently by verify_plan, so tampered plans are detectable
    rather than unconstructible).
    """

    n: int
    a: int
    base_milnor: int
    counts: tuple[int, ...]
    predicted_milnor: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        fields = (self.n, self.a, self.base_milnor, *self.counts, self.predicted_milnor)
        _require_ints(fields, "n, a, base_milnor, counts and predicted_milnor must be integers")
        if self.a < 1:
            raise ValueError("the base twist a must be >= 1")
        if self.n < 3:
            raise ValueError("dimension n must be >= 3")
        if len(self.counts) != self.n - 1:
            raise ValueError("counts must cover k = 0..n-2")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    @property
    def base(self) -> chern.ProjBundleSpec:
        """The base the counts modify, with Milnor number (n+1)*a."""
        return chern.adjustable_base_spec(self.n, self.a)


def construct_plan(n: int) -> ModificationPlan:
    """Plan with the fewest vertices reaching the generator value t in dimension n.

    The target is t = 1, or t = p when n+1 = p^e: the value
    ``milnor_novikov_check`` asks for.  With b_k = -s_kn(n, k) and
    m = n+1, a plan solves m*a - sum(c_k * b_k) = t, and the twist a >= 1 is
    free, so only sum(c_k * b_k) = -t mod m is constrained.  This is a
    Dijkstra over the m residues mod m from 0: a positive b_k steps by
    b_k mod m at cost (n-1) + (k+1)(n-k-1), the vertices one type-k
    modification adds to the polytope (``polytope.plan_vertex_count`` sums
    the same term).  Each nonzero step is one edge, the cheapest b_k with
    that step (the lowest k on a tie); a step of 0 is no edge.  It stops
    when it pops the goal residue -t mod m; the predecessor links give the
    counts, and a = (sum(c_k * b_k) + t)/m >= 1.  So the plan's polytope has
    the fewest vertices of any plan over positive b_k, and a may be large
    (up to 40 digits for n <= 100).  A prime n+1 needs no modification.

    Cost: O(m * K * log(m * K)) heap steps for the K distinct nonzero steps
    (K <= n - 1: at most one per k), after one walk of the row; every
    n <= 400 plans in well under 1 s.  Only n < 3 is refused.  A goal
    residue the positive b_k cannot reach raises
    ``ValueError``; it happens for no 3 <= n <= 400 (tested).
    """
    _require_ints((n,), "n must be an integer")
    if n < 3:
        raise ValueError("dimension n must be >= 3")
    m = n + 1
    pp = prime_power_check(m)
    t = 1 if pp is None else pp[0]
    goal = -t % m

    row = [-s for s in milnor.s_kn_row(n)]
    # one edge per nonzero step: the cheapest, the lowest k on a tie (step 0
    # is a self-loop that never relaxes)
    cheapest: dict[int, tuple[int, int]] = {}
    for k, b in enumerate(row):
        step = b % m
        if b > 0 and step:
            cost = _step_vertex_count(n, k)
            if step not in cheapest or cost < cheapest[step][0]:
                cheapest[step] = (cost, k)
    edges = [(step, cost, k) for step, (cost, k) in cheapest.items()]
    dist: list[int | None] = [None] * m
    pred: list[tuple[int, int] | None] = [None] * m
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
    else:
        raise ValueError(f"no plan reaches Milnor number {t} in dimension n = {n}")

    counts = [0] * (n - 1)
    r = goal
    while r:
        r, k = pred[r]
        counts[k] += 1

    reached = sum(c * b for c, b in zip(counts, row))
    a = (reached + t) // m
    return ModificationPlan(
        n=n,
        a=a,
        base_milnor=m * a,
        counts=tuple(counts),
        predicted_milnor=m * a - reached,
    )


def verify_plan(plan: ModificationPlan) -> bool:
    """Recompute the predicted Milnor number along an independent route.

    Each modification's change is reassembled here as -s_dkn(n, k) minus
    the point blow-up term, written out here rather than taken from
    ``milnor.s_kn_row`` as ``construct_plan`` does, so a slip in either
    path's sign or point term shows up as a mismatch.  Both paths read
    the same ``milnor.s_dkn_row``; the row itself is checked against the
    fiber-integration oracle and the term-by-term binomial sum in the tests.
    The claimed base Milnor number is checked against the fiber-integration
    oracle on the base bundle, so a plan document cannot claim a base, counts
    or prediction that disagree.
    """
    if plan.base_milnor != chern.milnor_projectivisation(plan.base):
        return False
    n = plan.n
    total = plan.base_milnor
    point_term = n + (1 if n % 2 == 0 else -1)
    for count, s in zip(plan.counts, milnor.s_dkn_row(n)):
        total += count * (-s - point_term)
    return total == plan.predicted_milnor
