"""Constructing modification plans that land on Milnor number 1.

For even n with n+1 not a prime power, the base projectivisation
``chern.adjustable_base_spec(n, a)`` has Milnor number (n+1)*a and each
modification of type k changes it by s_kn(n, k).  The plan takes the twist a
and the modification counts from one nonnegative solution of
(n+1)*a + sum(c_k * s_kn(n, k)) = 1.  An independent recomputation path and
the Milnor-Novikov generator criterion validate the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import chern, frobenius, milnor
from .arith import _require_ints, prime_power_check


@dataclass(frozen=True)
class GeneratorVerdict:
    """Outcome of the Milnor-Novikov criterion for a value s in dimension n.

    A class with top characteristic number s generates in degree 2n exactly
    when |s| is 1 (n+1 not a prime power) or p (n+1 = p^e).
    """

    n: int
    s: int
    is_generator: bool
    required: str


def milnor_novikov_check(n: int, s: int) -> GeneratorVerdict:
    """Decide whether Milnor number s qualifies as a generator in dimension n."""
    _require_ints((n, s), "n and s must be integers")
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    pp = prime_power_check(n + 1)
    if pp is None:
        return GeneratorVerdict(n, s, abs(s) == 1, "s = +-1 (n+1 is not a prime power)")
    p, e = pp
    return GeneratorVerdict(n, s, abs(s) == p, f"s = +-{p} (n+1 = {p}^{e})")


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
    """Plan reaching Milnor number 1 in even dimension n, n+1 not a prime power.

    With b_k = -s_kn(n, k), the plan solves (n+1)*a - sum(c_k * b_k) = 1 for
    the base twist a and the counts c_k together: ``frobenius.represent``
    writes -1 over the positive b_k plus -(n+1), and that last coefficient
    is a.  For every admissible even n <= 100, -(n+1) is the smallest
    |entry|, so the lift has period 1 and no sign trade reaches the counts:
    c is a shortest path of the Apery distance d, the smallest combination
    of positive b_k congruent to -1 mod n+1, and a = (d+1)/(n+1).  Plans
    exist, verify and pass the generator criterion for every such n, with at
    most n/2 modifications; the tests bound each such n to under 1 s.

    The prime-power refusal is the only gcd check here, and the row is
    walked once.  The whole row's gcd divides s_kn(n, 1) = -(n+1), and
    ``milnor.witness_k`` shows that no prime factor of n+1 divides the whole
    row, so that gcd is 1.  The gcd the solver needs, over the positive b_k
    and n+1 (1 for every admissible even n <= 100 in the tests), is checked
    by ``frobenius.represent`` on its own basis.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    if prime_power_check(n + 1) is not None:
        raise ValueError(f"n+1 = {n + 1} is a prime power")

    row = [-s for s in milnor.s_kn_row(n)]
    ks = [k for k, b in enumerate(row) if b > 0]
    rep = frobenius.represent(-1, [row[k] for k in ks] + [-(n + 1)])
    *used, a = rep.coefficients

    counts = [0] * (n - 1)
    for k, c in zip(ks, used):
        counts[k] = c

    base_milnor = (n + 1) * a
    predicted = base_milnor - sum(c * b for c, b in zip(counts, row))
    return ModificationPlan(
        n=n,
        a=a,
        base_milnor=base_milnor,
        counts=tuple(counts),
        predicted_milnor=predicted,
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
