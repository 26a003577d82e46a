"""Constructing modification plans that land on Milnor number 1.

For even n with n+1 not a prime power, the s_kn row has gcd 1, so the
difference between the Milnor number of a suitable base projectivisation and
the target value 1 decomposes as a nonnegative combination of the negated
row.  The plan records how many modifications of each kind to apply; an
independent recomputation path and the Milnor-Novikov generator criterion
validate the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import chern, frobenius, milnor
from .arith import prime_power_check


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
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    pp = prime_power_check(n + 1)
    if pp is None:
        return GeneratorVerdict(n, s, abs(s) == 1, "s = +-1 (n+1 is not a prime power)")
    p, e = pp
    return GeneratorVerdict(n, s, abs(s) == p, f"s = +-{p} (n+1 = {p}^{e})")


@dataclass(frozen=True)
class ModificationPlan:
    """A base projectivisation plus modification counts per parameter k.

    ``counts[k]`` is the number of two-stage modifications with parameter k
    to apply; ``predicted_milnor`` must equal base_milnor plus the weighted
    sum of the per-modification changes (enforced by construct_plan and
    checked independently by verify_plan, so tampered plans are detectable
    rather than unconstructible).
    """

    n: int
    base: chern.ProjBundleSpec
    base_milnor: int
    counts: tuple[int, ...]
    predicted_milnor: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if type(self.n) is not int or not all(type(c) is int for c in self.counts):
            raise ValueError("n and every count must be integers")
        if self.n < 2:
            raise ValueError("dimension n must be >= 2")
        if len(self.counts) != self.n - 1:
            raise ValueError("counts must cover k = 0..n-2")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    @property
    def a(self) -> int:
        """Twist parameter of the base bundle; base_milnor = (n+1)*a."""
        return self.base_milnor // (self.n + 1)


def construct_plan(n: int) -> ModificationPlan:
    """Plan reaching Milnor number 1 in even dimension n, n+1 not a prime power.

    The solver basis is the negated s_kn row reordered so that the positive
    entry -s_kn(n, 1) = n+1 comes first.  The base twist is a = 1, so the
    target is (n+1)*a - 1 = n.  The row has gcd 1 and, for every admissible
    even n <= 100 (checked in the tests), a negative entry, so
    ``frobenius.represent`` decomposes any target and no larger twist is
    needed.  Plans exist, verify and pass the generator criterion for every
    admissible even n <= 100; the tests bound each such n to under 1 s.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    if prime_power_check(n + 1) is not None:
        raise ValueError(f"n+1 = {n + 1} is a prime power")
    _, holds = milnor.coprimality_check(n)
    if not holds:
        raise ValueError("s_kn row gcd is not 1")

    ks = [1, 0] + list(range(2, n - 1))
    basis = [-milnor.s_kn(n, k) for k in ks]
    rep = frobenius.represent(n, basis)

    counts = [0] * (n - 1)
    for pos, k in enumerate(ks):
        counts[k] = rep.coefficients[pos]

    base = chern.adjustable_base_spec(n, 1)
    base_milnor = n + 1
    predicted = base_milnor + sum(c * milnor.s_kn(n, k) for k, c in enumerate(counts))
    return ModificationPlan(
        n=n,
        base=base,
        base_milnor=base_milnor,
        counts=tuple(counts),
        predicted_milnor=predicted,
    )


def verify_plan(plan: ModificationPlan) -> bool:
    """Recompute the predicted Milnor number along an independent route.

    Each modification's change is reassembled here as the second-stage
    correction -s_dkn(n, k) plus the point blow-up term, without going
    through s_kn, so a transcription error in either path shows up as a
    mismatch.  The claimed base Milnor number is checked against the
    fiber-integration oracle on the base bundle.
    """
    if plan.base_milnor != chern.milnor_projectivisation(plan.base):
        return False
    n = plan.n
    total = plan.base_milnor
    point_term = n + (1 if n % 2 == 0 else -1)
    for k, count in enumerate(plan.counts):
        total += count * (-milnor.s_dkn(n, k) - point_term)
    return total == plan.predicted_milnor
