"""Truncated polynomial cohomology rings and fiber integration.

The cohomology of CP^(m_1) x ... x CP^(m_r) is the integer polynomial ring in
x_1..x_r modulo (x_1^(m_1+1), ..., x_r^(m_r+1)).  For a projectivised split
sum of line bundles over such a base, pairing a class against the fundamental
class reduces to multiplying by the total Segre class (the inverse of the
total Chern class of the bundle) and reading off the top coefficient on the
base.  ``milnor_projectivisation`` uses this to evaluate the Milnor number,
the power sum of Chern roots in top degree, exactly; it is the independent
cross-check for every closed form in :mod:`cobforge.milnor`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

Monomial = tuple[int, ...]


class TruncatedPoly:
    """Integer polynomial in x_1..x_r modulo (x_1^(m_1+1), ..., x_r^(m_r+1)).

    Sparse exponent-tuple representation: ``coeffs`` maps exponent tuples to
    nonzero integers.  Monomials exceeding any per-variable bound are
    identically zero and never stored, so equality is plain map equality.
    Instances are treated as immutable.
    """

    __slots__ = ("bounds", "coeffs")

    def __init__(self, bounds: Iterable[int], coeffs: Mapping[Monomial, int] | None = None):
        self.bounds: tuple[int, ...] = tuple(int(m) for m in bounds)
        if any(m < 0 for m in self.bounds):
            raise ValueError("variable bounds must be nonnegative")
        clean: dict[Monomial, int] = {}
        for exps, c in (coeffs or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.bounds):
                raise ValueError("exponent tuple does not match variable count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if c and all(e <= m for e, m in zip(exps, self.bounds)):
                clean[exps] = int(c)
        self.coeffs = clean

    @classmethod
    def constant(cls, bounds: Iterable[int], c: int) -> "TruncatedPoly":
        bounds = tuple(bounds)
        return cls(bounds, {(0,) * len(bounds): c})

    @classmethod
    def one(cls, bounds: Iterable[int]) -> "TruncatedPoly":
        return cls.constant(bounds, 1)

    @classmethod
    def variable(cls, bounds: Iterable[int], index: int) -> "TruncatedPoly":
        bounds = tuple(bounds)
        exps = tuple(1 if i == index else 0 for i in range(len(bounds)))
        return cls(bounds, {exps: 1})

    @classmethod
    def linear_form(cls, bounds: Iterable[int], degrees: Iterable[int]) -> "TruncatedPoly":
        """Sum of degrees[i] * x_i."""
        bounds = tuple(bounds)
        degrees = tuple(degrees)
        if len(degrees) != len(bounds):
            raise ValueError("degree tuple does not match variable count")
        terms = {}
        for i, d in enumerate(degrees):
            if d:
                terms[tuple(1 if j == i else 0 for j in range(len(bounds)))] = d
        return cls(bounds, terms)

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> int:
        return self.coeffs.get((0,) * len(self.bounds), 0)

    def _coerce(self, other) -> "TruncatedPoly":
        if isinstance(other, TruncatedPoly):
            if other.bounds != self.bounds:
                raise ValueError("mismatched variable bounds")
            return other
        if isinstance(other, int):
            return TruncatedPoly.constant(self.bounds, other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = TruncatedPoly.constant(self.bounds, other)
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self.bounds == other.bounds and self.coeffs == other.coeffs

    def __add__(self, other) -> "TruncatedPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            merged[exps] = merged.get(exps, 0) + c
        return TruncatedPoly(self.bounds, merged)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedPoly":
        return TruncatedPoly(self.bounds, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "TruncatedPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedPoly":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        bounds = self.bounds
        prod: dict[Monomial, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                if any(e > m for e, m in zip(exps, bounds)):
                    continue
                prod[exps] = prod.get(exps, 0) + c1 * c2
        return TruncatedPoly(bounds, prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = TruncatedPoly.one(self.bounds)
        for _ in range(exponent):
            result = result * self
            if result.is_zero():
                break
        return result

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"TruncatedPoly({self.bounds}, 0)"
        parts = []
        for exps in sorted(self.coeffs):
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e) or "1"
            parts.append(f"{self.coeffs[exps]}*{mono}")
        return f"TruncatedPoly({self.bounds}, {' + '.join(parts)})"


def poly_inverse(a: TruncatedPoly) -> TruncatedPoly:
    """Multiplicative inverse of a unit (constant term +1 or -1).

    Writing a = c0*(1 + q) with q nilpotent, the inverse is the truncated
    geometric series c0 * sum((-q)^i); the series stops at the total degree
    cap, which solves the coefficients degree by degree.
    """
    c0 = a.constant_term()
    if c0 not in (1, -1):
        raise ValueError("inverse requires constant term +1 or -1")
    q = a * c0 - 1
    acc = TruncatedPoly.one(a.bounds)
    term = TruncatedPoly.one(a.bounds)
    for _ in range(sum(a.bounds)):
        term = term * q * (-1)
        if term.is_zero():
            break
        acc = acc + term
    return acc * c0


@dataclass(frozen=True)
class ProjBundleSpec:
    """A split sum of line bundles over a product of projective spaces.

    ``base_dims`` lists the dimensions of the projective-space factors of the
    base; each entry of ``summands`` is the multidegree (d_1, ..., d_r) of a
    line-bundle summand, with first Chern class sum(d_i * x_i).  When
    ``conjugated_trivial`` is set, the projectivisation carries one extra
    trivial summand whose fiberwise tautological line enters the stable
    tangent bundle with the conjugate orientation: its Chern root is -v
    instead of v, while its contribution to the total Chern class of the
    bundle is the trivial factor 1.
    """

    base_dims: tuple[int, ...]
    summands: tuple[tuple[int, ...], ...]
    conjugated_trivial: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_dims", tuple(int(m) for m in self.base_dims))
        object.__setattr__(
            self, "summands", tuple(tuple(int(d) for d in s) for s in self.summands)
        )
        if any(m < 0 for m in self.base_dims):
            raise ValueError("base dimensions must be nonnegative")
        if any(len(s) != len(self.base_dims) for s in self.summands):
            raise ValueError("summand degree tuples must match the base factor count")
        if self.fiber_dim < 1:
            raise ValueError("projectivisation needs fiber dimension >= 1")

    @property
    def rank(self) -> int:
        return len(self.summands) + (1 if self.conjugated_trivial else 0)

    @property
    def fiber_dim(self) -> int:
        return self.rank - 1

    @property
    def total_dim(self) -> int:
        return sum(self.base_dims) + self.fiber_dim


def dkn_spec(n: int, k: int) -> ProjBundleSpec:
    """The twisted projectivisation measuring a two-stage blow-up in dimension n.

    P(O(-1) + O(1)^(n-k-1) + conjugate-trivial) over CP^k: the fiber of the
    second blow-up, along a k-dimensional projective subspace of the
    exceptional divisor of a point blow-up.
    """
    if n < 2 or not 0 <= k <= n - 2:
        raise ValueError("need n >= 2 and 0 <= k <= n-2")
    summands = ((-1,),) + ((1,),) * (n - k - 1)
    return ProjBundleSpec(base_dims=(k,), summands=summands, conjugated_trivial=True)


def adjustable_base_spec(n: int, a: int) -> ProjBundleSpec:
    """P(O(-1,0) + O(0,a) + trivial^(n-3)) over CP^1 x CP^1.

    An n-dimensional projectivisation whose Milnor number is (n+1)*a, so the
    parameter a makes the Milnor number as large as needed.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if a < 1:
        raise ValueError("twist parameter a must be positive")
    summands = ((-1, 0), (0, a)) + ((0, 0),) * (n - 3)
    return ProjBundleSpec(base_dims=(1, 1), summands=summands, conjugated_trivial=False)


def total_chern(spec: ProjBundleSpec) -> TruncatedPoly:
    """Total Chern class of the split bundle, a product of linear factors.

    A conjugated trivial summand is an honest trivial line bundle here, so it
    contributes the factor 1.
    """
    bounds = spec.base_dims
    c = TruncatedPoly.one(bounds)
    for degrees in spec.summands:
        c = c * (1 + TruncatedPoly.linear_form(bounds, degrees))
    return c


def integrate_top(omega: TruncatedPoly) -> int:
    """Coefficient of the top monomial x_1^(m_1) * ... * x_r^(m_r)."""
    return omega.coeffs.get(omega.bounds, 0)


def fiber_integral(omega: TruncatedPoly, spec: ProjBundleSpec) -> int:
    """Pair sum_d omega_d * v^(N-d) against the fundamental class of P(E).

    N is the total dimension, B the base dimension and omega_d the degree-d
    part of omega.  Pushing v^(N-d) forward to the base gives the
    degree-(B-d) part of the total Segre class, so the pairing is the top
    coefficient of omega times the inverse total Chern class.  This holds
    for every omega: parts of degree above B vanish on the base.
    """
    if omega.bounds != spec.base_dims:
        raise ValueError("omega must live on the base ring of the bundle")
    return integrate_top(omega * poly_inverse(total_chern(spec)))


def milnor_projectivisation(spec: ProjBundleSpec) -> int:
    """Milnor number of the projectivisation described by ``spec``.

    The Chern roots of the stable tangent bundle are sum(d_i x_i) + v for
    each summand, -v for the conjugated trivial summand, and the roots of the
    base tangent bundle.  Since (root + v)^N = sum_i C(N, i) root^i v^(N-i)
    is the v-weighting ``fiber_integral`` gives to (1 + root)^N, the power
    sum is one pairing of P = sum (1 + root)^N, plus (-1)^N for the
    conjugated trivial summand; equal summands are grouped by multiplicity.
    The base roots are x_i with multiplicity m_i + 1, so their N-th powers
    vanish exactly when N exceeds every base dimension, which is required
    here.
    """
    n = spec.total_dim
    if n < 2:
        raise ValueError("total dimension must be >= 2")
    if spec.base_dims and n <= max(spec.base_dims):
        raise ValueError(
            "base tangent contribution not implemented: need n > every base dimension"
        )
    bounds = spec.base_dims
    pairing = TruncatedPoly.constant(bounds, (-1) ** n if spec.conjugated_trivial else 0)
    for degrees, mult in Counter(spec.summands).items():
        pairing = pairing + mult * (1 + TruncatedPoly.linear_form(bounds, degrees)) ** n
    return fiber_integral(pairing, spec)
