"""Truncated polynomial cohomology rings and fiber integration.

The cohomology of CP^(m_1) x ... x CP^(m_r) is the integer polynomial ring in
x_1..x_r modulo (x_1^(m_1+1), ..., x_r^(m_r+1)).  ``TruncatedPoly`` stores an
element densely, as its coefficient list over the exponent box.  For a
projectivised split sum of line bundles over such a base, pairing a class
against the fundamental class reduces to multiplying by the total Segre class
(the inverse of the total Chern class of the bundle) and reading off the top
coefficient on the base.  ``milnor_projectivisation`` uses this to evaluate
the Milnor number, the power sum of Chern roots in top degree, exactly; it is
the independent cross-check for every closed form in :mod:`cobforge.milnor`.
For a split bundle the Segre class is the product of per-summand inverses
(1 + d.x)^(-m), which the kernel ``_linear_power`` gives directly from a
negative exponent, so the oracle never forms or inverts the total Chern
class; ``total_chern`` and ``poly_inverse`` are the check route for it.
The oracle pairs on the kernel's dense lists.  A summand group of degree 0
contributes the factor 1 and is left out, so with at most two groups of
nonzero degree (both builders) every top coefficient is one dot product;
only a top of more than two factors reaches ``TruncatedPoly.__mul__``.  The
class keeps only that, the check route's algebra and what the benchmark reads.

Each check runs once, where input arrives: the public entry points
(``TruncatedPoly``'s constructors and ``linear_power``, ``ProjBundleSpec``,
``dkn_spec``, ``adjustable_base_spec``) check their arguments, and the
private kernel ``_linear_power`` runs on checked data, so the oracle route
makes no integer check on a spec that was checked when it was built.  The
two builders check their two integers and build through
``ProjBundleSpec._of``, which does not re-check the tuples made from them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import add, le, mul
from typing import Iterable, Sequence

from .arith import _require_ints

Monomial = tuple[int, ...]


def _box(bounds: tuple[int, ...]) -> Iterable[Monomial]:
    """Every exponent tuple e <= bounds, in row-major order."""
    return itertools.product(*(range(m + 1) for m in bounds))


def _product(bounds: tuple[int, ...], x: list[int], y: list[int]) -> list[int]:
    """The row-major list of x * y in the box ``bounds``, block by block.

    Block i of a list holds its terms in x_1^i, a list on ``bounds[1:]``.
    Block i of x times block j of y lands in block i + j, and is dropped
    once i + j > m_1; each block product is the same rule on the remaining
    variables, down to one variable (a truncated convolution) or none.
    """
    if not bounds:
        return [x[0] * y[0]]
    m, rest = bounds[0], bounds[1:]
    if not rest:
        return [sum(map(mul, x[: j + 1], y[j::-1])) for j in range(m + 1)]
    size = len(x) // (m + 1)
    out = [0] * len(x)
    for i in range(m + 1):
        for j in range(m + 1 - i):
            block = _product(rest, x[i * size : (i + 1) * size], y[j * size : (j + 1) * size])
            k = (i + j) * size
            out[k : k + size] = map(add, out[k : k + size], block)
    return out


def _checked_bounds(bounds: Iterable[int]) -> tuple[int, ...]:
    """``bounds`` as a tuple; ``ValueError`` unless each is an ``int`` >= 0."""
    bounds = tuple(bounds)
    _require_ints(bounds, "variable bounds must be integers")
    if any(m < 0 for m in bounds):
        raise ValueError("variable bounds must be nonnegative")
    return bounds


def _linear_power(bounds: tuple[int, ...], degrees: tuple[int, ...], exponent: int) -> list[int]:
    """The dense list of (1 + sum(degrees[i] * x_i)) ** exponent on checked data.

    The coefficient of x^e is C(N, |e|) * |e|!/prod(e_i!) * prod(d_i^(e_i))
    for N = exponent, with C(N, s) = N(N-1)...(N-s+1)/s!.  For N >= 0 it is
    0 once |e| > N; for N < 0 the list is (1 + sum(d_i x_i))^(-N)'s inverse
    in the truncated ring, since the binomial series multiplies like powers.
    Along the last variable each entry comes from the one before it, c(e) =
    c(e - u_r) * (N - |e| + 1) * d_r / e_r, an exact division (C(N, s) is an
    integer for every integer N); the first entry of each row comes the same
    way from e - u_j, j the last variable with e_j > 0, which row-major
    order visits earlier.  That is O(L * r) big-integer steps for L
    coefficients and r variables, where a product of two lists takes up to
    O(L^2) multiply-adds and an inverse O(L * T), T the nonzero terms.
    """
    dense = [1] + [0] * (math.prod(m + 1 for m in bounds) - 1)
    if not bounds:
        return dense
    width = bounds[-1] + 1
    for row, prefix in enumerate(_box(bounds[:-1])):
        i, s = row * width, sum(prefix)
        if row:
            # j steps left past the zero exponents, its stride growing with it
            j, stride = len(prefix) - 1, width
            while not prefix[j]:
                stride *= bounds[j] + 1
                j -= 1
            dense[i] = dense[i - stride] * (exponent - s + 1) * degrees[j] // prefix[j]
        c = dense[i]
        for t in range(1, width):
            c = c * (exponent - s - t + 1) * degrees[-1] // t
            dense[i + t] = c
    return dense


class TruncatedPoly:
    """Integer polynomial in x_1..x_r modulo (x_1^(m_1+1), ..., x_r^(m_r+1)).

    Dense representation: ``dense`` lists the coefficient of every monomial
    of the exponent box, prod(m_i + 1) entries in row-major order (the last
    variable varies fastest), so equality is list equality.  Instances are
    treated as immutable.  The oracle multiplies with ``__mul__`` (tops of
    more than two factors) and the check route adds and multiplies;
    ``coeffs`` and ``__rmul__`` stay for the benchmark's tracer, which
    patches ``__rmul__`` by name and reads ``coeffs`` to count each traced
    product's term pairs.
    """

    __slots__ = ("bounds", "dense")

    def __init__(self, bounds: Iterable[int], dense: Iterable[int]):
        """``ValueError`` unless the bounds are ints >= 0 and ``dense`` has one
        int per monomial of the box, in row-major order."""
        self.bounds: tuple[int, ...] = _checked_bounds(bounds)
        self.dense = list(dense)
        _require_ints(self.dense, "coefficients must be integers")
        if len(self.dense) != math.prod(m + 1 for m in self.bounds):
            raise ValueError("coefficient list does not match the box size")

    @classmethod
    def _of(cls, bounds: tuple[int, ...], dense: list[int]) -> "TruncatedPoly":
        p = cls.__new__(cls)
        p.bounds = bounds
        p.dense = dense
        return p

    @classmethod
    def constant(cls, bounds: Iterable[int], c: int) -> "TruncatedPoly":
        bounds = _checked_bounds(bounds)
        _require_ints((c,), "coefficients must be integers")
        return cls._of(bounds, [c] + [0] * (math.prod(m + 1 for m in bounds) - 1))

    @classmethod
    def one(cls, bounds: Iterable[int]) -> "TruncatedPoly":
        return cls.constant(bounds, 1)

    @classmethod
    def linear_power(
        cls, bounds: Iterable[int], degrees: Iterable[int], exponent: int
    ) -> "TruncatedPoly":
        """(1 + sum(degrees[i] * x_i)) ** exponent, by the multinomial theorem.

        Checks the bounds, the degrees and the exponent, then runs the kernel
        ``_linear_power`` on them.
        """
        bounds = _checked_bounds(bounds)
        degrees = tuple(degrees)
        _require_ints(degrees, "degrees must be integers")
        if len(degrees) != len(bounds):
            raise ValueError("degree tuple does not match variable count")
        _require_ints((exponent,), "exponent must be a nonnegative integer")
        if exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return cls._of(bounds, _linear_power(bounds, degrees, exponent))

    @property
    def coeffs(self) -> dict[Monomial, int]:
        """The nonzero terms, exponent tuple -> coefficient."""
        return {e: c for e, c in zip(_box(self.bounds), self.dense) if c}

    def constant_term(self) -> int:
        return self.dense[0]

    def _coerce(self, other) -> "TruncatedPoly":
        if isinstance(other, TruncatedPoly):
            if other.bounds != self.bounds:
                raise ValueError("mismatched variable bounds")
            return other
        if isinstance(other, int):
            return TruncatedPoly.constant(self.bounds, int(other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = TruncatedPoly.constant(self.bounds, int(other))
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self.bounds == other.bounds and self.dense == other.dense

    def __add__(self, other) -> "TruncatedPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedPoly._of(self.bounds, list(map(add, self.dense, other.dense)))

    __radd__ = __add__

    def __mul__(self, other) -> "TruncatedPoly":
        """Truncated product (``_product``); an integer factor scales every coefficient."""
        if isinstance(other, int):
            return TruncatedPoly._of(self.bounds, [c * other for c in self.dense])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedPoly._of(self.bounds, _product(self.bounds, self.dense, other.dense))

    __rmul__ = __mul__


def poly_inverse(a: TruncatedPoly) -> TruncatedPoly:
    """Multiplicative inverse of a unit (constant term c0 = +1 or -1).

    One pass that solves a * b = 1 term by term: b_0 = c0 and
    b_e = -c0 * sum_(0 < f <= e) a_f * b_(e-f), over the nonzero a_f.  The
    terms are visited in row-major order, which reaches e only after every
    f < e, and the row-major index is linear in the exponent, so b_(e-f)
    sits at index idx(e) - idx(f).  The cost is O(L * T) multiply-adds for
    L = prod(m_i + 1) coefficients and T nonzero terms of a, independent of
    ``__mul__``.
    """
    c0 = a.constant_term()
    if c0 not in (1, -1):
        raise ValueError("inverse requires constant term +1 or -1")
    terms = [(j, f, c) for j, (f, c) in enumerate(zip(_box(a.bounds), a.dense)) if j and c]
    inv: list[int] = []
    for i, e in enumerate(_box(a.bounds)):
        s = sum(c * inv[i - j] for j, f, c in terms if all(map(le, f, e)))
        inv.append(c0 * ((i == 0) - s))
    return TruncatedPoly._of(a.bounds, inv)


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
        object.__setattr__(self, "base_dims", tuple(self.base_dims))
        object.__setattr__(self, "summands", tuple(map(tuple, self.summands)))
        entries = itertools.chain(self.base_dims, *self.summands)
        _require_ints(entries, "base dimensions and summand degrees must be integers")
        if any(m < 0 for m in self.base_dims):
            raise ValueError("base dimensions must be nonnegative")
        if any(len(s) != len(self.base_dims) for s in self.summands):
            raise ValueError("summand degree tuples must match the base factor count")
        if self.fiber_dim < 1:
            raise ValueError("projectivisation needs fiber dimension >= 1")

    @classmethod
    def _of(
        cls,
        base_dims: tuple[int, ...],
        summands: tuple[tuple[int, ...], ...],
        conjugated_trivial: bool,
    ) -> "ProjBundleSpec":
        """A spec from fields that meet ``__post_init__``'s rules by construction.

        The builders make their tuples from two checked integers, so the
        entries are not re-checked one by one; the spec equals, and hashes
        like, the one the public constructor builds.
        """
        spec = cls.__new__(cls)
        object.__setattr__(spec, "base_dims", base_dims)
        object.__setattr__(spec, "summands", summands)
        object.__setattr__(spec, "conjugated_trivial", conjugated_trivial)
        return spec

    @functools.cached_property
    def _grouped(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each distinct summand's degrees with its multiplicity, counted once per spec."""
        return tuple(Counter(self.summands).items())

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
    _require_ints((n, k), "n and k must be integers")
    if n < 2 or not 0 <= k <= n - 2:
        raise ValueError("need n >= 2 and 0 <= k <= n-2")
    summands = ((-1,),) + ((1,),) * (n - k - 1)
    return ProjBundleSpec._of((k,), summands, True)


def adjustable_base_spec(n: int, a: int) -> ProjBundleSpec:
    """P(O(-1,0) + O(0,a) + trivial^(n-3)) over CP^1 x CP^1.

    An n-dimensional projectivisation whose Milnor number is (n+1)*a, so the
    parameter a makes the Milnor number as large as needed.
    """
    _require_ints((n, a), "base dimensions and summand degrees must be integers")
    if n < 3:
        raise ValueError("need n >= 3")
    if a < 1:
        raise ValueError("twist parameter a must be positive")
    summands = ((-1, 0), (0, a)) + ((0, 0),) * (n - 3)
    return ProjBundleSpec._of((1, 1), summands, False)


def total_chern(spec: ProjBundleSpec) -> TruncatedPoly:
    """Total Chern class of the split bundle, a product of linear factors.

    Equal summands are grouped, so each distinct factor is raised to its
    multiplicity once, by the kernel on ``spec``'s checked fields, and the
    product starts from the first factor.  A conjugated trivial summand is an
    honest trivial line bundle here, so it contributes the factor 1.
    """
    bounds = spec.base_dims
    return functools.reduce(
        mul,
        (
            TruncatedPoly._of(bounds, _linear_power(bounds, degrees, mult))
            for degrees, mult in spec._grouped
        ),
    )


def integrate_top(omega: TruncatedPoly) -> int:
    """Coefficient of the top monomial x_1^(m_1) * ... * x_r^(m_r), the last entry."""
    return omega.dense[-1]


def _top_of_product(a: list[int], b: list[int]) -> int:
    """The top coefficient of the product of the dense lists ``a`` and ``b``.

    It is sum_f a_f * b_(m-f) over the box, and the row-major index of m - f
    is L - 1 minus that of f, so it is one dot product of a with b reversed:
    O(L), not O(L^2).
    """
    return sum(map(mul, a, reversed(b)))


def _segre_factors(spec: ProjBundleSpec) -> list[list[int]]:
    """The dense list of (1 + d.x)^(-m) for each distinct summand d of nonzero degree.

    Their product is the total Segre class, the inverse of ``total_chern``;
    each factor is one kernel call on ``spec``'s checked fields, O(L).  A
    summand group whose degrees are all 0 contributes the factor 1 and is
    left out: the filter reads the degrees, never a list's entries.
    """
    bounds = spec.base_dims
    return [
        _linear_power(bounds, degrees, -mult) for degrees, mult in spec._grouped if any(degrees)
    ]


def _top_of_factors(factors: Sequence[list[int]], bounds: tuple[int, ...]) -> int:
    """The top coefficient of the product of the dense lists ``factors`` on ``bounds``.

    No factor is the class 1, whose top is 0 unless the box is a point.  One
    factor is its last entry and two one dot product (``_top_of_product``);
    only past two are all but the last multiplied with
    ``TruncatedPoly.__mul__`` first.
    """
    if not factors:
        return 0 if any(bounds) else 1
    *rest, last = factors
    if len(rest) > 1:
        rest = [functools.reduce(mul, (TruncatedPoly._of(bounds, f) for f in rest)).dense]
    return _top_of_product(rest[0], last) if rest else last[-1]


def fiber_integral(omega: TruncatedPoly, spec: ProjBundleSpec) -> int:
    """Pair sum_d omega_d * v^(N-d) against the fundamental class of P(E).

    N is the total dimension, B the base dimension and omega_d the degree-d
    part of omega.  Pushing v^(N-d) forward to the base gives the
    degree-(B-d) part of the total Segre class, so the pairing is the top
    coefficient of omega times the Segre class, taken as the product of its
    per-summand factors (see ``_segre_factors``).  This holds for every
    omega, 0 included: parts of degree above B vanish on the base.
    """
    if omega.bounds != spec.base_dims:
        raise ValueError("omega must live on the base ring of the bundle")
    return _top_of_factors([omega.dense, *_segre_factors(spec)], spec.base_dims)


def milnor_projectivisation(spec: ProjBundleSpec) -> int:
    """Milnor number of the projectivisation described by ``spec``.

    The Chern roots of the stable tangent bundle are sum(d_i x_i) + v for
    each summand, -v for the conjugated trivial summand, and the roots of the
    base tangent bundle.  Since (root + v)^N = sum_i C(N, i) root^i v^(N-i)
    is the v-weighting ``fiber_integral`` gives to (1 + root)^N, the power
    sum is one pairing of P = c + sum_g m_g (1 + l_g)^N, where c = (-1)^N
    for the conjugated trivial summand (else 0) and summand group g has
    degrees l_g and multiplicity m_g.  The base roots are x_i with
    multiplicity m_i + 1, so their N-th powers vanish exactly when N exceeds
    every base dimension, as it does for every spec: fiber_dim >= 1 and every
    m_i >= 0, so N = sum(m_i) + fiber_dim >= max(m_i) + 1.

    The pairing is taken group by group.  With S_h = (1 + l_h)^(-m_h) the
    Segre class is prod_h S_h, and (1 + l_g)^N * S_g = (1 + l_g)^(N - m_g),
    so the pairing is c * top(prod_h S_h) plus, for each g, m_g * top((1 +
    l_g)^(N - m_g) * prod_(h != g) S_h).  A group of degree 0 has S_g = 1
    and (1 + l_g)^(N - m_g) = 1, so it adds m_g * top(prod_h S_h) and no
    factor.  Each factor is one kernel call on ``spec``'s checked fields,
    and with at most two groups of nonzero degree (both builders) each top
    is one dot product: O(L) per call, where the inverse of the total Chern
    class is O(L^2).
    """
    n = spec.total_dim
    if n < 2:
        raise ValueError("total dimension must be >= 2")
    bounds = spec.base_dims
    segre = _segre_factors(spec)
    # c plus the multiplicity of each degree-0 group: the weight of top(prod_h S_h)
    weight = (-1) ** n if spec.conjugated_trivial else 0
    total = g = 0
    for degrees, mult in spec._grouped:
        if not any(degrees):
            weight += mult
            continue
        power = _linear_power(bounds, degrees, n - mult)
        total += mult * _top_of_factors([power, *segre[:g], *segre[g + 1 :]], bounds)
        g += 1
    if weight:
        total += weight * _top_of_factors(segre, bounds)
    return total
