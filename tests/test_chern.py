import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cobforge import chern
from cobforge.chern import (
    ProjBundleSpec,
    TruncatedPoly,
    _top_of_product,
    adjustable_base_spec,
    dkn_spec,
    fiber_integral,
    integrate_top,
    milnor_projectivisation,
    poly_inverse,
    total_chern,
)
from cobforge.milnor import s_dkn


def poly(bounds, terms):
    return TruncatedPoly(bounds, terms)


def u_poly(bound):
    """1-variable ring of CP^bound with generator u."""
    return TruncatedPoly.variable((bound,), 0)


# ---------------------------------------------------------------- ring basics


def test_truncation_drops_out_of_bound_monomials():
    p = poly((1,), {(0,): 1, (1,): 2, (2,): 7})
    assert p.coeffs == {(0,): 1, (1,): 2}


def test_zero_coefficients_not_stored():
    p = poly((2,), {(0,): 0, (1,): 3})
    assert p.coeffs == {(1,): 3}
    assert (p - p).is_zero()


@pytest.mark.parametrize("bounds", [(), (0,), (3,), (1, 1), (2, 0, 3)])
def test_constant_and_one_match_the_dict_constructor(bounds):
    zero = (0,) * len(bounds)
    for c in (-7, 0, 1, 12):
        got = TruncatedPoly.constant(bounds, c)
        assert got == poly(bounds, {zero: c})
        assert (got.bounds, got.dense) == (bounds, poly(bounds, {zero: c}).dense)
    assert TruncatedPoly.one(list(bounds)) == poly(bounds, {zero: 1})


def test_constant_refuses_negative_bounds():
    makers = (lambda b: TruncatedPoly.constant(b, 1), TruncatedPoly.one, lambda b: poly(b, {}))
    for make in makers:
        with pytest.raises(ValueError, match="variable bounds must be nonnegative"):
            make((2, -1))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: poly((2.0,), {}), "variable bounds must be integers"),
        (lambda: TruncatedPoly.constant((1.5,), 1), "variable bounds must be integers"),
        (lambda: TruncatedPoly.one((True,)), "variable bounds must be integers"),
        (lambda: poly((2,), {(1,): 2.5}), "exponents and coefficients must be integers"),
        (lambda: poly((2,), {(1.0,): 2}), "exponents and coefficients must be integers"),
        (lambda: poly((2,), {(True,): 2}), "exponents and coefficients must be integers"),
        (lambda: TruncatedPoly.linear_power((2,), (True,), 2), "degrees must be integers"),
        (lambda: TruncatedPoly.linear_power((2,), (1.5,), 2), "degrees must be integers"),
        (lambda: TruncatedPoly.constant((2,), 2.7), "coefficients must be integers"),
        (lambda: TruncatedPoly.constant((2,), True), "coefficients must be integers"),
        (
            lambda: TruncatedPoly.linear_power((2,), (1,), True),
            "exponent must be a nonnegative integer",
        ),
        (lambda: TruncatedPoly.one((2,)) ** True, "exponent must be a nonnegative integer"),
        # without the index rule these build 1, x1 and x2
        (lambda: TruncatedPoly.variable((2,), 5), "variable index 5 out of range"),
        (lambda: TruncatedPoly.variable((2,), 0.0), "variable index must be an integer"),
        (lambda: TruncatedPoly.variable((2, 1), True), "variable index must be an integer"),
    ],
)
def test_ring_entry_points_refuse_non_integers(make, message):
    # no silent truncation: int() would store 2.5 as 2 and read True as 1
    with pytest.raises(ValueError, match=message):
        make()


def test_mul_examples():
    u = u_poly(1)
    assert (1 + u) * (1 - u) == 1
    u2 = u_poly(2)
    assert (1 + u2) * (1 + u2) == poly((2,), {(0,): 1, (1,): 2, (2,): 1})
    x1 = TruncatedPoly.variable((1, 1), 0)
    x2 = TruncatedPoly.variable((1, 1), 1)
    assert (x1 * x2 * x1).is_zero()


def test_mul_rejects_mismatched_bounds():
    with pytest.raises(ValueError):
        TruncatedPoly.one((1,)) * TruncatedPoly.one((2,))
    with pytest.raises(ValueError):
        TruncatedPoly.one((1,)) * TruncatedPoly.one((1, 1))


def test_inverse_geometric_series():
    u = u_poly(3)
    assert poly_inverse(1 + u) == poly((3,), {(0,): 1, (1,): -1, (2,): 1, (3,): -1})
    assert poly_inverse((1 + u) * (1 - u)) == poly((3,), {(0,): 1, (2,): 1})
    assert poly_inverse(TruncatedPoly.one((2, 2))) == 1
    minus = TruncatedPoly.constant((2,), -1)
    assert poly_inverse(minus) == minus


def test_inverse_requires_unit_constant_term():
    u = u_poly(2)
    with pytest.raises(ValueError):
        poly_inverse(2 + u)
    with pytest.raises(ValueError):
        poly_inverse(u)


def random_poly(rng, bounds, max_terms=4, coeff_range=9):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(m + 2) for m in bounds)
        terms[exps] = rng.randrange(-coeff_range, coeff_range + 1)
    return TruncatedPoly(bounds, terms)


def test_ring_axioms_randomized():
    rng = random.Random(7011)
    bounds_pool = [(2, 2), (1, 1, 1), (3,), (1, 2)]
    for _ in range(600):
        bounds = rng.choice(bounds_pool)
        a = random_poly(rng, bounds)
        b = random_poly(rng, bounds)
        c = random_poly(rng, bounds)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * TruncatedPoly.one(bounds) == a
        # the oracle's pairing: the top coefficient without the product
        assert _top_of_product(a.dense, b.dense) == integrate_top(a * b)


# Test-only references: the plain loops that squaring and the one-pass
# inverse replace.  Squaring in turn is the reference for linear_power.


def power_by_repeated_products(p, e):
    result = TruncatedPoly.one(p.bounds)
    for _ in range(e):
        result = result * p
    return result


def inverse_by_geometric_series(a):
    """c0 * sum((-q)^i) for a = c0 * (1 + q); the series stops at the total degree cap."""
    c0 = a.constant_term()
    q = a * c0 - 1
    acc = term = TruncatedPoly.one(a.bounds)
    for _ in range(sum(a.bounds)):
        term = term * q * (-1)
        acc = acc + term
    return acc * c0


POWER_BOUNDS = [(3,), (2, 2), (1, 2), (1, 1, 1)]


def test_power_matches_repeated_products():
    rng = random.Random(4242)
    for bounds in POWER_BOUNDS:
        for _ in range(15):
            p = random_poly(rng, bounds, max_terms=5, coeff_range=4)
            # exponents past the nilpotency degree too (the total degree cap is <= 4)
            for e in range(13):
                assert p**e == power_by_repeated_products(p, e), (bounds, p, e)
    # (1 + sum d_i x_i)^N by the multinomial theorem, with zero and negative
    # degrees, over a point and boxes of 1-3 variables
    for bounds in POWER_BOUNDS + [(), (0,), (5,), (2, 0, 3)]:
        draws = [tuple(rng.randint(-3, 3) for _ in bounds) for _ in range(8)]
        for degrees in [(0,) * len(bounds), (-1,) * len(bounds)] + draws:
            linear = sum(
                (d * TruncatedPoly.variable(bounds, i) for i, d in enumerate(degrees)),
                TruncatedPoly.one(bounds),
            )
            for e in range(sum(bounds) + 3):
                got = TruncatedPoly.linear_power(bounds, degrees, e)
                assert got == linear**e, (bounds, degrees, e)
    with pytest.raises(ValueError):
        TruncatedPoly.linear_power((2, 1), (1,), 3)
    with pytest.raises(ValueError):
        TruncatedPoly.linear_power((2,), (1,), -1)


def test_inverse_matches_geometric_series():
    rng = random.Random(5353)
    for bounds in POWER_BOUNDS + [(0,), (), (4,), (2, 1, 1)]:
        for _ in range(40):
            a = random_poly(rng, bounds, max_terms=6)
            a = a - a.constant_term() + rng.choice([1, -1])
            assert poly_inverse(a) == inverse_by_geometric_series(a), (bounds, a)


@settings(max_examples=200)
@given(st.data())
def test_inverse_multiplies_back_to_one(data):
    bounds = data.draw(
        st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple), label="bounds"
    )
    n_terms = data.draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(data.draw(st.integers(0, m)) for m in bounds)
        if sum(exps) == 0:
            continue
        terms[exps] = data.draw(st.integers(-9, 9))
    terms[(0,) * len(bounds)] = data.draw(st.sampled_from([1, -1]))
    a = TruncatedPoly(bounds, terms)
    assert a * poly_inverse(a) == 1


# ----------------------------------------------------------- bundle integrals


def test_projbundlespec_validation():
    with pytest.raises(ValueError):
        ProjBundleSpec((1,), ((1,),), conjugated_trivial=False)  # fiber dim 0
    with pytest.raises(ValueError):
        ProjBundleSpec((1,), ((1, 2),))  # degree tuple too long
    with pytest.raises(ValueError):
        ProjBundleSpec((-1,), ((1,), (0,)))
    # no truncation: int() would read a = 2.5 as 2 and give a = 2's Milnor number, 12
    for make in (
        lambda: ProjBundleSpec((1.9,), ((1,), (1.7,))),
        lambda: ProjBundleSpec((1,), ((1,), (True,))),
        lambda: adjustable_base_spec(5, 2.5),
    ):
        with pytest.raises(ValueError, match="base dimensions and summand degrees must be"):
            make()
    spec = dkn_spec(5, 2)
    assert spec.rank == 4 and spec.fiber_dim == 3 and spec.total_dim == 5


@pytest.mark.parametrize("n, a", [(5.0, 1), (True, 1), (5, 1.5), (5, True), ("5", 1)])
def test_adjustable_base_spec_refuses_non_integers(n, a):
    # without the check (5.0, 1) raised TypeError and (True, 1) "need n >= 3"
    with pytest.raises(ValueError, match="base dimensions and summand degrees must be integers"):
        adjustable_base_spec(n, a)


def test_total_chern_of_dkn():
    spec = dkn_spec(6, 2)
    u = u_poly(2)
    assert total_chern(spec) == (1 - u) * (1 + u) ** 3


def test_total_chern_trivial_bundle():
    spec = ProjBundleSpec((3,), ((0,),) * 4)
    assert total_chern(spec) == 1


def test_total_chern_adjustable_base():
    for n, a in ((5, 3), (7, 1)):
        spec = adjustable_base_spec(n, a)
        x1 = TruncatedPoly.variable((1, 1), 0)
        x2 = TruncatedPoly.variable((1, 1), 1)
        assert total_chern(spec) == (1 - x1) * (1 + a * x2)


def test_integrate_top():
    for k in range(1, 5):
        u = u_poly(k)
        assert integrate_top(u**k) == 1
        assert integrate_top(TruncatedPoly.one((k,))) == 0
    x1 = TruncatedPoly.variable((1, 1), 0)
    x2 = TruncatedPoly.variable((1, 1), 1)
    assert integrate_top((1 + x1) * (1 + x2)) == 1


def test_fiber_integral_examples():
    n = 7
    one0 = TruncatedPoly.one((0,))
    assert fiber_integral(one0, dkn_spec(n, 0)) == 1
    assert fiber_integral(TruncatedPoly.one((2,)), dkn_spec(4, 2)) == 1
    for n, k in ((5, 2), (9, 4), (6, 1)):
        u = u_poly(k)
        assert fiber_integral(u**k, dkn_spec(n, k)) == 1


def test_fiber_integral_guards():
    spec = dkn_spec(6, 2)
    with pytest.raises(ValueError):
        fiber_integral(TruncatedPoly.one((3,)), spec)


def test_fiber_integral_matches_alternating_sum():
    # independent evaluation of <v^n> as sum_i (-1)^i 2^(k-i) C(n-1, i)
    from cobforge.arith import binomial

    for n in range(2, 10):
        for k in range(0, n - 1):
            expected = sum(
                (-1) ** i * 2 ** (k - i) * binomial(n - 1, i) for i in range(k + 1)
            )
            got = fiber_integral(TruncatedPoly.one((k,)), dkn_spec(n, k))
            assert got == expected, (n, k)


# ------------------------------------------------------------- milnor numbers


def test_milnor_projectivisation_pinned_values():
    assert milnor_projectivisation(dkn_spec(3, 0)) == 2
    assert milnor_projectivisation(dkn_spec(4, 2)) == 15
    assert milnor_projectivisation(adjustable_base_spec(5, 3)) == 18


def test_milnor_projectivisation_projective_space():
    # fiber-only spec over a point: CP^n with its standard structure
    for n in range(2, 9):
        spec = ProjBundleSpec((), ((),) * (n + 1), conjugated_trivial=False)
        assert milnor_projectivisation(spec) == n + 1


def test_milnor_projectivisation_guards():
    with pytest.raises(ValueError):
        milnor_projectivisation(ProjBundleSpec((), ((), ())))  # total dimension 1
    # total dim = sum(base dims) + fiber dim always exceeds every base
    # dimension, so the base-tangent guard never fires on a valid spec
    spec = ProjBundleSpec((4,), ((0,), (0,)))
    assert spec.total_dim > max(spec.base_dims)
    # trivial bundle: the projectivisation is the product CP^1 x CP^4,
    # decomposable, so its Milnor number vanishes
    assert milnor_projectivisation(spec) == 0


def test_milnor_adjustable_base_sweep():
    for n in range(4, 13):
        for a in range(1, 6):
            assert milnor_projectivisation(adjustable_base_spec(n, a)) == (n + 1) * a


def counted_int_checks(monkeypatch, module):
    """Count the calls of ``module``'s integer check."""
    calls = []
    check = module._require_ints

    def counted(values, message):
        calls.append(message)
        check(values, message)

    monkeypatch.setattr(module, "_require_ints", counted)
    return calls


def test_oracle_checks_nothing_a_built_spec_has_checked(monkeypatch):
    # ProjBundleSpec checks its fields once, when it is built; the oracle
    # runs its kernels on them without a second check
    specs = [dkn_spec(20, 9), adjustable_base_spec(6, 7)]
    calls = counted_int_checks(monkeypatch, chern)
    assert [milnor_projectivisation(spec) for spec in specs] == [s_dkn(20, 9), 7 * 7]
    assert calls == []
    # the public entry points still check
    TruncatedPoly.linear_power((2,), (1,), 3)
    assert calls == ["variable bounds must be integers", "degrees must be integers",
                     "exponent must be a nonnegative integer"]


def oracle_by_products(spec):
    """The oracle assembled from the public ring: the pairing sum_d mult * (1 + d.x)^N
    plus the conjugate constant, times the inverse of one * prod (1 + d.x)^mult,
    read at the top monomial."""
    bounds, n = spec.base_dims, spec.total_dim
    pairing = TruncatedPoly.constant(bounds, (-1) ** n if spec.conjugated_trivial else 0)
    total = TruncatedPoly.one(bounds)
    for degrees, mult in Counter(spec.summands).items():
        pairing = pairing + mult * TruncatedPoly.linear_power(bounds, degrees, n)
        total = total * TruncatedPoly.linear_power(bounds, degrees, mult)
    return integrate_top(pairing * poly_inverse(total))


@st.composite
def random_specs(draw, max_vars, max_summands):
    """A spec over 1..max_vars base factors of dimension 0..4, with
    1..max_summands summands of degrees -3..3 and fiber dimension >= 1."""
    bounds = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=max_vars)))
    degrees = st.tuples(*[st.integers(-3, 3)] * len(bounds))
    conjugated = draw(st.booleans())
    summands = draw(st.lists(degrees, min_size=2 - conjugated, max_size=max_summands))
    return ProjBundleSpec(bounds, summands, conjugated)


# every summand of degree 0: no Segre factor at all, over a point and over a box
ALL_DEGREE_ZERO = [
    ProjBundleSpec(bounds, ((0,) * len(bounds),) * 3, conjugated)
    for bounds in ((0,), (1, 2))
    for conjugated in (False, True)
]


@settings(max_examples=300, deadline=None)
@given(spec=random_specs(max_vars=2, max_summands=4))
@example(spec=ALL_DEGREE_ZERO[0])
@example(spec=ALL_DEGREE_ZERO[1])
@example(spec=ALL_DEGREE_ZERO[2])
@example(spec=ALL_DEGREE_ZERO[3])
def test_oracle_matches_the_public_ring_on_random_bundles(spec):
    # total dimension >= 2; it then exceeds every base dimension
    assume(spec.total_dim >= 2)
    assert spec.total_dim > max(spec.base_dims)
    assert milnor_projectivisation(spec) == oracle_by_products(spec)


def counted_oracle(monkeypatch):
    """Record the degrees of every kernel call and count ``TruncatedPoly`` products."""
    kernels, products = [], []
    kernel, product = chern._linear_power, TruncatedPoly.__mul__

    def counted_kernel(bounds, degrees, exponent):
        kernels.append(degrees)
        return kernel(bounds, degrees, exponent)

    def counted_product(self, other):
        products.append(self.bounds)
        return product(self, other)

    monkeypatch.setattr(chern, "_linear_power", counted_kernel)
    monkeypatch.setattr(TruncatedPoly, "__mul__", counted_product)
    return kernels, products


def test_builder_specs_pair_by_dot_products_alone(monkeypatch):
    # both builders make two groups of nonzero degree; adjustable_base_spec's
    # n - 3 trivial summands take no kernel call
    specs = [dkn_spec(20, 9), adjustable_base_spec(6, 7), adjustable_base_spec(4, 1)]
    kernels, products = counted_oracle(monkeypatch)
    assert [milnor_projectivisation(spec) for spec in specs] == [s_dkn(20, 9), 7 * 7, 5]
    assert products == []
    # a Segre factor, then a power, for each group of nonzero degree
    assert kernels == [(-1,), (1,)] * 2 + [(-1, 0), (0, 7)] * 2 + [(-1, 0), (0, 1)] * 2


def test_three_groups_of_nonzero_degree_still_take_a_product(monkeypatch):
    spec = ProjBundleSpec((2, 1), ((1, 0), (0, 1), (1, -2), (0, 0), (0, 0)), True)
    expected = oracle_by_products(spec)
    kernels, products = counted_oracle(monkeypatch)
    assert milnor_projectivisation(spec) == expected
    # four tops of three factors (the Segre class, and one per group), each
    # multiplying its first two; the degree-0 group makes no kernel call
    assert products == [(2, 1)] * 4
    assert (0, 0) not in kernels and len(kernels) == 6


def test_builders_check_their_two_integers_once(monkeypatch):
    # dkn_spec and adjustable_base_spec build their tuples from two checked
    # ints, so the spec is not re-checked entry by entry
    calls = counted_int_checks(monkeypatch, chern)
    built = dkn_spec(20, 9)
    assert calls == ["n and k must be integers"]
    calls.clear()
    adjustable = adjustable_base_spec(6, 7)
    assert calls == ["base dimensions and summand degrees must be integers"]
    monkeypatch.undo()
    for got, public in (
        (built, ProjBundleSpec((9,), ((-1,),) + ((1,),) * 10, True)),
        (adjustable, ProjBundleSpec([1, 1], [[-1, 0], [0, 7], [0, 0], [0, 0], [0, 0]])),
    ):
        assert got == public and hash(got) == hash(public)
        assert (got.base_dims, got.summands) == (public.base_dims, public.summands)
        assert type(got.base_dims) is tuple and all(type(s) is tuple for s in got.summands)


# The kernel on negative exponents, against the O(L^2) inverse of the
# positive power; and the Segre factors behind fiber_integral, against the
# inverse of the total Chern class.


def draw_bounds(data):
    """1-3 variables with bounds 0..4."""
    return tuple(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3), label="bounds"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_negative_exponent_is_the_inverse_power(data):
    bounds = draw_bounds(data)
    degrees = data.draw(st.tuples(*[st.integers(-3, 3)] * len(bounds)), label="degrees")
    m = data.draw(st.integers(0, 8), label="m")
    got = TruncatedPoly._of(bounds, chern._linear_power(bounds, degrees, -m))
    assert got == poly_inverse(TruncatedPoly.linear_power(bounds, degrees, m))
    # the public entry point still refuses a negative exponent
    if m:
        with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
            TruncatedPoly.linear_power(bounds, degrees, -m)


@st.composite
def specs_with_a_class(draw):
    """A random spec over 1-3 base factors and a class omega on its base."""
    spec = draw(random_specs(max_vars=3, max_summands=5))
    size = len(TruncatedPoly.one(spec.base_dims).dense)
    dense = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
    return spec, TruncatedPoly._of(spec.base_dims, dense)


@settings(max_examples=300, deadline=None)
@given(case=specs_with_a_class())
# omega = 0 and omega = 1 beside a degree-0 group: omega is a factor whatever
# its entries, and only the trivial summands are left out
@example(case=(adjustable_base_spec(5, 2), TruncatedPoly.constant((1, 1), 0)))
@example(case=(adjustable_base_spec(5, 2), TruncatedPoly.one((1, 1))))
def test_fiber_integral_pairs_with_the_inverse_total_chern_class(case):
    spec, omega = case
    assert fiber_integral(omega, spec) == integrate_top(omega * poly_inverse(total_chern(spec)))
