import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dd_poly_values
from ridgekit.compensated import U
from ridgekit.orthobasis import monomial_values
from ridgekit.polycore import (ComplexBiPolynomial, ExactComplex, MultiIndex,
                               MultiIndexPolynomial, dim_complex_bihomogeneous,
                               dim_homogeneous, grlex_key, monomial_table,
                               monomials_up_to, point_chunks, rank_grlex,
                               unrank_grlex)
from ridgekit.quadrature import ball_sup_grid

EVAL_TOL = 1e-12


def brute_force_homogeneous_count(m, s):
    return sum(1 for k in itertools.product(range(s + 1), repeat=m) if sum(k) == s)


def test_dim_homogeneous_examples():
    assert dim_homogeneous(2, 3) == 4  # x^3, x^2 y, x y^2, y^3
    assert dim_homogeneous(3, 2) == 6


def test_dim_homogeneous_matches_enumeration():
    for m in range(1, 7):
        for s in range(0, 9):
            assert dim_homogeneous(m, s) == brute_force_homogeneous_count(m, s)


def test_dim_complex_bihomogeneous_example():
    assert dim_complex_bihomogeneous(2, 2, 2) == 9
    for d in (1, 2, 3):
        for s in range(4):
            for t in range(4):
                assert dim_complex_bihomogeneous(d, s, t) == \
                    dim_homogeneous(d, s) * dim_homogeneous(d, t)


def test_multi_index_order_and_factorial():
    k = MultiIndex((2, 0, 3))
    assert k.order() == 5
    assert k.factorial() == math.factorial(2) * math.factorial(3)


def test_multi_index_is_validated_once():
    k = MultiIndex((2, 0, 3))
    assert MultiIndex(k) is k
    assert MultiIndex([2, 0, 3]) == k and MultiIndex([2, 0, 3]) is not k
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


def test_monomials_up_to_sorted_grlex():
    exps = monomials_up_to(2, 3)
    assert exps == sorted(exps, key=grlex_key)
    assert len(exps) == math.comb(3 + 2, 2)
    assert exps[0] == (0, 0)


def test_rank_unrank_round_trip():
    for dim in (1, 2, 3):
        for i, k in enumerate(monomials_up_to(dim, 5)):
            assert rank_grlex(k) == i or unrank_grlex(dim, rank_grlex(k)) == k
    for dim in (1, 2, 4):
        for rank in range(200):
            assert rank_grlex(unrank_grlex(dim, rank)) == rank


coeff_strategy = st.integers(min_value=-5, max_value=5)


def poly_strategy(dim, max_degree=3):
    exps = monomials_up_to(dim, max_degree)
    return st.dictionaries(st.sampled_from(exps), coeff_strategy, max_size=6).map(
        lambda terms: MultiIndexPolynomial(dim, terms))


@settings(max_examples=40, deadline=None)
@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=30, deadline=None)
@given(poly_strategy(2), poly_strategy(2))
def test_eval_is_ring_homomorphism(p, q):
    x = [Fraction(1, 3), Fraction(-2, 5)]
    assert (p + q).eval(x) == p.eval(x) + q.eval(x)
    assert (p * q).eval(x) == p.eval(x) * q.eval(x)


def test_eval_many_matches_eval():
    rng = np.random.default_rng(0)
    p = MultiIndexPolynomial(3, {k: rng.standard_normal() for k in monomials_up_to(3, 4)})
    pts = rng.standard_normal((20, 3))
    vals = p.eval_many(pts)
    for x, v in zip(pts, vals):
        assert abs(v - p.eval(list(x))) < EVAL_TOL


def test_compose_linear_exact():
    # P(x, y) = x^2 + y composed with a rational linear map, checked exactly
    p = MultiIndexPolynomial(2, {(2, 0): Fraction(1), (0, 1): Fraction(1)})
    A = [[Fraction(1, 2), Fraction(0), Fraction(1)],
         [Fraction(-1), Fraction(1, 3), Fraction(0)]]
    b = [Fraction(1), Fraction(0)]
    q = p.compose_linear(A, b)
    z = [Fraction(2), Fraction(3), Fraction(-1)]
    inner = [sum(row[j] * z[j] for j in range(3)) + bb for row, bb in zip(A, b)]
    assert q.eval(z) == p.eval(inner)


def test_degree_and_zero_conventions():
    zero = MultiIndexPolynomial.zero(2)
    assert zero.is_zero()
    assert zero.degree() == -math.inf
    one = MultiIndexPolynomial.constant(2, 1)
    assert one.degree() == 0
    assert (one - one).is_zero()


def test_coefficient_vector_round_trip():
    rng = np.random.default_rng(1)
    p = MultiIndexPolynomial(2, {k: rng.standard_normal() for k in monomials_up_to(2, 3)})
    vec = p.coefficient_vector(3)
    q = MultiIndexPolynomial.from_coefficient_vector(2, vec)
    assert max(abs(a - b) for a, b in zip(vec, q.coefficient_vector(3))) == 0


def test_json_round_trip():
    p = MultiIndexPolynomial(2, {(1, 0): 0.5, (0, 2): -1.25})
    assert MultiIndexPolynomial.from_json(p.to_json()) == p


def test_terms_iterate_in_grlex_order():
    p = MultiIndexPolynomial(2, {(0, 2): 1.0, (1, 0): 1.0, (0, 0): 1.0, (2, 0): 1.0})
    keys = list(p.terms)
    assert keys == sorted(keys, key=grlex_key)


def test_exact_complex_arithmetic():
    a = ExactComplex(Fraction(1, 2), Fraction(-1, 3))
    b = ExactComplex(2, 1)
    assert a + b == ExactComplex(Fraction(5, 2), Fraction(2, 3))
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert complex(a - a) == 0


def test_complex_bipolynomial_conjugate_eval():
    p = ComplexBiPolynomial(1, {((2,), (0,)): 1 + 2j, ((0,), (1,)): -1j})
    z = 0.3 + 0.7j
    assert abs(complex(p.conjugate().eval([z])) - complex(p.eval([z])).conjugate()) < EVAL_TOL


def test_complex_bipolynomial_degrees():
    p = ComplexBiPolynomial(2, {((2, 0), (1, 1)): 1.0, ((0, 1), (0, 0)): 2.0})
    assert p.holomorphic_degree() == 2
    assert p.antiholomorphic_degree() == 2
    assert not p.in_degree_class(1)


def test_complex_json_round_trip():
    p = ComplexBiPolynomial(1, {((1,), (1,)): 1.5 - 0.5j})
    q = ComplexBiPolynomial.from_json(p.to_json())
    z = np.array([[0.2 + 0.4j]])
    assert abs(p.eval_many(z)[0] - q.eval_many(z)[0]) < EVAL_TOL


def test_real_and_complex_polynomials_do_not_mix():
    real = MultiIndexPolynomial(2, {(1, 0): 1.0})
    cplx = ComplexBiPolynomial(1, {((1,), (0,)): 1.0})  # the same flat key (1, 0)
    with pytest.raises(TypeError):
        real + cplx
    with pytest.raises(TypeError):
        cplx * real
    assert real != cplx and cplx != real
    assert MultiIndexPolynomial.zero(2) != ComplexBiPolynomial.zero(1)


# written when complex terms were ordered by (grlex k, grlex l)
OLD_ORDER_COMPLEX_JSON = (
    '{"dim": 2, "terms": [{"k": [0, 0], "l": [1, 0], "re": -0.0, "im": -1.5}, '
    '{"k": [0, 0], "l": [0, 2], "re": 3.0, "im": 0.0}, '
    '{"k": [0, 1], "l": [0, 0], "re": 2.0, "im": 0.0}, '
    '{"k": [1, 0], "l": [0, 0], "re": 0.5, "im": 0.25}, '
    '{"k": [2, 0], "l": [1, 1], "re": 1.0, "im": 0.0}]}')


def test_complex_json_in_old_term_order_loads_equal():
    p = ComplexBiPolynomial(2, {((2, 0), (1, 1)): 1.0, ((0, 1), (0, 0)): 2.0,
                                ((0, 0), (1, 0)): -1.5j, ((1, 0), (0, 0)): 0.5 + 0.25j,
                                ((0, 0), (0, 2)): 3.0})
    q = ComplexBiPolynomial.from_json(OLD_ORDER_COMPLEX_JSON)
    assert q == p
    assert list(q.terms) == list(p.terms)
    flat = [k + l for k, l in p.terms]
    assert flat == sorted(flat, key=grlex_key)


def random_bipoly(dim, max_deg, rng, coeff=complex):
    terms = {}
    for k in monomials_up_to(dim, max_deg):
        for l in monomials_up_to(dim, max_deg):
            re, im = rng.integers(-4, 5, size=2)
            terms[(k, l)] = coeff(Fraction(int(re), 3), Fraction(int(im), 5))
    return ComplexBiPolynomial(dim, terms)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_eval_many_matches_exact_eval_fraction_coefficients(dim):
    rng = np.random.default_rng(dim)
    p = MultiIndexPolynomial(dim, {k: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                                   for k in monomials_up_to(dim, 5)})
    scale = float(sum(abs(c) for c in p.terms.values()))
    pts = ball_sup_grid(dim, 30, seed=dim)
    vals = p.eval_many(pts)
    for x, v in zip(pts, vals):
        exact = p.eval([Fraction(xi) for xi in x])  # floats convert to Fractions exactly
        assert isinstance(exact, Fraction)
        assert abs(v - float(exact)) <= EVAL_TOL * scale


@pytest.mark.parametrize("dim", [1, 2])
def test_complex_eval_many_matches_eval_exact_complex_coefficients(dim):
    rng = np.random.default_rng(10 + dim)
    p = random_bipoly(dim, 3, rng, coeff=ExactComplex)
    pts = rng.standard_normal((25, dim)) + 1j * rng.standard_normal((25, dim))
    pts /= 1.0 + np.abs(pts)
    vals = p.eval_many(pts)
    for z, v in zip(pts, vals):
        assert abs(v - complex(p.eval(list(z)))) < EVAL_TOL


def test_zero_polynomial_eval_many_shape_and_dtype():
    real = MultiIndexPolynomial.zero(3).eval_many(np.ones((7, 3)))
    assert real.shape == (7,) and real.dtype == np.float64 and not real.any()
    cplx = ComplexBiPolynomial.zero(2).eval_many(np.ones((5, 2), dtype=complex))
    assert cplx.shape == (5,) and cplx.dtype == np.complex128 and not cplx.any()


def test_eval_many_accepts_one_dimensional_point():
    p = MultiIndexPolynomial(3, {(1, 2, 0): 2.0, (0, 0, 3): -1.0, (0, 0, 0): 0.5})
    x = np.array([0.3, -0.2, 0.7])
    vals = p.eval_many(x)
    assert vals.shape == (1,)
    assert abs(vals[0] - p.eval(list(x))) < EVAL_TOL
    q = ComplexBiPolynomial(1, {((2,), (1,)): 1 - 1j, ((0,), (0,)): 2.0})
    z = np.array([0.4 + 0.3j])
    cvals = q.eval_many(z)
    assert cvals.shape == (1,)
    assert abs(cvals[0] - complex(q.eval(list(z)))) < EVAL_TOL


def test_eval_many_across_chunks_matches_pointwise():
    rng = np.random.default_rng(4)
    p = MultiIndexPolynomial(3, {k: rng.standard_normal() for k in monomials_up_to(3, 4)})
    pts = ball_sup_grid(3, 10_000, seed=4)
    assert len(point_chunks(len(p.terms), len(pts))) > 2
    vals = p.eval_many(pts)
    pointwise = np.array([p.eval(list(x)) for x in pts])
    assert np.max(np.abs(vals - pointwise)) <= 1e-13

    q = random_bipoly(1, 3, rng)
    zs = np.exp(2j * np.pi * rng.random((20_000, 1))) * rng.random((20_000, 1))
    assert len(point_chunks(len(q.terms), len(zs))) > 2
    cvals = q.eval_many(zs)
    cpointwise = np.array([q.eval(list(z)) for z in zs])
    assert np.max(np.abs(cvals - cpointwise)) <= 1e-13


def test_monomial_table_matches_definition():
    rng = np.random.default_rng(5)
    exps = np.array(monomials_up_to(3, 6))
    pts = rng.uniform(-1.5, 1.5, size=(40, 3))
    table = monomial_table(exps, pts)
    expected = np.prod(pts[None, :, :] ** exps[:, None, :], axis=2)
    assert table.shape == (len(exps), 40)
    assert np.allclose(table, expected, rtol=1e-13, atol=0.0)
    zs = pts[:, :2] + 1j * pts[:, 1:]
    ctable = monomial_table(exps[:, :2], zs)
    assert ctable.dtype == np.complex128
    assert np.allclose(ctable, np.prod(zs[None] ** exps[:, None, :2], axis=2),
                       rtol=1e-13, atol=0.0)
    assert monomial_table(np.zeros((0, 3), dtype=int), pts).shape == (0, 40)


def test_monomial_values_match_definition():
    rng = np.random.default_rng(6)
    exps = monomials_up_to(2, 9)
    pts = rng.uniform(-1.0, 1.0, size=(3000, 2))
    assert len(point_chunks(len(exps), len(pts))) > 1
    values = monomial_values(exps, pts)
    expected = np.array([pts[:, 0] ** a * pts[:, 1] ** b for a, b in exps])
    assert np.allclose(values, expected, rtol=1e-13, atol=0.0)


def test_complex_eval_many_rejects_wrong_dimension():
    q = ComplexBiPolynomial(1, {((1,), (1,)): 1.0})
    with pytest.raises(ValueError):
        q.eval_many(np.ones((3, 2), dtype=complex))


# eval_many against a double-double reference, for a relative error bound
# fixed from the kernel: each term of total degree at most E in k <= 4
# variables takes at most E + k + 2 rounded products, and the two sums (over
# the powers of the last variable, then over the heads) at most T + E more
# roundings, so real values are within 7 (T + E) U sum_t |c_t x^{k_t}|.  A
# complex product rounds by at most sqrt(5) U (Brent, Percival and
# Zimmermann 2007), which the constant 16 covers.
EVAL_BOUND_FACTOR = 16


def exponent_keys(nvars):
    """Distinct exponent tuples, some sharing their leading exponents (all
    but the last) and some drawn freely; possibly none."""
    entry = st.integers(0, 5)
    heads = st.lists(st.tuples(*[entry] * (nvars - 1)), min_size=1, max_size=4)

    def keys(hs):
        shared = st.lists(st.tuples(st.sampled_from(hs), st.integers(0, 8)), max_size=10)
        free = st.lists(st.tuples(*[entry] * nvars), max_size=6)
        return st.tuples(shared, free).map(
            lambda sf: list(dict.fromkeys([h + (p,) for h, p in sf[0]] + sf[1])))

    return heads.flatmap(keys)


def ball_points(rng, count, dim, complex_=False):
    """Points of C^dim or R^dim at radii uniform in [0, 2]."""
    points = rng.standard_normal((count, 2 * dim if complex_ else dim))
    if complex_:
        points = points[:, :dim] + 1j * points[:, dim:]
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    return points / norms * rng.uniform(0, 2, (count, 1))


def random_coeffs(rng, count, complex_=False):
    scale = 10.0 ** rng.uniform(-3, 3, count)
    if complex_:
        return (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * scale
    return rng.standard_normal(count) * scale


def assert_within_rounding_bound(values, exponents, coeffs, points):
    bound = EVAL_BOUND_FACTOR * (len(coeffs) + max(map(sum, exponents), default=0)) * U
    hi, lo = dd_poly_values(exponents, coeffs, (points, np.zeros_like(points)))
    magnitude = np.abs(points)
    scale = dd_poly_values(exponents, np.abs(coeffs), (magnitude, np.zeros_like(magnitude)))[0]
    assert np.all(np.abs((values - hi) - lo) <= bound * scale)


@settings(max_examples=60, deadline=None)
@given(case=st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), exponent_keys(d))),
       seed=st.integers(0, 2**32 - 1))
@example(case=(3, []), seed=0)
@example(case=(2, [(4, 1)]), seed=1)
def test_eval_many_within_rounding_bound(case, seed):
    dim, keys = case
    rng = np.random.default_rng(seed)
    coeffs = random_coeffs(rng, len(keys))
    points = ball_points(rng, 40, dim)
    values = MultiIndexPolynomial(dim, dict(zip(keys, coeffs))).eval_many(points)
    assert_within_rounding_bound(values, keys, coeffs, points)


@settings(max_examples=60, deadline=None)
@given(case=st.integers(1, 2).flatmap(lambda d: st.tuples(st.just(d), exponent_keys(2 * d))),
       seed=st.integers(0, 2**32 - 1))
@example(case=(2, []), seed=0)
@example(case=(1, [(3, 2)]), seed=1)
def test_complex_eval_many_within_rounding_bound(case, seed):
    dim, keys = case
    rng = np.random.default_rng(seed)
    coeffs = random_coeffs(rng, len(keys), complex_=True)
    z = ball_points(rng, 40, dim, complex_=True)
    poly = ComplexBiPolynomial(dim, {(k[:dim], k[dim:]): c for k, c in zip(keys, coeffs)})
    assert_within_rounding_bound(poly.eval_many(z), keys, coeffs, np.hstack([z, np.conj(z)]))
