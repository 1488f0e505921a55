import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgekit
from conftest import dd_linear, dd_poly_values, dd_total
from ridgekit.compensated import U
from ridgekit.polycore import (ComplexBiPolynomial, ExactComplex,
                               MultiIndexPolynomial,
                               dim_complex_bihomogeneous,
                               _homogeneous_exponents, monomials_up_to)
from ridgekit.ridge_complex import (ComplexDirectionSet,
                                    ComplexRidgeDecomposition,
                                    apply_differential_operator,
                                    apply_wirtinger, bidegree_power_matrix,
                                    complex_decompose, complex_sup_grid,
                                    realify, sample_complex_directions,
                                    verify_power_identity,
                                    verify_wirtinger_monomial_identity,
                                    wirtinger_derivative)

RESIDUAL_TOL = 1e-8


def bipoly_strategy(dim=1, max_deg=2):
    keys = [(k, l)
            for deg_k in range(max_deg + 1) for deg_l in range(max_deg + 1)
            for k in _homogeneous_exponents(dim, deg_k)
            for l in _homogeneous_exponents(dim, deg_l)]
    coeffs = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda p: complex(p[0], p[1]))
    return st.dictionaries(st.sampled_from(keys), coeffs, max_size=5).map(
        lambda terms: ComplexBiPolynomial(dim, terms))


def test_wirtinger_basic_monomials():
    # d/dz (z^2) = 2z; d/dzbar (z^2) = 0
    p = ComplexBiPolynomial(1, {((2,), (0,)): 1})
    dz = wirtinger_derivative(p, "holomorphic", 1)
    assert dz.terms == {((1,), (0,)): 2}
    assert wirtinger_derivative(p, "antiholomorphic", 1).is_zero()


@settings(max_examples=30, deadline=None)
@given(bipoly_strategy(), bipoly_strategy())
def test_wirtinger_is_linear_derivation(p, q):
    for kind in ("holomorphic", "antiholomorphic"):
        d_sum = wirtinger_derivative(p + q, kind, 1)
        assert d_sum == wirtinger_derivative(p, kind, 1) + wirtinger_derivative(q, kind, 1)
        d_prod = wirtinger_derivative(p * q, kind, 1)
        leibniz = wirtinger_derivative(p, kind, 1) * q + p * wirtinger_derivative(q, kind, 1)
        assert d_prod == leibniz


@settings(max_examples=30, deadline=None)
@given(bipoly_strategy())
def test_wirtinger_conjugation_rule(p):
    # conj(dP/dz) = d(conj P)/dzbar
    lhs = wirtinger_derivative(p, "holomorphic", 1).conjugate()
    rhs = wirtinger_derivative(p.conjugate(), "antiholomorphic", 1)
    assert lhs == rhs


def test_mixed_partials_commute():
    p = ComplexBiPolynomial(2, {((2, 1), (1, 2)): 1 + 1j, ((0, 2), (2, 0)): -2})
    a = wirtinger_derivative(wirtinger_derivative(p, "holomorphic", 1), "antiholomorphic", 2)
    b = wirtinger_derivative(wirtinger_derivative(p, "antiholomorphic", 2), "holomorphic", 1)
    assert a == b


def test_monomial_identity_small_exhaustive():
    d = 2
    for total_k in range(3):
        for total_l in range(3):
            for k in _homogeneous_exponents(d, total_k):
                for kp in _homogeneous_exponents(d, total_k):
                    for l in _homogeneous_exponents(d, total_l):
                        for lp in _homogeneous_exponents(d, total_l):
                            assert verify_wirtinger_monomial_identity(k, l, kp, lp)


def test_power_identity_exact_rational():
    a = [ExactComplex(Fraction(1, 2), Fraction(1, 3)),
         ExactComplex(Fraction(-1), Fraction(2, 5))]
    assert verify_power_identity(a, (2, 1), (0, 2))
    assert verify_power_identity(a, (1, 0), (1, 1))


def test_power_identity_float_directions():
    rng = np.random.default_rng(0)
    a = list(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    assert verify_power_identity(a, (1, 1), (2, 0))


def test_differential_operator_pairing():
    # Q(D) applied to the matching monomial returns k! l! times the coefficient
    q = ComplexBiPolynomial(1, {((2,), (1,)): 0.5})
    p = ComplexBiPolynomial(1, {((2,), (1,)): 1})
    out = apply_differential_operator(q, p)
    assert abs(complex(out.eval([0.0])) - 0.5 * 2 * 1) < 1e-12


def test_bidegree_power_matrix_rank():
    d, s, t = 2, 2, 1
    n = dim_complex_bihomogeneous(d, s, t)
    dirs = sample_complex_directions(d, s, t, n, seed=0)
    mat, keys = bidegree_power_matrix(dirs.vectors, s, t)
    assert mat.shape == (n, n)
    assert len(keys) == n
    assert np.linalg.matrix_rank(mat) == n


@pytest.mark.parametrize("d,s", [(2, 2), (3, 1)])
def test_complex_decompose_reconstructs(d, s):
    rng = np.random.default_rng(d)
    terms = {}
    for deg_s in range(s + 1):
        for deg_t in range(s + 1):
            for k in _homogeneous_exponents(d, deg_s):
                for l in _homogeneous_exponents(d, deg_t):
                    terms[(k, l)] = complex(rng.standard_normal(), rng.standard_normal())
    P = ComplexBiPolynomial(d, terms)
    n = max(dim_complex_bihomogeneous(d, a, b)
            for a in range(s + 1) for b in range(s + 1))
    dirs = sample_complex_directions(d, s, s, n, seed=1)
    dec = complex_decompose(P, dirs)
    grid = complex_sup_grid(d, 300)
    assert np.max(np.abs(dec.eval_many(grid) - P.eval_many(grid))) < RESIDUAL_TOL


def test_complex_profiles_match_constructor_path():
    # `dirs.bidegrees` runs (0, 0), (0, 1), (0, 2), (1, 0), ...: lexicographic,
    # not the grlex order the constructor gives the profile terms
    d, s = 2, 2
    rng = np.random.default_rng(5)
    P = ComplexBiPolynomial(d, {(k, l): complex(rng.standard_normal(), rng.standard_normal())
                                for k in monomials_up_to(d, s) for l in monomials_up_to(d, s)})
    n = max(dim_complex_bihomogeneous(d, a, b) for a in range(s + 1) for b in range(s + 1))
    dec = complex_decompose(P, sample_complex_directions(d, s, s, n, seed=1))
    assert max(len(prof.terms) for prof in dec.profiles) == (s + 1) ** 2
    for prof in dec.profiles:
        expected = ComplexBiPolynomial(1, prof.terms)
        assert prof == expected
        assert list(prof.terms) == list(expected.terms)
        assert prof.to_json() == expected.to_json()


def test_complex_decomposition_profiles_univariate():
    d, s = 2, 1
    P = ComplexBiPolynomial(d, {((1, 0), (0, 1)): 1.0})
    n = dim_complex_bihomogeneous(d, 1, 1)
    dirs = sample_complex_directions(d, 1, 1, n, seed=2)
    dec = complex_decompose(P, dirs)
    for prof in dec.profiles:
        assert prof.dim == 1


def test_complex_spanning_failure_is_package_spanning_error():
    # tol=1.0 leaves no singular value above the threshold, so no set spans
    with pytest.raises(ridgekit.SpanningError):
        sample_complex_directions(2, 1, 1, 4, tol=1.0, max_retries=1)


def test_complex_residual_failure_is_package_decomposition_error():
    d = 2
    P = ComplexBiPolynomial(d, {((1, 0), (0, 1)): 1.0})
    dirs = sample_complex_directions(d, 1, 1, dim_complex_bihomogeneous(d, 1, 1), seed=2)
    with pytest.raises(ridgekit.DecompositionError):
        complex_decompose(P, dirs, residual_tol=-1.0)


def test_complex_json_round_trip():
    d, s = 2, 1
    P = ComplexBiPolynomial(d, {((1, 0), (0, 1)): 1.0, ((0, 0), (0, 0)): 2.0})
    n = dim_complex_bihomogeneous(d, 1, 1)
    dirs = sample_complex_directions(d, 1, 1, n, seed=3)
    dec = complex_decompose(P, dirs)
    clone = ComplexRidgeDecomposition.from_json_dict(dec.to_json_dict())
    grid = complex_sup_grid(d, 100)
    assert np.max(np.abs(clone.eval_many(grid) - dec.eval_many(grid))) < 1e-12


def test_realify_norm_squared():
    # x^2 + y^2 over R^2 becomes z zbar over C^1, exactly
    f = MultiIndexPolynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    g = realify(f)
    expected = {((1,), (1,)): ExactComplex(1, 0)}
    assert set(g.terms) == set(expected)
    val = g.terms[((1,), (1,))]
    assert _exact_equal(val, ExactComplex(1, 0))


def test_realify_pointwise():
    rng = np.random.default_rng(4)
    from ridgekit.polycore import monomials_up_to
    f = MultiIndexPolynomial(4, {k: rng.standard_normal()
                                 for k in monomials_up_to(4, 3)})
    g = realify(f)
    pts = rng.standard_normal((20, 4))
    zs = pts[:, :2] + 1j * pts[:, 2:]
    fv = f.eval_many(pts)
    gv = g.eval_many(zs)
    assert np.max(np.abs(gv - fv)) < 1e-10


def _exact_equal(a, b):
    a = a if isinstance(a, ExactComplex) else ExactComplex(Fraction(a), 0)
    return a == b


def test_bidegree_power_matrix_rows_are_power_coefficients():
    rng = np.random.default_rng(8)
    d, s, t = 2, 3, 2
    vectors = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
    mat, keys = bidegree_power_matrix(vectors, s, t)
    assert mat.shape == (5, len(keys))
    z = rng.standard_normal((10, d)) + 1j * rng.standard_normal((10, d))
    for a, row in zip(vectors, mat):
        power = ComplexBiPolynomial(d, dict(zip(keys, row)))
        w = z @ a
        assert np.allclose(power.eval_many(z), w ** s * np.conj(w) ** t,
                           rtol=1e-12, atol=1e-12)


def test_complex_direction_set_copies_and_freezes_vectors():
    vectors = np.array([[1.0 + 0j, 0j], [0j, 1.0 + 0j], [0.6 + 0j, 0.8j], [0.6j, 0.8 + 0j]])
    dirs = ComplexDirectionSet(2, 1, 1, vectors)
    assert vectors.flags.writeable
    assert not dirs.vectors.flags.writeable
    assert all(not block.pinv.flags.writeable for block in dirs.blocks)
    assert dirs.bidegrees == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert list(dirs.span.rows)[-4:] == [((0, 1), (0, 1)), ((0, 1), (1, 0)),
                                         ((1, 0), (0, 1)), ((1, 0), (1, 0))]


def test_complex_direction_set_factors_are_least_norm_solvers():
    dirs = sample_complex_directions(2, 2, 2, dim_complex_bihomogeneous(2, 2, 2), seed=8)
    rng = np.random.default_rng(9)
    for (sp, tp), block in zip(dirs.bidegrees, dirs.blocks):
        columns = bidegree_power_matrix(dirs.vectors, sp, tp)[0].T
        rhs = rng.standard_normal(columns.shape[0]) + 1j * rng.standard_normal(columns.shape[0])
        expected, *_ = np.linalg.lstsq(columns, rhs, rcond=None)
        assert np.allclose(block.pinv @ rhs, expected, rtol=1e-10, atol=1e-12)
        assert block.rank == block.size == columns.shape[0]


def test_non_spanning_complex_direction_set_raises_with_rank_and_condition():
    a = np.array([[0.6 + 0j, 0.8j]])
    dirs = ComplexDirectionSet(2, 1, 1, np.tile(a, (4, 1)))  # one direction, repeated
    P = ComplexBiPolynomial(2, {((1, 0), (0, 1)): 1.0, ((0, 1), (1, 0)): 2.0j})
    with pytest.raises(ridgekit.DecompositionError,
                       match=r"bidegree \(1, 1\) rank 1 of 4") as info:
        complex_decompose(P, dirs)
    assert "condition number" in str(info.value)


@st.composite
def complex_cases(draw):
    d = draw(st.integers(1, 2))
    s = draw(st.integers(0, 3))
    exponents = monomials_up_to(d, s)
    part = st.integers(-1000, 1000).map(lambda v: v / 100)
    coeffs = st.tuples(part, part).map(lambda p: complex(*p))
    terms = draw(st.dictionaries(st.tuples(st.sampled_from(exponents),
                                           st.sampled_from(exponents)), coeffs))
    return d, s, ComplexBiPolynomial(d, terms), draw(st.integers(0, 2 ** 16))


@settings(max_examples=40, deadline=None)
@given(complex_cases())
def test_complex_residual_bounds_sampled_error(case):
    # The residual is a certificate: no grid point may show a larger error.
    # The error is evaluated in double-double, because the rounding of a
    # double evaluation can exceed a certificate near round-off; `slack`
    # bounds the rounding of the double-double evaluation.
    d, s, P, seed = case
    dirs = sample_complex_directions(d, s, s, dim_complex_bihomogeneous(d, s, s), seed=seed)
    dec = complex_decompose(P, dirs)
    grid = complex_sup_grid(d, 512)

    def pair(points):  # double-double points (z, conj z)
        return tuple(np.hstack([part, np.conj(part)]) for part in points)

    terms = [([k + l for k, l in P.terms], [-complex(c) for c in P.terms.values()],
              pair((grid, np.zeros_like(grid))))]
    terms += [([k + l for k, l in prof.terms], list(prof.terms.values()),
               pair(dd_linear(grid, a[None, :])))
              for a, prof in zip(dec.vectors, dec.profiles)]
    values = [dd_poly_values(*term) for term in terms]
    error = dd_total(tuple(np.stack(part) for part in zip(*values)))
    slack = 1e3 * U ** 2 * sum(abs(c) for _, coeffs, _ in terms for c in coeffs)
    assert np.max(np.abs(error[0])) * (1 - 4 * U) - slack <= dec.residual
