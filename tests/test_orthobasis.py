import json
import math

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import LinAlgError

from ridgekit import orthobasis
from ridgekit.orthobasis import (ConditioningError, build_basis, filtered_projection,
                                 project_coefficients)
from ridgekit.pipeline import fit_polynomial
from ridgekit.polycore import MultiIndex, MultiIndexPolynomial, monomials_up_to
from ridgekit.quadrature import QuadratureRule, build_ball_rule, evaluate_on_nodes
from ridgekit.quasiproj import CutoffFunction, QuasiProjector, cesaro_mean

GRAM_TOL = 1e-8
ORACLE_TOL = 1e-12
# Coefficients reach 1.7e6 at d=2, s=15 and carry the rounding of R's
# inverse; a build on the shells and one on the same nodes without them
# differed by at most 3.7e-12 of the largest coefficient (d <= 4, s <= 15).
FACTORED_COEFF_TOL = 1e-10


def test_legendre_oracle_1d(basis_factory):
    # normalized Legendre polynomials on [-1, 1]: 1/sqrt(2), sqrt(3/2) x
    basis = basis_factory(1, 3)
    p0, p1 = basis.polys[0], basis.polys[1]
    x = np.linspace(-1, 1, 11)[:, None]
    assert np.max(np.abs(np.abs(p0.eval_many(x)) - 1 / math.sqrt(2))) < ORACLE_TOL
    assert np.max(np.abs(np.abs(p1.eval_many(x)) - math.sqrt(1.5) * np.abs(x[:, 0]))) < ORACLE_TOL


def test_first_element_2d_constant(basis_factory):
    basis = basis_factory(2, 3)
    value = basis.polys[0].eval_many(np.zeros((1, 2)))[0]
    assert abs(abs(value) - 1 / math.sqrt(math.pi)) < ORACLE_TOL


@pytest.mark.parametrize("d,s_max", [(1, 6), (2, 6), (3, 5)])
def test_gram_identity(basis_factory, d, s_max):
    basis = basis_factory(d, s_max)
    gram = basis.gram_matrix()
    assert np.max(np.abs(gram - np.eye(basis.size))) < GRAM_TOL


def test_degrees_non_decreasing(basis_factory):
    basis = basis_factory(2, 5)
    assert all(a <= b for a, b in zip(basis.degrees, basis.degrees[1:]))


def _as_text(poly):
    return json.dumps(poly.to_json_dict())


def test_filtered_projection_weights_each_degree(basis_factory):
    d = 2
    basis = basis_factory(d, 5)
    rng = np.random.default_rng(7)
    p = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, 5)})

    def weighted_sum(weights):
        # sum_i w_{deg i} c_i P_i, with deg i read from the exponents
        c = project_coefficients(p, basis, len(weights) - 1)
        assert len(c) == math.comb(len(weights) - 1 + d, d)
        w = np.array([weights[sum(basis.exponents[i])] for i in range(len(c))])
        mono = (w * c) @ basis.coeff_matrix[:len(c)]
        return MultiIndexPolynomial(d, {k: v for k, v in zip(basis.exponents, mono) if v != 0.0})

    weights = rng.standard_normal(4)
    assert _as_text(filtered_projection(p, basis, weights)) == _as_text(weighted_sum(weights))
    # least squares: weight 1 on each degree <= s
    for s in range(6):
        assert _as_text(fit_polynomial(p, s, basis)) == _as_text(weighted_sum(np.ones(s + 1)))
    # the quasi-projector: eta(j / s) on each degree j < 2s
    for s in (1, 2, 3):
        eta = CutoffFunction()(np.array([j / s for j in range(2 * s)]))
        assert _as_text(QuasiProjector(basis, s).apply(p)) == _as_text(weighted_sum(eta))
    # the Cesaro mean: binom(k - j + sigma, sigma) / binom(k + sigma, sigma) on degree j
    for k in range(6):
        for sigma in (0, 1, 3):
            binomial = [math.comb(k - j + sigma, sigma) / math.comb(k + sigma, sigma)
                        for j in range(k + 1)]
            assert _as_text(cesaro_mean(p, k, sigma, basis)) == _as_text(weighted_sum(binomial))
    # each checks the degree through project_coefficients
    for beyond in (lambda: fit_polynomial(p, 6, basis), lambda: cesaro_mean(p, 6, 1, basis)):
        with pytest.raises(ValueError, match="basis covers degree 5, requested 6"):
            beyond()


def test_bit_identical_rebuild():
    rule = build_ball_rule(2, 10)
    b1 = build_basis(2, 4, rule)
    b2 = build_basis(2, 4, rule)
    assert np.array_equal(b1.coeff_matrix, b2.coeff_matrix)
    assert b1.rule_digest() == b2.rule_digest()


def test_projection_fixed_point(basis_factory):
    basis = basis_factory(2, 4)
    rng = np.random.default_rng(0)
    p = MultiIndexPolynomial(2, {k: rng.standard_normal() for k in monomials_up_to(2, 3)})
    coeffs = project_coefficients(p, basis, 3)
    assert len(coeffs) == math.comb(3 + 2, 2)
    q = basis.combine(coeffs)
    diff = p - q
    worst = max((abs(c) for c in diff.terms.values()), default=0.0)
    assert worst < 1e-10


def test_projection_drops_orthogonal_component(basis_factory):
    basis = basis_factory(2, 4)
    rng = np.random.default_rng(1)
    low = MultiIndexPolynomial(2, {k: rng.standard_normal() for k in monomials_up_to(2, 2)})
    high = basis.polys[math.comb(3 + 2, 2)]     # the first element of degree 4
    assert basis.degrees[math.comb(3 + 2, 2)] == 4
    coeffs = project_coefficients(low + high.scale(3.0), basis, 2)
    q = basis.combine(coeffs)
    diff = low - q
    worst = max((abs(c) for c in diff.terms.values()), default=0.0)
    assert worst < 1e-10


def test_conditioning_error_on_degenerate_rule():
    # a single-node "rule" cannot distinguish polynomials: the second basis
    # candidate has numerically zero norm
    rule = QuadratureRule("ball", 1, np.array([[0.0]]), np.array([2.0]), 4)
    with pytest.raises(ConditioningError):
        build_basis(1, 2, rule)


def test_cross_parity_coefficients_are_exact_zeros():
    rule = build_ball_rule(3, 12)
    basis = build_basis(3, 5, rule)
    parity = np.array([[e % 2 for e in k] for k in basis.exponents])
    differs = np.any(parity[:, None, :] != parity[None, :, :], axis=2)
    assert np.all(basis.coeff_matrix[differs] == 0.0)


@pytest.mark.parametrize("d,s_max,exactness", [(2, 15, 32), (3, 15, 32), (4, 7, 16)])
def test_gram_identity_high_degree(d, s_max, exactness):
    basis = build_basis(d, s_max, build_ball_rule(d, exactness))
    gram = basis.gram_matrix()
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-10


def test_conditioning_error_when_parity_block_exceeds_nodes():
    # two nodes against the three even-parity monomials 1, x^2, y^2
    nodes = np.array([[0.1, 0.2], [-0.3, 0.4]])
    rule = QuadratureRule("ball", 2, nodes, np.full(2, math.pi / 2), 4)
    with pytest.raises(ConditioningError):
        build_basis(2, 2, rule)


def test_insufficient_exactness_rejected():
    rule = build_ball_rule(2, 3)
    with pytest.raises(ValueError):
        build_basis(2, 4, rule)
    with pytest.raises(ValueError, match="max degree must be >= 0, got -1"):
        build_basis(2, -1, rule)


def test_combine_matches_node_values(basis_factory):
    basis = basis_factory(2, 3)
    rng = np.random.default_rng(3)
    nodes = basis.rule.nodes
    for s in (3, 2):
        coeffs = rng.standard_normal(math.comb(s + 2, 2))   # the elements of degree <= s
        poly = basis.combine(coeffs)
        direct = coeffs @ basis.node_values[:len(coeffs)]
        assert np.max(np.abs(poly.eval_many(nodes) - direct)) < 1e-9


def test_combine_matches_constructor_path(rule_factory):
    basis = build_basis(3, 4, rule_factory(3, 10))
    rng = np.random.default_rng(3)
    for s in (0, 2, 4):
        count = math.comb(s + 3, 3)
        coeffs = rng.standard_normal(count)
        coeffs[::3] = 0.0
        for c in (coeffs, np.full(count, np.nan)):
            mono = c @ basis.coeff_matrix[np.arange(count)]
            expected = MultiIndexPolynomial(3, {
                k: v for k, v in zip(basis.exponents, mono) if v != 0.0})
            got = basis.combine(c)
            assert list(got.terms) == list(expected.terms)
            assert all(type(k) is MultiIndex for k in got.terms)
            # as text, where NaN coefficients compare equal
            assert json.dumps(got.to_json_dict()) == json.dumps(expected.to_json_dict())


def _random_polynomial(d, degree, rng):
    return MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, degree)})


@pytest.mark.parametrize("d,s_max", [(2, 12), (3, 8), (4, 6)])
def test_folded_projection_matches_dense_sum(d, s_max):
    rule = build_ball_rule(d, 2 * s_max)
    basis = build_basis(d, s_max, rule)

    def f(points):
        return np.exp(points @ np.linspace(0.3, 1.1, d)) + np.abs(points[:, 0] - 0.2)

    # a polynomial one degree above the basis takes the fold too
    p = _random_polynomial(d, s_max + 1, np.random.default_rng(d))
    node_values = basis.node_values
    for g in (f, p):
        fv = evaluate_on_nodes(g, rule)
        for s in range(s_max + 1):
            count = math.comb(s + d, d)
            dense = (node_values[:count] * rule.weights) @ fv
            got = project_coefficients(g, basis, s)
            assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("d,s_max", [(2, 12), (3, 8), (4, 6)])
def test_coefficient_projection_matches_quadrature_fold(d, s_max):
    # a covered polynomial projects as R a; its bound eval_many is a plain
    # callable, which takes the quadrature fold
    rule = build_ball_rule(d, 2 * s_max)
    basis = build_basis(d, s_max, rule)
    rng = np.random.default_rng(10 * d + s_max)
    for degree in (0, 1, s_max // 2, s_max):
        p = _random_polynomial(d, degree, rng)
        scale = max(abs(c) for c in p.terms.values())
        for s in sorted({0, degree, s_max}):
            got = project_coefficients(p, basis, s)
            folded = project_coefficients(p.eval_many, basis, s)
            assert np.max(np.abs(got - folded)) <= 1e-10 * scale, (degree, s)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("degree,match", [(3, "non-finite coefficient"),
                                          (5, "non-finite evaluation")])
def test_projection_rejects_non_finite_coefficients(bad, degree, match):
    # degree 3 is covered (R a), degree 5 is not (quadrature fold)
    basis = build_basis(2, 4, build_ball_rule(2, 10))
    terms = {k: 1.0 for k in monomials_up_to(2, degree)}
    terms[(1, degree - 1)] = bad
    with pytest.raises(ValueError, match=match):
        project_coefficients(MultiIndexPolynomial(2, terms), basis, 4)


def test_projection_rejects_dimension_mismatch():
    basis = build_basis(3, 4, build_ball_rule(3, 10))
    p = MultiIndexPolynomial(2, {(1, 1): 1.0})
    with pytest.raises(ValueError, match="dimension"):
        project_coefficients(p, basis, 4)


def test_basis_on_rule_without_mirror():
    rule = build_ball_rule(3, 10)
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
    rotated = QuadratureRule("ball", 3, rule.nodes @ q, rule.weights, rule.exactness_degree)
    basis = build_basis(3, 5, rotated)
    assert basis.orbits.axes == []
    assert np.max(np.abs(basis.gram_matrix() - np.eye(basis.size))) <= 1e-10


def test_chunked_gram_matches_dense(monkeypatch):
    rule = build_ball_rule(3, 10)
    basis = build_basis(3, 5, rule)
    values = basis.node_values
    dense = (values * rule.weights) @ values.T
    # 7 does not divide the node count, so the last chunk is short
    monkeypatch.setattr(orthobasis, "GRAM_CHUNK", 7)
    assert rule.node_count % 7
    assert np.max(np.abs(basis.gram_matrix() - dense)) <= 1e-14


def test_qr_failure_is_raised(monkeypatch):
    def failing_dgeqrt(nb, a, overwrite_a=False):
        return a, np.zeros((nb, min(a.shape))), -2

    # build_basis imports dgeqrt from scipy.linalg.lapack when it runs
    monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt", failing_dgeqrt)
    with pytest.raises(LinAlgError, match="info -2"):
        build_basis(2, 3, build_ball_rule(2, 6))


@pytest.mark.parametrize("d,s_max,exactness", [(2, 15, 32), (3, 10, 22), (4, 7, 16)])
def test_factored_build_matches_the_build_without_shells(d, s_max, exactness):
    # the same nodes and weights without shells are one unit radius over all
    # nodes: the QR of the unfactored weighted monomials
    rule = build_ball_rule(d, exactness)
    bare = QuadratureRule("ball", d, rule.nodes, rule.weights, exactness)
    factored, plain = build_basis(d, s_max, rule), build_basis(d, s_max, bare)
    assert len(factored.orbits.radii) == exactness // 2 + 1
    assert len(plain.orbits.radii) == 1
    scale = np.max(np.abs(plain.coeff_matrix))
    assert np.max(np.abs(factored.coeff_matrix - plain.coeff_matrix)) <= FACTORED_COEFF_TOL * scale
    for basis in (factored, plain):
        assert np.max(np.abs(basis.gram_matrix() - np.eye(basis.size))) <= 1e-10
