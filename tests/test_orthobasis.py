import math

import numpy as np
import pytest

from ridgekit.orthobasis import (ConditioningError, build_basis,
                                 project_coefficients)
from ridgekit.polycore import MultiIndex, MultiIndexPolynomial, monomials_up_to
from ridgekit.quadrature import QuadratureRule, build_ball_rule

GRAM_TOL = 1e-8
ORACLE_TOL = 1e-12


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


def test_index_set_and_graded_block_sizes(basis_factory):
    basis = basis_factory(2, 5)
    for s in range(6):
        assert len(basis.index_set(s)) == math.comb(s + 2, 2)
        block = basis.graded_block(s)
        assert len(block) == math.comb(s + 2, 2) - (math.comb(s + 1, 2) if s else 0)


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
    q = basis.combine(coeffs, basis.index_set(3))
    diff = p - q
    worst = max((abs(c) for c in diff.terms.values()), default=0.0)
    assert worst < 1e-10


def test_projection_drops_orthogonal_component(basis_factory):
    basis = basis_factory(2, 4)
    rng = np.random.default_rng(1)
    low = MultiIndexPolynomial(2, {k: rng.standard_normal() for k in monomials_up_to(2, 2)})
    high = basis.polys[basis.graded_block(4)[0]]
    coeffs = project_coefficients(low + high.scale(3.0), basis, 2)
    q = basis.combine(coeffs, basis.index_set(2))
    diff = low - q
    worst = max((abs(c) for c in diff.terms.values()), default=0.0)
    assert worst < 1e-10


def test_ordering_invariance_of_projection():
    # projecting onto the full degree-s space must not depend on the
    # within-degree ordering used during orthogonalization
    rule = build_ball_rule(2, 12)
    b_fwd = build_basis(2, 4, rule, order="grlex")
    b_rev = build_basis(2, 4, rule, order="grlex_reversed")
    rng = np.random.default_rng(2)

    def f(points):
        points = np.atleast_2d(points)
        return np.exp(points[:, 0] - 0.5 * points[:, 1] ** 2)

    q_fwd = b_fwd.combine(project_coefficients(f, b_fwd, 3), b_fwd.index_set(3))
    q_rev = b_rev.combine(project_coefficients(f, b_rev, 3), b_rev.index_set(3))
    diff = q_fwd - q_rev
    worst = max((abs(c) for c in diff.terms.values()), default=0.0)
    assert worst < 1e-9


def test_conditioning_error_on_degenerate_rule():
    # a single-node "rule" cannot distinguish polynomials: the second basis
    # candidate has numerically zero norm
    rule = QuadratureRule("ball", 1, np.array([[0.0]]), np.array([2.0]), 4)
    with pytest.raises(ConditioningError):
        build_basis(1, 2, rule)


@pytest.mark.parametrize("order", ["grlex", "grlex_reversed"])
def test_cross_parity_coefficients_are_exact_zeros(order):
    rule = build_ball_rule(3, 12)
    basis = build_basis(3, 5, rule, order=order)
    parity = np.array([[e % 2 for e in k] for k in basis.exponents])
    differs = np.any(parity[:, None, :] != parity[None, :, :], axis=2)
    assert np.all(basis.coeff_matrix[differs] == 0.0)


@pytest.mark.parametrize("d,s_max,exactness", [(2, 15, 32), (4, 7, 16)])
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


def test_combine_matches_node_values(basis_factory):
    basis = basis_factory(2, 3)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(len(basis.index_set(3)))
    poly = basis.combine(coeffs, basis.index_set(3))
    nodes = basis.rule.nodes
    direct = coeffs @ basis.node_values[basis.index_set(3)]
    assert np.max(np.abs(poly.eval_many(nodes) - direct)) < 1e-9


@pytest.mark.parametrize("order", ["grlex", "grlex_reversed"])
def test_combine_matches_constructor_path(rule_factory, order):
    basis = build_basis(3, 4, rule_factory(3, 10), order=order)
    rng = np.random.default_rng(3)
    for s in (0, 2, 4):
        idx = basis.index_set(s)
        coeffs = rng.standard_normal(len(idx))
        coeffs[::3] = 0.0
        for c in (coeffs, np.full(len(idx), np.nan)):
            mono = c @ basis.coeff_matrix[idx]
            expected = MultiIndexPolynomial(3, {
                k: v for k, v in zip(basis.exponents, mono) if v != 0.0})
            got = basis.combine(c, idx)
            assert list(got.terms) == list(expected.terms)
            assert all(type(k) is MultiIndex for k in got.terms)
            assert got.to_json() == expected.to_json()
