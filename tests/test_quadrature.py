import itertools
import math

import numpy as np
import pytest
from scipy.special import gamma, roots_jacobi

from ridgekit import quadrature
from ridgekit.polycore import MultiIndexPolynomial, monomials_up_to
from ridgekit.quadrature import (NODE_CAP, MirrorOrbits, NodeCapError,
                                 QuadratureRule, ball_sup_grid,
                                 ball_volume, build_ball_rule,
                                 build_sphere_rule, evaluate_on_nodes,
                                 inner_product, lq_norm, pointwise)

WEIGHT_SUM_TOL = 1e-12
EXACTNESS_TOL = 1e-10


def beta_moment_ball(k, d):
    """Independent oracle for the ball monomial moment via Gamma functions:
    zero when any exponent is odd, otherwise a surface Beta integral divided
    by |k| + d for the radial part."""
    if any(e % 2 for e in k):
        return 0.0
    num = 2.0 * np.prod([gamma((e + 1) / 2.0) for e in k])
    surface = num / gamma((sum(k) + d) / 2.0)
    return surface / (sum(k) + d)


def sphere_surface(d):
    """Oracle: the surface measure of S^(d-1) in R^d, d >= 2."""
    return 2 * math.pi ** (d / 2) / math.gamma(d / 2)


def beta_moment_sphere(k, m):
    if any(e % 2 for e in k):
        return 0.0
    num = 2.0 * np.prod([gamma((e + 1) / 2.0) for e in k])
    return num / gamma((sum(k) + m) / 2.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ball_weights_sum_to_volume(d):
    rule = build_ball_rule(d, 8)
    assert abs(rule.weights.sum() - ball_volume(d)) < WEIGHT_SUM_TOL


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sphere_weights_sum_to_surface(d):
    rule = build_sphere_rule(d - 1, 8)  # S^(d-1) in R^d
    assert abs(rule.weights.sum() - sphere_surface(d)) < WEIGHT_SUM_TOL


@pytest.mark.parametrize("d,degree", [(1, 10), (2, 9), (3, 8), (4, 6)])
def test_ball_monomial_exactness_against_beta_oracle(d, degree):
    rule = build_ball_rule(d, degree)
    for k in monomials_up_to(d, degree):
        value = float(np.sum(rule.weights * np.prod(rule.nodes ** np.array(k), axis=1)))
        assert abs(value - beta_moment_ball(k, d)) < EXACTNESS_TOL, k


@pytest.mark.parametrize("m,degree", [(2, 10), (3, 8), (4, 6)])
def test_sphere_monomial_exactness_against_beta_oracle(m, degree):
    rule = build_sphere_rule(m - 1, degree)
    for k in monomials_up_to(m, degree):
        if sum(k) > degree:
            continue
        value = float(np.sum(rule.weights * np.prod(rule.nodes ** np.array(k), axis=1)))
        assert abs(value - beta_moment_sphere(k, m)) < EXACTNESS_TOL, k


def test_sphere_nodes_on_unit_sphere():
    rule = build_sphere_rule(2, 7)
    assert rule.nodes.shape[1] == 3
    assert np.max(np.abs(np.linalg.norm(rule.nodes, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("exactness", [0, 5, 12])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_tensor_products_equal_a_loop_over_the_outer_factor(d, exactness):
    # each node coordinate and weight is one product of the two factors, so
    # the broadcast build equals this loop bitwise
    n = exactness // 2 + 1
    sub, sphere = build_sphere_rule(d - 2, exactness), build_sphere_rule(d - 1, exactness)
    u, wu = roots_jacobi(n, (d - 3) / 2, (d - 3) / 2)
    scale = np.sqrt(np.maximum(0.0, 1 - u**2))
    nodes = [np.append(scale[i] * x, u[i]) for i in range(n) for x in sub.nodes]
    weights = [wu[i] * w for i in range(n) for w in sub.weights]
    assert np.array(nodes).tobytes() == sphere.nodes.tobytes()
    assert np.array(weights).tobytes() == sphere.weights.tobytes()
    ball = build_ball_rule(d, exactness)
    x, w = roots_jacobi(n, 0.0, d - 1.0)
    radii, radial_w = (x + 1) / 2, w / 2**d
    nodes = [radii[i] * y for i in range(n) for y in sphere.nodes]
    weights = [radial_w[i] * v for i in range(n) for v in sphere.weights]
    assert np.array(nodes).tobytes() == ball.nodes.tobytes()
    assert np.array(weights).tobytes() == ball.weights.tobytes()


@pytest.mark.parametrize("exactness", [0, 5, 16, 32])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_ball_rule_shells_rebuild_its_nodes(d, exactness):
    rule = build_ball_rule(d, exactness)
    radii, sphere = rule.shells
    assert not radii.flags.writeable and not sphere.flags.writeable
    assert radii.shape == (exactness // 2 + 1,)
    assert sphere.tobytes() == build_sphere_rule(d - 1, exactness).nodes.tobytes()
    assert (radii[:, None, None] * sphere).reshape(-1, d).tobytes() == rule.nodes.tobytes()


def test_only_ball_rules_in_two_or_more_dimensions_have_shells():
    rule = build_ball_rule(3, 6)
    assert build_ball_rule(1, 6).shells is None
    assert build_sphere_rule(2, 6).shells is None
    assert QuadratureRule("ball", 3, rule.nodes, rule.weights, 6).shells is None


def test_refinement_stability():
    # integrating a fixed polynomial with rules of increasing exactness must
    # return the same value once the degree is covered
    rng = np.random.default_rng(3)
    p = MultiIndexPolynomial(2, {k: rng.standard_normal() for k in monomials_up_to(2, 4)})
    values = []
    for exactness in (4, 6, 10, 16):
        rule = build_ball_rule(2, exactness)
        values.append(float(np.sum(rule.weights * p.eval_many(rule.nodes))))
    assert max(abs(v - values[0]) for v in values) < EXACTNESS_TOL


def test_node_cap_error():
    # about 2e10 nodes, refused before anything is allocated
    with pytest.raises(NodeCapError):
        build_ball_rule(6, 200)


def test_interval_rule_checks_the_node_cap(monkeypatch):
    monkeypatch.setattr(quadrature, "NODE_CAP", 10)
    with pytest.raises(NodeCapError, match="21 nodes"):
        build_ball_rule(1, 40)


def test_inner_product_symmetry_and_positivity():
    rule = build_ball_rule(2, 6)
    rng = np.random.default_rng(4)
    p = MultiIndexPolynomial(2, {k: rng.standard_normal() for k in monomials_up_to(2, 2)})
    q = MultiIndexPolynomial(2, {k: rng.standard_normal() for k in monomials_up_to(2, 2)})
    assert abs(inner_product(p, q, rule) - inner_product(q, p, rule)) < 1e-13
    assert inner_product(p, p, rule) > 0


def test_lq_norm_constant_function():
    rule = build_ball_rule(3, 4)
    one = MultiIndexPolynomial.constant(3, 1.0)
    assert abs(lq_norm(one, rule, 2) - math.sqrt(ball_volume(3))) < 1e-12
    assert abs(lq_norm(one, rule, 1) - ball_volume(3)) < 1e-12
    assert abs(lq_norm(one, rule, math.inf) - 1.0) < 1e-12


@pytest.mark.parametrize("q", [0.5, -math.inf, math.nan])
def test_lq_norm_rejects_q_below_one_and_nan(q):
    with pytest.raises(ValueError, match="q must be >= 1 or inf"):
        lq_norm(MultiIndexPolynomial.constant(2, 1.0), build_ball_rule(2, 4), q)


def test_lq_norm_monomial_oracle():
    # ||x||_{L^2(B^1)} = sqrt(2/3) on [-1, 1]
    rule = build_ball_rule(1, 6)
    p = MultiIndexPolynomial.monomial((1,))
    assert abs(lq_norm(p, rule, 2) - math.sqrt(2.0 / 3.0)) < 1e-12


def test_ball_sup_grid_deterministic_and_inside():
    g1 = ball_sup_grid(3, 500)
    g2 = ball_sup_grid(3, 500)
    assert np.array_equal(g1, g2)
    assert np.max(np.linalg.norm(g1, axis=1)) <= 1.0 + 1e-12
    assert np.all(g1[0] == 0.0)


def _set_entry(array, value):
    array = np.array(array, dtype=float)
    array.flat[1] = value
    return array


@pytest.mark.parametrize("domain,dim,nodes,weights,exactness,match", [
    ("ball", 3, np.zeros((4, 2)), np.ones(4), 2, r"shape \(n, 3\)"),
    ("ball", 2, np.zeros((4, 2)), np.ones(3), 2, "shape mismatch"),
    ("ball", 2, np.zeros((4, 2)), _set_entry(np.ones(4), math.nan), 2, "weights"),
    ("ball", 2, np.zeros((4, 2)), _set_entry(np.ones(4), math.inf), 2, "weights"),
    ("ball", 2, _set_entry(np.zeros((4, 2)), math.nan), np.ones(4), 2, "nodes must be finite"),
    ("ball", 2, _set_entry(np.zeros((4, 2)), -math.inf), np.ones(4), 2, "nodes must be finite"),
    ("ball", 2, np.zeros((4, 2)), np.ones(4), -3, "exactness degree must be >= 0"),
    ("ball", 2, np.array([[5.0, 5.0]]), np.ones(1), 2, r"node \[5.0, 5.0\] is not on the ball"),
    ("sphere", 2, np.array([[1.0, 0.0], [0.0, 0.5]]), np.ones(2), 2,
     r"node \[0.0, 0.5\] is not on the sphere"),
], ids=["width", "count", "nan-weight", "inf-weight", "nan-node", "inf-node",
        "negative-exactness", "outside-ball", "off-sphere"])
def test_rule_rejects_unusable_input(domain, dim, nodes, weights, exactness, match):
    with pytest.raises(ValueError, match=match):
        QuadratureRule(domain, dim, nodes, weights, exactness)


def test_polynomial_vectorised_and_scalar_callables_evaluate_alike():
    rule = build_ball_rule(2, 6)
    p = MultiIndexPolynomial(2, {(2, 0): 1.5, (0, 1): -2.0, (0, 0): 0.25})
    vectorised = lambda pts: 1.5 * pts[:, 0] ** 2 - 2.0 * pts[:, 1] + 0.25

    def scalar(x):
        if np.ndim(x) != 1:
            raise TypeError("one point at a time")
        return 1.5 * x[0] ** 2 - 2.0 * x[1] + 0.25

    expected = evaluate_on_nodes(p, rule)
    assert expected.shape == (rule.node_count,)
    for f in (vectorised, pointwise(scalar)):
        assert np.allclose(evaluate_on_nodes(f, rule), expected, rtol=0, atol=1e-14)
        assert abs(lq_norm(f, rule, math.inf) - lq_norm(p, rule, math.inf)) < 1e-14


def test_vectorised_callable_errors_propagate():
    rule = build_ball_rule(2, 4)

    def broken(points):
        raise ValueError("bug in f")

    with pytest.raises(ValueError, match="bug in f"):
        evaluate_on_nodes(broken, rule)
    with pytest.raises(ValueError, match="bug in f"):
        lq_norm(broken, rule, math.inf)


def test_non_finite_coefficient_raises_the_evaluation_error():
    # inf * 0 in the evaluation is NaN; the caller gets the ValueError, not
    # numpy's invalid-value warning (an error under this suite's filter)
    p = MultiIndexPolynomial(2, {(1, 0): math.inf, (0, 1): 1.0})
    rule = build_ball_rule(2, 6)
    with pytest.raises(ValueError, match="non-finite evaluation at node"):
        evaluate_on_nodes(p, rule)


@pytest.mark.parametrize("sup_grid", [None, ball_sup_grid(2, 64)], ids=["nodes", "grid"])
def test_sup_norm_rejects_non_finite_values(sup_grid):
    # the sup norm takes the same checked evaluation as every finite q
    p = MultiIndexPolynomial(2, {(1, 0): math.inf, (0, 1): 1.0})
    with pytest.raises(ValueError, match="non-finite evaluation at node"):
        lq_norm(p, build_ball_rule(2, 6), math.inf, sup_grid=sup_grid)


@pytest.mark.parametrize("exactness", [4, 7, 10])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_ball_rule_mirror_axes(d, exactness):
    rule = build_ball_rule(d, exactness)
    orbits = MirrorOrbits(rule)
    assert orbits.axes == ([0] if d == 1 else list(range(1, d)))
    mirrored = orbits.representatives[:, orbits.axes]
    assert np.array_equal(mirrored, np.abs(mirrored))
    assert abs(orbits.weights.sum() - rule.weights.sum()) < WEIGHT_SUM_TOL
    # each node is its representative with the signs of its reflected coordinates
    expanded = orbits.representatives[orbits.index]
    expanded[:, orbits.axes] *= orbits.node_signs
    assert np.array_equal(expanded, rule.nodes)
    # a parity's signs are the product over its odd mirror axes, computed once
    for parity in itertools.product((0, 1), repeat=d):
        signs = orbits.signs(parity)
        odd = [i for i, j in enumerate(orbits.axes) if parity[j]]
        assert np.array_equal(signs, np.prod(orbits.node_signs[:, odd], axis=1))
        assert orbits.signs(parity) is signs and not signs.flags.writeable


@pytest.mark.parametrize("d,exactness,count", [(3, 32, 2601), (4, 16, 2025)])
def test_mirror_orbit_counts(d, exactness, count):
    assert MirrorOrbits(build_ball_rule(d, exactness)).count == count


def test_one_ulp_perturbation_loses_the_axis():
    rule = build_ball_rule(3, 6)
    nodes = rule.nodes.copy()
    # a node on the plane x_1 = 0 stays its own x_1-mirror when x_2 moves
    i = np.flatnonzero((nodes[:, 1] == 0.0) & (nodes[:, 2] != 0.0))[0]
    nodes[i, 2] = np.nextafter(nodes[i, 2], np.inf)
    perturbed = QuadratureRule("ball", 3, nodes, rule.weights, rule.exactness_degree)
    assert MirrorOrbits(rule).axes == [1, 2]
    assert MirrorOrbits(perturbed).axes == [1]


def test_rule_without_mirror_has_one_node_orbits():
    rule = build_ball_rule(2, 6)
    c, s = math.cos(0.3), math.sin(0.3)
    rotated = QuadratureRule("ball", 2, rule.nodes @ np.array([[c, s], [-s, c]]),
                             rule.weights, rule.exactness_degree)
    orbits = MirrorOrbits(rotated)
    assert orbits.axes == []
    assert orbits.count == rotated.node_count
    values = np.cos(rotated.nodes[:, 0])
    assert np.array_equal(orbits.fold(values, (1, 1))[orbits.index], rotated.weights * values)


def test_one_ulp_weight_mismatch_loses_the_axis():
    rule = build_ball_rule(2, 6)
    weights = rule.weights.copy()
    i = np.flatnonzero(rule.nodes[:, 1] != 0.0)[0]
    weights[i] = np.nextafter(weights[i], np.inf)
    perturbed = QuadratureRule("ball", 2, rule.nodes, weights, rule.exactness_degree)
    assert MirrorOrbits(rule).axes == [1]
    assert MirrorOrbits(perturbed).axes == []


def test_negative_zero_coordinates_keep_the_axis():
    rule = build_ball_rule(3, 6)
    nodes = rule.nodes.copy()
    # the x_2-mirror of this node keeps x_1 = +0.0
    i = np.flatnonzero((nodes[:, 1] == 0.0) & (nodes[:, 2] != 0.0))[0]
    nodes[i, 1] = -0.0
    signed = QuadratureRule("ball", 3, nodes, rule.weights, rule.exactness_degree)
    plain, orbits = MirrorOrbits(rule), MirrorOrbits(signed)
    assert orbits.axes == plain.axes == [1, 2]
    assert np.array_equal(orbits.representatives, plain.representatives)
    assert np.array_equal(orbits.index, plain.index)
    assert np.array_equal(orbits.weights, plain.weights)


def test_centrally_symmetric_rule_has_no_mirror():
    # x -> -x flips every coordinate at once, so each axis sees balanced signs
    # in every group of equal |x|, but no single coordinate flip is a symmetry
    half = np.random.default_rng(5).uniform(-0.6, 0.6, size=(6, 2))
    rule = QuadratureRule("ball", 2, np.vstack([half, -half]), np.full(12, math.pi / 12), 1)
    orbits = MirrorOrbits(rule)
    assert orbits.axes == []
    assert orbits.count == 12


def brute_force_orbits(rule):
    """Mirror axes by comparing the sorted (node, weight) rows with their
    reflections, and orbit weights keyed by representative."""
    rows = [tuple(x) + (w,) for x, w in zip(rule.nodes.tolist(), rule.weights.tolist())]
    axes = [j for j in range(rule.dim)
            if sorted(r[:j] + (-r[j],) + r[j + 1:] for r in rows) == sorted(rows)]
    weights = {}
    for r in rows:
        key = tuple(abs(v) if j in axes else v for j, v in enumerate(r[:-1]))
        weights[key] = weights.get(key, 0.0) + r[-1]
    return axes, weights


@pytest.mark.parametrize("d,exactness", [(2, 9), (2, 12), (3, 7), (3, 10), (4, 6)])
def test_mirror_orbits_match_brute_force(d, exactness):
    rule = build_ball_rule(d, exactness)
    orbits = MirrorOrbits(rule)
    axes, weights = brute_force_orbits(rule)
    assert orbits.axes == axes
    representatives = [tuple(x) for x in orbits.representatives.tolist()]
    assert set(representatives) == set(weights)
    assert [weights[x] for x in representatives] == orbits.weights.tolist()
