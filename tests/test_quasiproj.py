import math

import numpy as np
import pytest

from ridgekit.polycore import MultiIndexPolynomial, _grlex_multi_indices, monomials_up_to
from ridgekit.quadrature import evaluate_on_nodes, lq_norm
from ridgekit.quasiproj import (CutoffFunction, QuasiProjector, _bump_trial, _rows_on_nodes,
                                cesaro_mean, estimate_l1_operator_norm, forward_difference,
                                mollifier, smooth_step, verify_cesaro_identity)

FIXED_POINT_TOL = 1e-10
IDENTITY_TOL = 1e-10


def coeff_max(poly):
    return max((abs(c) for c in poly.terms.values()), default=0.0)


def test_mollifier_and_step_limits():
    assert mollifier(-1.0) == 0.0
    assert mollifier(0.0) == 0.0
    assert mollifier(1.0) == math.exp(-1.0)
    assert smooth_step(-0.5) == 0.0
    assert smooth_step(1.5) == 1.0
    assert 0.0 < smooth_step(0.5) < 1.0
    mid = smooth_step(np.linspace(0.1, 0.9, 9))
    assert np.all(np.diff(mid) > 0)


def test_smooth_step_matches_two_exponential_formula_bitwise():
    # the formula that evaluates both exponentials everywhere, which the
    # step skips outside (0, 1) where it is exactly 0 or 1
    def reference(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        a, b = np.zeros_like(t), np.zeros_like(t)
        a[t > 0] = np.exp(-1.0 / t[t > 0])
        b[t < 1] = np.exp(-1.0 / (1.0 - t[t < 1]))
        return a / (a + b)

    ts = np.concatenate([[-np.inf, -3.0, -1e-300, -0.0, 0.0, 1e-300, 1e-3, 0.5,
                          1 - 2 ** -53, 1.0, 1 + 2 ** -52, 2.0, np.inf],
                         np.linspace(-0.5, 1.5, 201)])
    assert smooth_step(ts).tobytes() == reference(ts).tobytes()
    for t in ts:
        value = smooth_step(float(t))
        assert isinstance(value, float)
        assert np.float64(value).tobytes() == reference(t)[0].tobytes()
    assert math.isnan(smooth_step(math.nan))


def test_cutoff_plateau_and_support():
    eta = CutoffFunction()
    assert eta(0.0) == 1.0
    assert eta(1.0) == 1.0
    assert eta(-1.0) == 1.0
    assert eta(2.0) == 0.0
    assert eta(2.5) == 0.0
    assert 0.0 < eta(1.5) < 1.0


def test_projector_fixes_low_degree(basis_factory):
    d, s = 2, 3
    basis = basis_factory(d, 2 * s - 1, 4 * s + 2)
    proj = QuasiProjector(basis, s)
    rng = np.random.default_rng(0)
    p = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, s)})
    assert coeff_max(proj.apply(p) - p) < FIXED_POINT_TOL


@pytest.mark.parametrize("d,s", [(3, 6), (2, 8)])
def test_projector_fixes_polynomials_to_round_off(basis_factory, d, s):
    # the coefficient-space projection R a recovers a up to round-off
    basis = basis_factory(d, 2 * s - 1, 4 * s + 2)
    rng = np.random.default_rng(d + s)
    p = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, s)})
    image = QuasiProjector(basis, s).apply(p)
    assert lq_norm(image - p, basis.rule, 2) <= 1e-14 * lq_norm(p, basis.rule, 2)


def test_projector_is_linear(basis_factory):
    d, s = 2, 2
    basis = basis_factory(d, 2 * s - 1, 4 * s + 2)
    proj = QuasiProjector(basis, s)
    rng = np.random.default_rng(1)
    p = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, 4)})
    q = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, 4)})
    combo = proj.apply(p.scale(2.0) + q.scale(-0.5))
    parts = proj.apply(p).scale(2.0) + proj.apply(q).scale(-0.5)
    assert coeff_max(combo - parts) < 1e-9


def test_projector_range_degree(basis_factory):
    d, s = 2, 2
    basis = basis_factory(d, 2 * s - 1, 4 * s + 2)
    proj = QuasiProjector(basis, s)
    rng = np.random.default_rng(2)
    p = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, 6)})
    assert proj.apply(p).degree() <= 2 * s - 1


def test_projector_kills_degree_2s_basis_element(basis_factory):
    d, s = 2, 2
    basis = basis_factory(d, 2 * s, 4 * s + 4)
    proj = QuasiProjector(basis, s)
    high = basis.polys[math.comb(2 * s - 1 + d, d)]    # the first element of degree 2s
    assert basis.degrees[math.comb(2 * s - 1 + d, d)] == 2 * s
    assert coeff_max(proj.apply(high)) < 1e-9


def test_forward_difference_annihilates_low_degree_sequences():
    # Delta^(sigma+1) kills sequences polynomial in k of degree <= sigma
    for sigma in (0, 1, 2):
        g = lambda k: 3.0 * k ** sigma - k + 2.0 if sigma else 5.0
        assert abs(forward_difference(g, sigma, 4)) < 1e-9


def test_forward_difference_oracle():
    g = lambda k: 2.0 ** k
    # Delta g = g(k) - g(k+1) = -2^k; Delta^2 g = 2^k
    assert forward_difference(g, 0, 3) == -(2.0 ** 3)
    assert forward_difference(g, 1, 3) == 2.0 ** 3


def test_cesaro_order_zero_is_truncation(basis_factory):
    d = 2
    basis = basis_factory(d, 4)
    rng = np.random.default_rng(3)
    p = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, 4)})
    s0 = cesaro_mean(p, 4, 0, basis)
    assert coeff_max(s0 - p) < 1e-9


def test_cesaro_identity(basis_factory):
    d, s = 2, 2
    basis = basis_factory(d, 2 * s - 1, 4 * s + 2)
    proj = QuasiProjector(basis, s)
    rng = np.random.default_rng(4)
    p = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, 3)})
    for sigma in (0, 1, 2):
        assert verify_cesaro_identity(proj, p, sigma) < IDENTITY_TOL


def test_norm_estimate_monotone_in_trials(basis_factory):
    d, s = 2, 2
    basis = basis_factory(d, 2 * s - 1, 4 * s + 2)
    proj = QuasiProjector(basis, s)
    small = estimate_l1_operator_norm(proj, 4, seed=0)
    large = estimate_l1_operator_norm(proj, 8, seed=0)
    assert large >= small  # per-trial seeding extends, never replaces
    assert small >= 0.9  # the projector fixes constants, so the norm is near 1+


@pytest.mark.parametrize("d,max_degree,exactness,s_list", [
    (2, 15, 48, (1, 2, 5, 8)),      # trial degrees 4, 8, 20, 32
    (3, 5, 12, (1, 2, 3)),          # trial degrees 4, 7, 7
])
def test_batched_trials_equal_constructor_built_polynomials(basis_factory, d, max_degree,
                                                            exactness, s_list):
    # the estimate evaluates its polynomial trials from their coefficients,
    # all in one stacked contraction, without building them
    basis = basis_factory(d, max_degree, exactness)
    rule = basis.rule
    for s in s_list:
        if 2 * s - 1 > max_degree:
            continue
        degree = max(1, min(4 * s, exactness - max_degree))
        keys = monomials_up_to(d, degree)
        draws = np.array([np.random.default_rng([5, s, t]).standard_normal(len(keys))
                          for t in range(4)])
        values = _rows_on_nodes(_grlex_multi_indices(d, degree), draws, rule)
        assert values.shape == (4, rule.node_count)
        for row, draw in zip(values, draws):
            expected = MultiIndexPolynomial(d, dict(zip(keys, draw.tolist())))
            assert row.tobytes() == expected.eval_many(rule.nodes).tobytes()


def reference_l1_operator_norm(proj, trial_count, seed):
    """The estimate as one polynomial per trial: build the trial, evaluate it
    on the nodes, project it and take the image's L1 norm with lq_norm."""
    basis, rule, d = proj.basis, proj.basis.rule, proj.basis.dim
    degree = max(1, min(4 * proj.s, rule.exactness_degree - basis.max_degree))
    keys = monomials_up_to(d, degree)
    best = 0.0
    for t in range(trial_count):
        rng = np.random.default_rng([seed, t])
        if t % 2 == 0:
            trial = MultiIndexPolynomial(d, dict(zip(keys, rng.standard_normal(len(keys)).tolist())))
        else:
            trial = _bump_trial(d, rng)
        values = evaluate_on_nodes(trial, rule)
        on_nodes = lambda points: values
        denom = lq_norm(on_nodes, rule, 1)
        if denom < 1e-14:
            continue
        image = proj.apply(on_nodes)
        best = max(best, lq_norm(image, rule, 1) / denom)
    return best


@pytest.mark.parametrize("d,max_degree,exactness,s_range,trials", [
    (2, 15, 48, range(1, 9), 16),     # acceptance_03's estimates
    (3, 5, 12, range(1, 4), 16),
    (1, 9, 20, range(1, 6), 16),
    (2, 7, 16, range(1, 5), 7),       # an odd count ends on a polynomial trial
])
def test_l1_estimate_matches_per_trial_reference_bitwise(basis_factory, d, max_degree,
                                                          exactness, s_range, trials):
    basis = basis_factory(d, max_degree, exactness)
    for s in s_range:
        proj = QuasiProjector(basis, s)
        got = estimate_l1_operator_norm(proj, trials, seed=103)
        assert got.hex() == reference_l1_operator_norm(proj, trials, 103).hex(), s


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_batched_non_finite_coefficient_raises_value_error(rule_factory, bad):
    # inf * 0 in the contraction would warn; the pytest configuration turns
    # RuntimeWarning into an error, so only the package's message passes
    rule = rule_factory(2, 8)
    keys = _grlex_multi_indices(2, 3)
    rows = np.ones((3, len(keys)))
    rows[1, 4] = bad
    with pytest.raises(ValueError, match="non-finite evaluation at node"):
        _rows_on_nodes(keys, rows, rule)


def test_projector_requires_covering_basis(basis_factory):
    basis = basis_factory(2, 2)
    with pytest.raises(ValueError):
        QuasiProjector(basis, 2)  # needs degree 3
