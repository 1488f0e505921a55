import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgekit
from conftest import dd_linear, dd_poly_values, dd_total
from ridgekit.compensated import U
from ridgekit.polycore import (MultiIndexPolynomial, dim_homogeneous,
                               _homogeneous_exponents, monomials_up_to)
from ridgekit.quadrature import ball_sup_grid
from ridgekit.ridge_real import (DecompositionError, DirectionSet,
                                 RidgeDecomposition, SpanningError,
                                 build_block_matrices,
                                 decompose, lifted_power_matrix,
                                 orthonormalize_rows,
                                 sample_spanning_directions, spanning_rank)

RESIDUAL_TOL = 1e-8


def random_poly(d, degree, seed):
    rng = np.random.default_rng(seed)
    return MultiIndexPolynomial(d, {k: rng.standard_normal()
                                    for k in monomials_up_to(d, degree)})


def test_lifted_power_matrix_oracle():
    # (a . x)^2 for a = (1, 2): coefficients of x^2, xy, y^2 are 1, 4, 4
    mat = lifted_power_matrix(np.array([[1.0, 2.0]]), 2)
    assert mat.shape == (1, 3)
    assert sorted(mat[0]) == [1.0, 4.0, 4.0]


def test_spanning_rank_full_and_deficient():
    n = dim_homogeneous(2, 3)  # = 4
    dirs = sample_spanning_directions(2, 3, n, seed=0)
    rank, cond = spanning_rank(dirs.vectors, 3)
    assert rank == n and np.isfinite(cond)
    rank_def, _ = spanning_rank(dirs.vectors[: n - 1], 3)
    assert rank_def < n


def test_sample_requires_enough_directions():
    with pytest.raises(ValueError):
        sample_spanning_directions(2, 3, dim_homogeneous(2, 3) - 1)


def test_repeated_direction_fails_rank():
    vecs = np.tile(np.array([[1.0, 0.0]]), (4, 1))
    rank, _ = spanning_rank(vecs, 3)
    assert rank == 1


def test_block_matrix_shape():
    dirs = sample_spanning_directions(2, 2, dim_homogeneous(2, 2), seed=1)
    mats = build_block_matrices(dirs, d=3, ell=2)
    for A, a in zip(mats, dirs.vectors):
        assert A.shape == (2, 3)
        assert np.array_equal(A[0, :2], a)
        assert A[0, 2] == 0.0
        assert np.array_equal(A[1], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("d,ell,s", [(2, 1, 3), (3, 1, 2), (3, 2, 3), (4, 3, 2)])
def test_decompose_reconstructs(d, ell, s):
    m = d - ell + 1
    P = random_poly(d, s, seed=d * 10 + ell)
    dirs = sample_spanning_directions(m, s, dim_homogeneous(m, s), seed=0)
    dec = decompose(P, dirs, d, ell)
    grid = ball_sup_grid(d, 400, seed=5)
    assert np.max(np.abs(dec.eval_many(grid) - P.eval_many(grid))) < RESIDUAL_TOL
    assert dec.residual < RESIDUAL_TOL * (1 + np.max(np.abs(P.eval_many(grid))))


def test_decompose_profile_count_matches_directions():
    d, ell, s = 3, 2, 2
    m = d - ell + 1
    dirs = sample_spanning_directions(m, s, dim_homogeneous(m, s), seed=2)
    dec = decompose(random_poly(d, s, seed=7), dirs, d, ell)
    assert dec.count == dirs.count
    for prof in dec.profiles:
        assert prof.dim == ell
        assert prof.degree() <= 2 * s  # power part + passthrough variables


def test_decompose_rejects_high_degree():
    dirs = sample_spanning_directions(2, 2, dim_homogeneous(2, 2), seed=0)
    with pytest.raises(ValueError):
        decompose(random_poly(3, 3, seed=1), dirs, 3, 2)


def test_eval_ridge_matches_manual():
    d, ell, s = 3, 2, 2
    dirs = sample_spanning_directions(2, s, dim_homogeneous(2, s), seed=3)
    dec = decompose(random_poly(d, s, seed=9), dirs, d, ell)
    x = np.array([0.2, -0.1, 0.4])
    manual = sum(float(P.eval_many((A @ x)[None, :])[0])
                 for A, P in zip(dec.matrices, dec.profiles))
    assert abs(float(dec.eval_many(x[None, :])[0]) - manual) < 1e-12


def test_fixed_seed_determinism():
    a = sample_spanning_directions(3, 2, dim_homogeneous(3, 2), seed=11)
    b = sample_spanning_directions(3, 2, dim_homogeneous(3, 2), seed=11)
    assert np.array_equal(a.vectors, b.vectors)


def test_orthonormalize_rows_preserves_values():
    d, ell, s = 3, 2, 2
    dirs = sample_spanning_directions(2, s, dim_homogeneous(2, s), seed=4)
    dec = decompose(random_poly(d, s, seed=13), dirs, d, ell)
    grid = ball_sup_grid(d, 200, seed=6)
    for A, P in zip(dec.matrices, dec.profiles):
        A2, P2 = orthonormalize_rows(A, P)
        assert np.max(np.abs(A2 @ A2.T - np.eye(ell))) < 1e-12
        before = P.eval_many(grid @ A.T)
        after = P2.eval_many(grid @ A2.T)
        assert np.max(np.abs(before - after)) < 1e-9


def test_json_round_trip():
    d, ell, s = 3, 2, 2
    dirs = sample_spanning_directions(2, s, dim_homogeneous(2, s), seed=5)
    dec = decompose(random_poly(d, s, seed=17), dirs, d, ell)
    clone = RidgeDecomposition.from_json_dict(json.loads(json.dumps(dec.to_json_dict())))
    grid = ball_sup_grid(d, 100, seed=7)
    assert np.max(np.abs(clone.eval_many(grid) - dec.eval_many(grid))) < 1e-12


def test_lifted_power_matrix_rows_are_power_coefficients():
    rng = np.random.default_rng(7)
    m, s = 3, 5
    vectors = rng.standard_normal((6, m))
    mat = lifted_power_matrix(vectors, s)
    exps = _homogeneous_exponents(m, s)
    assert mat.shape == (6, len(exps))
    x = rng.standard_normal((10, m))
    for a, row in zip(vectors, mat):
        power = MultiIndexPolynomial(m, dict(zip(exps, row)))
        assert np.allclose(power.eval_many(x), (x @ a) ** s, rtol=1e-12, atol=1e-12)


def test_direction_set_copies_and_freezes_vectors():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    dirs = DirectionSet(2, 2, vectors)
    assert vectors.flags.writeable
    assert not dirs.vectors.flags.writeable
    assert all(not block.pinv.flags.writeable for block in dirs.blocks)
    vectors[0] = 0.0
    assert dirs.vectors[0, 0] == 1.0


def test_ridge_decomposition_leaves_caller_matrices_writeable():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    dec = RidgeDecomposition(3, 2, [A], [MultiIndexPolynomial(2, {(1, 0): 1.0})])
    assert A.flags.writeable
    assert not dec.matrices[0].flags.writeable


def test_direction_set_factors_are_least_norm_solvers():
    dirs = sample_spanning_directions(3, 3, dim_homogeneous(3, 3), seed=8)
    rng = np.random.default_rng(9)
    assert list(dirs.span.rows) == monomials_up_to(3, 3)
    for j, block in enumerate(dirs.blocks):
        columns = lifted_power_matrix(dirs.vectors, j).T
        rhs = rng.standard_normal(columns.shape[0])
        expected, *_ = np.linalg.lstsq(columns, rhs, rcond=None)
        assert np.allclose(block.pinv @ rhs, expected, rtol=1e-10, atol=1e-12)
        assert block.rank == block.size == columns.shape[0]
    assert dirs.condition_number == dirs.blocks[-1].condition


def test_non_spanning_direction_set_raises_with_rank_and_condition():
    dirs = DirectionSet(2, 3, np.tile([[1.0, 0.0]], (4, 1)))  # one direction, repeated
    with pytest.raises(ridgekit.DecompositionError, match=r"degree 3 rank 1 of 4") as info:
        decompose(random_poly(3, 3, seed=2), dirs, 3, 2)
    assert "condition number" in str(info.value)


@st.composite
def real_cases(draw):
    d = draw(st.integers(2, 4))
    ell = draw(st.integers(1, d - 1))
    s = draw(st.integers(0, 5))
    coeffs = st.integers(-1000, 1000).map(lambda v: v / 100)
    terms = draw(st.dictionaries(st.sampled_from(monomials_up_to(d, s)), coeffs))
    return d, ell, s, MultiIndexPolynomial(d, terms), draw(st.integers(0, 2 ** 16))


@settings(max_examples=40, deadline=None)
@given(real_cases())
def test_residual_bounds_sampled_error(case):
    # The residual is a certificate: no grid point may show a larger error.
    # The error is evaluated in double-double, because the rounding of a
    # double evaluation can exceed a certificate near round-off; `slack`
    # bounds the rounding of the double-double evaluation.
    d, ell, s, P, seed = case
    m = d - ell + 1
    dirs = sample_spanning_directions(m, s, dim_homogeneous(m, s), seed=seed)
    dec = decompose(P, dirs, d, ell)
    grid = ball_sup_grid(d, 512)
    terms = [(list(P.terms), [-float(c) for c in P.terms.values()],
              (grid, np.zeros_like(grid)))]
    terms += [(list(prof.terms), list(prof.terms.values()), dd_linear(grid, A))
              for A, prof in zip(dec.matrices, dec.profiles)]
    values = [dd_poly_values(*term) for term in terms]
    error = dd_total(tuple(np.stack(part) for part in zip(*values)))
    slack = 1e3 * U ** 2 * sum(abs(c) for _, coeffs, _ in terms for c in coeffs)
    assert np.max(np.abs(error[0])) * (1 - 4 * U) - slack <= dec.residual


def test_residual_certifies_ill_conditioned_high_degree_set():
    # d=4, ell=1, s=7 along a set of condition number about 5e4.  A bound on
    # a mismatch computed in plain double, n U sum(|columns| @ |x| + |rhs|),
    # is 1.7e-9 here; the certificate tracks the mismatch itself (3.3e-11).
    dirs = sample_spanning_directions(4, 7, dim_homogeneous(4, 7), seed=9)
    assert dirs.condition_number > 1e4
    dec = decompose(random_poly(4, 7, seed=12), dirs, 4, 1)
    assert dec.residual <= 1e-2 * RESIDUAL_TOL
