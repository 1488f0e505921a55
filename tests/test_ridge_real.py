import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgekit
from conftest import dd_linear, dd_poly_values, dd_total
from ridgekit.polycore import (ComplexBiPolynomial, MultiIndex, MultiIndexPolynomial,
                               dim_complex_bihomogeneous, dim_homogeneous, grlex_key,
                               _grlex_multi_indices, _homogeneous_exponents,
                               monomials_up_to, _polynomials_from_rows)
from ridgekit.quadrature import (QuadratureRule, ball_sup_grid, build_ball_rule,
                                 evaluate_on_nodes)
from ridgekit.ridge_complex import (ComplexDirectionSet, ComplexRidgeDecomposition,
                                    sample_complex_directions)
from ridgekit.ridge_real import (U, DecompositionError, DirectionSet, ProfileRows,
                                 RidgeDecomposition, SpanningError,
                                 build_block_matrices, certified_solve,
                                 decompose, lifted_power_matrix, _multinomial,
                                 orthonormalize_rows, pick_directions,
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
    grid = ball_sup_grid(d, 400)
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


def test_pivot_pick_skips_repeated_rows():
    # rows 0 and 1 are equal, so after row 0 (the first column's largest
    # entry) eliminates row 1 to zero the second pivot is row 2
    cloud = np.arange(4.0).reshape(4, 1)
    rows = np.array([[2.0, 1.0], [2.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    assert pick_directions(cloud, rows, 2).ravel().tolist() == [0.0, 2.0]
    assert pick_directions(cloud, rows, 4).ravel().tolist() == [0.0, 2.0, 1.0, 3.0]


@pytest.mark.parametrize("seed", range(6))
def test_picked_top_degree_set_is_well_conditioned(seed):
    # m=2, s=15 is the reference sweep's top degree; a random draw of 16
    # directions has a median condition number near 2e4 and a tail past 1e6
    dirs = sample_spanning_directions(2, 15, dim_homogeneous(2, 15), seed=seed)
    assert dirs.condition_number < 1e3


def test_extra_directions_are_distinct_and_span():
    m, s, n = 3, 3, 25
    dirs = sample_spanning_directions(m, s, n, seed=4)
    assert dirs.count == n and len(np.unique(dirs.vectors, axis=0)) == n
    assert np.allclose(np.linalg.norm(dirs.vectors, axis=1), 1.0)
    assert spanning_rank(dirs.vectors, s)[0] == dim_homogeneous(m, s)


def test_spanning_failure_raises_spanning_error(monkeypatch):
    # a rank tolerance of 1.0 leaves no singular value above the threshold
    monkeypatch.setattr(ridgekit.ridge_real, "RANK_TOLERANCE", 1.0)
    with pytest.raises(SpanningError, match="rank 0 of 4"):
        sample_spanning_directions(2, 3, 4)


def test_orthonormalize_rows_preserves_values():
    d, ell, s = 3, 2, 2
    dirs = sample_spanning_directions(2, s, dim_homogeneous(2, s), seed=4)
    dec = decompose(random_poly(d, s, seed=13), dirs, d, ell)
    grid = ball_sup_grid(d, 200)
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
    grid = ball_sup_grid(d, 100)
    assert np.max(np.abs(clone.eval_many(grid) - dec.eval_many(grid))) < 1e-12


def ball_points(d, count, seed):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((count, d))
    return points / np.linalg.norm(points, axis=1, keepdims=True) * rng.random((count, 1))


def unit_order_sum(dec, points):
    """sum_k P_k(A_k x) by each profile's own eval_many, in unit order."""
    points = np.atleast_2d(points)
    out = np.zeros(len(points))
    for A, profile in zip(dec.matrices, dec.profiles):
        out += profile.eval_many(points @ A.T)
    return out


def sparse_poly(d, degree, seed):
    # about a third of the monomials, so some profile keys and degree blocks are absent
    rng = np.random.default_rng(seed)
    return MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, degree)
                                    if rng.random() < 0.35})


@pytest.mark.parametrize("terms", ["dense", "sparse"])
@pytest.mark.parametrize("d,ell,s", [(3, 1, 5), (3, 2, 7), (4, 3, 5)])
def test_ridge_sum_from_rows_equals_unit_order_sum_of_profiles(d, ell, s, terms):
    m = d - ell + 1
    dirs = sample_spanning_directions(m, s, dim_homogeneous(m, s), seed=s)
    P = (random_poly if terms == "dense" else sparse_poly)(d, s, 10 * d + ell)
    dec = decompose(P, dirs, d, ell)
    points = ball_points(d, 700, s)
    got = dec.eval_many(points)
    assert dec._profiles is None  # evaluating builds no profile
    assert got.tobytes() == unit_order_sum(dec, points).tobytes()
    # the JSON round trip stores profiles, not rows, and evaluates them alike
    clone = RidgeDecomposition.from_json_dict(json.loads(json.dumps(dec.to_json_dict())))
    assert clone._rows is None
    assert clone.eval_many(points).tobytes() == unit_order_sum(clone, points).tobytes()
    assert clone.eval_many(points).tobytes() == got.tobytes()


def test_ridge_sum_from_rows_at_the_zero_polynomial_no_points_and_one_point():
    d, ell, s = 3, 2, 4
    dirs = sample_spanning_directions(2, s, dim_homogeneous(2, s), seed=6)
    points = ball_points(d, 50, 6)
    zero = decompose(MultiIndexPolynomial.zero(d), dirs, d, ell)
    assert zero._rows.rows.shape == (dirs.count, 0)
    assert zero.eval_many(points).tobytes() == np.zeros(50).tobytes()
    assert zero.eval_many(points).tobytes() == unit_order_sum(zero, points).tobytes()
    assert all(profile.is_zero() for profile in zero.profiles)
    dec = decompose(random_poly(d, s, 8), dirs, d, ell)
    assert dec.eval_many(np.zeros((0, d))).shape == (0,)
    one = dec.eval_many(points[0])
    assert one.shape == (1,) and one.tobytes() == unit_order_sum(dec, points[:1]).tobytes()
    assert one.tobytes() == dec.eval_many(points[:1]).tobytes()


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_ridge_sums_from_edge_rows_keep_their_profiles_terms(kind):
    # rows with unit-dependent zero patterns, an all-zero row, entries below
    # the prune threshold (+-0 and a subnormal) and a NaN, which is kept
    rng = np.random.default_rng(23 + (kind == "complex"))
    profile, d, dim, dtype = ((MultiIndexPolynomial, 4, 3, float) if kind == "real"
                              else (ComplexBiPolynomial, 2, 1, complex))
    points, maps = ball_points(2 * d, 37, 5), rng.standard_normal((6, dim, d)) / 3
    points = points[:, :d] if kind == "real" else points[:, :d] + 1j * points[:, d:]
    if kind == "complex":
        maps = maps[:, 0] + 1j * maps[:, -1] / 2
    for trial in range(30):
        keys = tuple(k for k in _grlex_multi_indices(profile._halves * dim, int(rng.integers(0, 6)))
                     if rng.random() < 0.7)
        rows = rng.standard_normal((6, len(keys))).astype(dtype)
        if kind == "complex":
            rows += 1j * rng.standard_normal(rows.shape)
        rows[rng.random(rows.shape) < 0.4] = 0
        rows[0] = 0
        if keys:
            rows[1, 0], rows[2, -1], rows[3, 0] = 1e-310, np.nan, -0.0
        stored = ProfileRows(dim, keys, rows)
        dec = (RidgeDecomposition(d, dim, maps, stored) if kind == "real"
               else ComplexRidgeDecomposition(d, maps, stored))
        polys = _polynomials_from_rows(profile, dim, keys, rows)
        for (kept, exps, coeffs), poly in zip(dec._unit_terms(), polys):
            assert list(kept) == list(poly._terms)
            assert exps.tolist() == [list(k) for k in poly._terms]
            want = np.array(list(poly._terms.values()), dtype)
            assert coeffs.dtype == want.dtype and coeffs.tobytes() == want.tobytes()
        want = np.zeros(len(points), dtype)
        for M, poly in zip(maps, polys):
            want += poly.eval_many(points @ M.T if kind == "real" else (points @ M)[:, None])
        assert dec.eval_many(points).tobytes() == want.tobytes()


@pytest.mark.parametrize("terms", ["dense", "sparse"])
def test_decompose_profiles_are_built_from_its_rows(terms):
    d, ell, s = 4, 2, 5
    dirs = sample_spanning_directions(3, s, dim_homogeneous(3, s), seed=2)
    P = (random_poly if terms == "dense" else sparse_poly)(d, s, 4)
    dec = decompose(P, dirs, d, ell)
    stored = dec._rows
    assert isinstance(stored, ProfileRows) and not stored.rows.flags.writeable
    # the keys are the grlex-sorted (j,) + tail over P's trailing exponents
    tails = {K[3:] for K in P.terms}
    assert list(stored.keys) == sorted(((j,) + t for t in tails for j in range(s - sum(t) + 1)),
                                       key=grlex_key)
    assert dec.profiles == _polynomials_from_rows(MultiIndexPolynomial, ell, stored.keys,
                                                  stored.rows)
    assert dec.profiles is dec.profiles  # built once


def exact_graded_values(dec, point):
    """{k: the degree-k part of the ridge sum at `point`} in exact rational
    arithmetic.  A float is a dyadic rational, so a unit's inputs are taken as
    integers over one power of two, and each term is one Fraction."""
    parts = {}
    for A, profile in zip(dec.matrices, dec.profiles):
        inputs = [sum(Fraction(a) * Fraction(x) for a, x in zip(row, point)) for row in A]
        shift = max(y.denominator.bit_length() for y in inputs) - 1  # input = int / 2**shift
        ints = [y.numerator << (shift + 1 - y.denominator.bit_length()) for y in inputs]
        for k, c in profile.terms.items():
            num, den = float(c).as_integer_ratio()
            term = Fraction(num * math.prod(y ** e for y, e in zip(ints, k)), den << shift * sum(k))
            parts[sum(k)] = parts.get(sum(k), 0) + term
    return parts


def test_shell_values_are_no_less_accurate_than_eval_many():
    # both against the exact sum at the rule's nodes r_i u_j, whole shells of
    # 11 sphere nodes: eval_many takes the stored nodes, each u_j scaled by r_i
    # and rounded, and the shell path the two factors
    d, ell, s = 3, 2, 15
    dec = decompose(random_poly(d, s, 0), sample_spanning_directions(2, s, s + 1, seed=0), d, ell)
    rule = build_ball_rule(d, 2 * s + 2)
    radii, sphere = rule.shells
    columns = np.arange(0, len(sphere), 51)
    exact = np.empty((len(radii), len(columns)))
    for j, u in enumerate(sphere[columns]):
        parts = exact_graded_values(dec, u)
        exact[:, j] = [float(sum(Fraction(r) ** k * v for k, v in parts.items())) for r in radii]
    assert exact.size >= 100
    shell = evaluate_on_nodes(dec, rule).reshape(len(radii), -1)[:, columns]
    nodes = rule.nodes.reshape(len(radii), -1, d)[:, columns]
    plain = dec.eval_many(nodes.reshape(-1, d)).reshape(exact.shape)
    shell_error, plain_error = np.abs(shell - exact), np.abs(plain - exact)
    assert shell_error.max() <= plain_error.max()
    assert shell_error.sum() <= plain_error.sum()


@pytest.mark.parametrize("terms", ["dense", "sparse"])
@pytest.mark.parametrize("d,ell,s", [(3, 1, 5), (3, 2, 7), (4, 3, 5)])
def test_shell_values_from_rows_and_from_profiles_agree_bitwise(d, ell, s, terms):
    m = d - ell + 1
    dirs = sample_spanning_directions(m, s, dim_homogeneous(m, s), seed=s)
    dec = decompose((random_poly if terms == "dense" else sparse_poly)(d, s, 3 * d + ell),
                    dirs, d, ell)
    listed = RidgeDecomposition(d, ell, dec.matrices, dec.profiles)
    rule = build_ball_rule(d, 2 * s + 2)
    got = evaluate_on_nodes(dec, rule)
    assert got.tobytes() == evaluate_on_nodes(listed, rule).tobytes()
    for rows, profiles in zip(dec.graded_values(rule.shells[1]),
                              listed.graded_values(rule.shells[1])):
        assert rows.tobytes() == profiles.tobytes()
    assert np.max(np.abs(got - dec.eval_many(rule.nodes))) < 1e-12


def test_a_hand_built_rule_evaluates_a_ridge_sum_by_eval_many():
    d, ell, s = 3, 2, 6
    dec = decompose(random_poly(d, s, 5), sample_spanning_directions(2, s, s + 1, seed=5), d, ell)
    rule = build_ball_rule(d, 2 * s + 2)
    hand = QuadratureRule("ball", d, rule.nodes, rule.weights, rule.exactness_degree)
    assert evaluate_on_nodes(dec, hand).tobytes() == dec.eval_many(rule.nodes).tobytes()


@pytest.mark.parametrize("form", ["rows", "profiles"])
def test_shell_values_reject_a_non_finite_coefficient(form):
    # an infinite coefficient meets zero inputs, and the powers of every
    # other unit, as NaN; the ValueError names a node
    d, ell = 3, 2
    dec = decompose(random_poly(d, 3, 2), sample_spanning_directions(2, 3, 4, seed=2), d, ell)
    dim, keys, rows = dec._rows
    rows = rows.copy()
    rows[1, -1] = math.inf
    profiles = (ProfileRows(dim, keys, rows) if form == "rows"
                else _polynomials_from_rows(MultiIndexPolynomial, dim, keys, rows))
    bad = RidgeDecomposition(d, ell, dec.matrices, profiles)
    with pytest.raises(ValueError, match="non-finite evaluation at node"):
        evaluate_on_nodes(bad, build_ball_rule(d, 8))


def test_ridge_decomposition_rejects_points_of_the_wrong_width():
    dirs = sample_spanning_directions(2, 2, dim_homogeneous(2, 2), seed=1)
    for dec in (decompose(random_poly(3, 2, 3), dirs, 3, 2),
                RidgeDecomposition(3, 2, [np.eye(2, 3)], [MultiIndexPolynomial.monomial((1, 0))])):
        with pytest.raises(ValueError, match="points have dimension 2, expected 3"):
            dec.eval_many(np.ones((4, 2)))


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


def test_decompose_reads_the_gate_scale_from_coefficients(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("P evaluated or a sup grid built")

    for owner, name in ((MultiIndexPolynomial, "eval_many"), (MultiIndexPolynomial, "__call__"),
                        (ridgekit.quadrature, "ball_sup_grid"), (ridgekit, "ball_sup_grid")):
        monkeypatch.setattr(owner, name, forbidden)
    dirs = sample_spanning_directions(3, 4, dim_homogeneous(3, 4), seed=4)
    P = random_poly(4, 4, seed=5)
    assert decompose(P, dirs, 4, 2).residual <= 1e-2 * RESIDUAL_TOL
    monkeypatch.setattr(ridgekit.ridge_real, "RESIDUAL_TOLERANCE", -1.0)
    with pytest.raises(ridgekit.DecompositionError):
        decompose(P, dirs, 4, 2)


def per_term_decompose(P, dirs, d, ell):
    """`decompose` by a per-term scatter over P's own keys: the rows by the
    span's key map, the columns by P's trailing exponents sorted in grlex
    order, and the profile keys and coefficients picked key by key."""
    m, s = d - ell + 1, dirs.s
    heads = dirs.span.rows
    tails = sorted({K[m:] for K in P.terms}, key=grlex_key)
    columns = {t: i for i, t in enumerate(tails)}
    rhs = np.zeros((len(heads), max(1, len(tails))))
    for K, c in P.terms.items():
        rhs[heads[K[:m]], columns[K[m:]]] = c
    solutions, residual = certified_solve(dirs.span, rhs, P.axis_values(),
                                          (f"degree {j}" for j in range(s + 1)))
    keys = tuple(MultiIndex(key) for key in monomials_up_to(ell, s) if key[1:] in columns)
    coeffs = np.stack(solutions)[[key[0] for key in keys], :, [columns[key[1:]] for key in keys]]
    return RidgeDecomposition(d, ell, build_block_matrices(dirs, d, ell),
                              ProfileRows(ell, keys, coeffs.T), residual)


def scatter_cases(d, ell, s, seed):
    """Polynomials on R^d of degree <= s: dense, sparse, of lower degree,
    with every key of some trailing exponents left out, and zero."""
    m, rng = d - ell + 1, np.random.default_rng(seed)
    keys = monomials_up_to(d, s)
    tails = monomials_up_to(ell - 1, s) if ell > 1 else [()]
    dropped = {tails[i] for i in rng.permutation(len(tails))[:min(2, len(tails) - 1)]}
    terms = {
        "dense": keys,
        "sparse": [k for k in keys if rng.random() < 0.3],
        "lower degree": monomials_up_to(d, s - 1),
        "tails missing": [k for k in keys if k[m:] not in dropped],
        "zero": [],
    }
    return {name: MultiIndexPolynomial(d, {k: rng.standard_normal() for k in chosen})
            for name, chosen in terms.items()}


@pytest.mark.parametrize("s", [1, 3, 7])
@pytest.mark.parametrize("d,ell", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_table_scatter_matches_the_per_term_scatter(d, ell, s):
    m = d - ell + 1
    dirs = sample_spanning_directions(m, s, dim_homogeneous(m, s), seed=d + ell + s)
    points = ball_points(d, 60, s)
    for name, P in scatter_cases(d, ell, s, 100 * d + 10 * ell + s).items():
        got, want = decompose(P, dirs, d, ell), per_term_decompose(P, dirs, d, ell)
        assert got._rows.keys == want._rows.keys, name
        assert all(type(key) is MultiIndex for key in got._rows.keys)
        assert got._rows.rows.tobytes() == want._rows.rows.tobytes(), name
        assert got.residual == want.residual, name
        assert got.eval_many(points).tobytes() == want.eval_many(points).tobytes(), name
        assert np.array_equal(got._maps, want._maps)


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


def ill_conditioned_set():
    # d=4, ell=1, s=7: a plain random draw of condition number 4.7e4, as
    # ill-conditioned as chance makes it
    vectors = np.random.default_rng(9).standard_normal((dim_homogeneous(4, 7), 4))
    return DirectionSet(4, 7, vectors / np.linalg.norm(vectors, axis=1, keepdims=True))


def test_residual_certifies_ill_conditioned_high_degree_set():
    # the bound reads 2.1e-9 against a gate of 6.3e-8
    dirs = ill_conditioned_set()
    assert dirs.condition_number > 1e4
    P = random_poly(4, 7, seed=12)
    dec = decompose(P, dirs, 4, 1)
    assert dec.residual <= RESIDUAL_TOL * (1 + np.max(np.abs(P.axis_values())))


def test_ill_conditioned_set_fails_loudly_at_a_tight_tolerance(monkeypatch):
    # at a tolerance of 1e-10 the gate is 6.3e-10, below the bound
    monkeypatch.setattr(ridgekit.ridge_real, "RESIDUAL_TOLERANCE", 1e-10)
    with pytest.raises(DecompositionError, match=r"condition number 4\.\d+e\+04"):
        decompose(random_poly(4, 7, seed=12), ill_conditioned_set(), 4, 1)


def test_json_round_trip_keeps_the_residual():
    dirs = sample_spanning_directions(2, 3, dim_homogeneous(2, 3), seed=5)
    dec = decompose(random_poly(3, 3, seed=17), dirs, 3, 2)
    clone = RidgeDecomposition.from_json_dict(json.loads(json.dumps(dec.to_json_dict())))
    assert clone.residual == dec.residual is not None
    assert "residual" not in RidgeDecomposition(3, 2, [], []).to_json_dict()


# Exact checks of `PowerSpan.bound` against the mismatch of exact power
# columns, in dyadic integer arithmetic.

def dyadic(value):
    """The double `value` exactly, as (n, e) with value = n * 2 ** e."""
    mantissa, exponent = math.frexp(value)
    return int(mantissa * 2 ** 53), exponent - 53


def dyadic_add(a, b):
    low = min(a[1], b[1])
    return (a[0] << (a[1] - low)) + (b[0] << (b[1] - low)), low


def dyadic_mul(a, b):
    return a[0] * b[0], a[1] + b[1]


def complex_mul(a, b):
    """Product of complex dyadics, each a pair (re, im) of dyadics."""
    (ar, ai), (br, bi) = a, b
    negative = dyadic_mul(ai, bi)
    return (dyadic_add(dyadic_mul(ar, br), (-negative[0], negative[1])),
            dyadic_add(dyadic_mul(ar, bi), dyadic_mul(ai, br)))


def complex_dyadic(value):
    value = complex(value)
    return dyadic(value.real), dyadic(value.imag)


def exact_monomials(point, exponents):
    """prod point[j] ** exponent[j] for every exponent, as complex dyadics,
    each built from a lower one by one more factor."""
    coords = [complex_dyadic(z) for z in point]
    values = {(0,) * len(coords): ((1, 0), (0, 0))}

    def value(exponent):
        if exponent not in values:
            j = next(j for j, e in enumerate(exponent) if e)
            lower = value(exponent[:j] + (exponent[j] - 1,) + exponent[j + 1:])
            values[exponent] = complex_mul(lower, coords[j])
        return values[exponent]

    return [value(tuple(exponent)) for exponent in exponents]


def exact_l1_mismatch(span, vectors, solutions, rhs, keys_to_exponents):
    """Upper bound (to 4 U relative) on the exact sum over the rows of the
    modulus of columns @ x - rhs, from exact dyadic columns of the powers."""
    x = np.stack(solutions)
    block_of_row = np.repeat(np.arange(len(span.blocks)), [block.size for block in span.blocks])
    exponents, factors = zip(*(keys_to_exponents(key) for key in span.rows))
    rows = list(span.rows.values())
    sums = {(row, j): tuple((-n, e) for n, e in complex_dyadic(rhs[row, j]))
            for row in rows for j in range(rhs.shape[1])}
    for i, point in enumerate(vectors):
        for row, factor, column in zip(rows, factors, exact_monomials(point, exponents)):
            column = complex_mul(column, ((factor, 0), (0, 0)))
            for j in range(rhs.shape[1]):
                term = complex_mul(column, complex_dyadic(x[block_of_row[row], i, j]))
                sums[row, j] = tuple(map(dyadic_add, sums[row, j], term))
    return sum(math.sqrt(float(Fraction(re[0] ** 2) * Fraction(2) ** (2 * re[1])
                               + Fraction(im[0] ** 2) * Fraction(2) ** (2 * im[1])))
               for re, im in sums.values())


def exact_mismatch_of(dirs, solutions, rhs):
    """`exact_l1_mismatch` for a real or complex direction set: the power
    (a . z)^s' conj(a . z)^t' has coefficient mult(k) mult(l) a^k conj(a)^l on
    z^k conj(z)^l, the monomial of the point (a, conj a) at k + l."""
    if isinstance(dirs, ComplexDirectionSet):
        return exact_l1_mismatch(
            dirs.span, np.hstack([dirs.vectors, np.conj(dirs.vectors)]), solutions, rhs,
            lambda kl: (kl[0] + kl[1], _multinomial(sum(kl[0]), kl[0])
                        * _multinomial(sum(kl[1]), kl[1])))
    return exact_l1_mismatch(dirs.span, dirs.vectors, solutions, rhs,
                             lambda k: (k, _multinomial(sum(k), k)))


BOUNDED_SETS = {
    "pivoted-real": lambda: sample_spanning_directions(3, 3, dim_homogeneous(3, 3), seed=4),
    "pivoted-complex": lambda: sample_complex_directions(
        2, 2, 2, dim_complex_bihomogeneous(2, 2, 2), seed=6),
    "ill-conditioned": ill_conditioned_set,
    # one direction, repeated: the mismatch is of the order of rhs
    "rank-deficient": lambda: DirectionSet(2, 3, np.tile([[0.6, 0.8]], (4, 1))),
}


@pytest.mark.parametrize("name", BOUNDED_SETS)
def test_span_bound_covers_exact_mismatch(name):
    dirs = BOUNDED_SETS[name]()
    rng = np.random.default_rng(7)
    shape = (len(dirs.span.rows), 1 if name == "ill-conditioned" else 2)
    rhs = rng.standard_normal(shape)
    if isinstance(dirs, ComplexDirectionSet):
        rhs = rhs + 1j * rng.standard_normal(shape)
    solutions = dirs.span.least_norm(rhs)
    true = exact_mismatch_of(dirs, solutions, rhs)
    assert true * (1 - 4 * U) <= dirs.span.bound(solutions, rhs)


COLUMN_SETS = {
    "pivoted-real": lambda: sample_spanning_directions(2, 15, dim_homogeneous(2, 15), seed=3),
    "pivoted-complex": lambda: sample_complex_directions(
        2, 3, 3, dim_complex_bihomogeneous(2, 3, 3), seed=4),
}


@pytest.mark.parametrize("name", COLUMN_SETS)
def test_span_columns_lie_within_their_rounding_bound(name):
    # the bound's column term rests on this: every exact power is within the
    # span's relative column error of the computed entry, in exact arithmetic
    dirs = COLUMN_SETS[name]()
    columns = dirs.span.columns
    if isinstance(dirs, ComplexDirectionSet):
        n = dirs.count
        columns = columns[:, :n] - 1j * columns[:, n:]
        vectors = np.hstack([dirs.vectors, np.conj(dirs.vectors)])
        keys = [(kl[0] + kl[1], _multinomial(sum(kl[0]), kl[0]) * _multinomial(sum(kl[1]), kl[1]))
                for kl in dirs.span.rows]
    else:
        vectors = dirs.vectors
        keys = [(k, _multinomial(sum(k), k)) for k in dirs.span.rows]
    exponents, factors = zip(*keys)
    error = Fraction(dirs.span._column_error)

    def exact(value):
        return Fraction(value[0]) * Fraction(2) ** value[1]

    for i, point in enumerate(vectors):
        for r, (factor, power) in enumerate(zip(factors, exact_monomials(point, exponents))):
            re, im = (exact(part) * factor for part in power)
            computed = complex(columns[r, i])
            re_hat, im_hat = Fraction(computed.real), Fraction(computed.imag)
            assert (re - re_hat) ** 2 + (im - im_hat) ** 2 <= error ** 2 * (re_hat ** 2 + im_hat ** 2)


VANISHING_SETS = {
    "pivoted-real": lambda: sample_spanning_directions(3, 4, dim_homogeneous(3, 4), seed=5),
    "pivoted-complex": BOUNDED_SETS["pivoted-complex"],
}


@pytest.mark.parametrize("name", VANISHING_SETS)
def test_span_bound_covers_exact_mismatch_when_the_double_mismatch_vanishes(name):
    # a right-hand side equal to the span's own product columns_b @ x_b in
    # double (real form for a complex set), so the computed mismatch is 0 and
    # the bound rests on its rounding and column terms
    dirs = VANISHING_SETS[name]()
    rng = np.random.default_rng(8)
    shape = (len(dirs.span.rows), 2)
    rhs = rng.standard_normal(shape)
    complex_set = isinstance(dirs, ComplexDirectionSet)
    if complex_set:
        rhs = rhs + 1j * rng.standard_normal(shape)
    solutions = dirs.span.least_norm(rhs)
    sizes = np.cumsum([block.size for block in dirs.blocks])[:-1]
    products = []
    for part, x in zip(np.split(dirs.span.columns, sizes), solutions):
        if complex_set:
            x = np.hstack([np.vstack([x.real, x.imag]), np.vstack([x.imag, -x.real])])
        products.append(part @ x)
    rhs = np.vstack(products)
    if complex_set:
        rhs = rhs[:, :2] + 1j * rhs[:, 2:]
    true = exact_mismatch_of(dirs, solutions, rhs)
    assert true > 0
    assert true * (1 - 4 * U) <= dirs.span.bound(solutions, rhs)
