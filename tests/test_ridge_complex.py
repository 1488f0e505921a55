import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgekit
from conftest import complex_sup_grid, dd_linear, dd_poly_values, dd_total, reference_substitute
from ridgekit.polycore import (ComplexBiPolynomial, ExactComplex, MultiIndex,
                               MultiIndexPolynomial, grlex_key,
                               dim_complex_bihomogeneous,
                               _homogeneous_exponents, monomials_up_to,
                               _polynomials_from_rows)
from ridgekit.ridge_complex import (ComplexDirectionSet,
                                    ComplexRidgeDecomposition,
                                    _power_pair, apply_wirtinger, bidegree_power_matrix,
                                    complex_decompose,
                                    realify, sample_complex_directions,
                                    verify_power_identity,
                                    verify_wirtinger_monomial_identity,
                                    wirtinger_derivative)
from ridgekit.ridge_real import U, ProfileRows, certified_solve

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
        assert prof.to_json_dict() == expected.to_json_dict()


def test_complex_decomposition_profiles_univariate():
    d, s = 2, 1
    P = ComplexBiPolynomial(d, {((1, 0), (0, 1)): 1.0})
    n = dim_complex_bihomogeneous(d, 1, 1)
    dirs = sample_complex_directions(d, 1, 1, n, seed=2)
    dec = complex_decompose(P, dirs)
    for prof in dec.profiles:
        assert prof.dim == 1


def test_complex_spanning_failure_is_package_spanning_error(monkeypatch):
    # a rank tolerance of 1.0 leaves no singular value above the threshold,
    # so no set spans
    monkeypatch.setattr(ridgekit.ridge_real, "RANK_TOLERANCE", 1.0)
    with pytest.raises(ridgekit.SpanningError):
        sample_complex_directions(2, 1, 1, 4)


@pytest.mark.parametrize("seed", range(6))
def test_picked_complex_set_is_well_conditioned(seed):
    d, s = 2, 3
    dirs = sample_complex_directions(d, s, s, dim_complex_bihomogeneous(d, s, s), seed=seed)
    assert dirs.condition_number < 1e2


def test_extra_complex_directions_are_distinct_and_span():
    d, s, n = 2, 2, 15
    dirs = sample_complex_directions(d, s, s, n, seed=5)
    assert dirs.count == n and len(np.unique(dirs.vectors, axis=0)) == n
    assert np.allclose(np.linalg.norm(dirs.vectors, axis=1), 1.0)
    assert dirs.blocks[-1].rank == dim_complex_bihomogeneous(d, s, s)


def test_complex_pick_is_deterministic():
    a, b = (sample_complex_directions(2, 2, 2, 9, seed=13) for _ in range(2))
    assert np.array_equal(a.vectors, b.vectors)


def test_complex_residual_failure_is_package_decomposition_error(monkeypatch):
    d = 2
    P = ComplexBiPolynomial(d, {((1, 0), (0, 1)): 1.0})
    dirs = sample_complex_directions(d, 1, 1, dim_complex_bihomogeneous(d, 1, 1), seed=2)
    monkeypatch.setattr(ridgekit.ridge_real, "RESIDUAL_TOLERANCE", -1.0)
    with pytest.raises(ridgekit.DecompositionError):
        complex_decompose(P, dirs)


def test_complex_json_round_trip():
    d, s = 2, 1
    P = ComplexBiPolynomial(d, {((1, 0), (0, 1)): 1.0, ((0, 0), (0, 0)): 2.0})
    n = dim_complex_bihomogeneous(d, 1, 1)
    dirs = sample_complex_directions(d, 1, 1, n, seed=3)
    dec = complex_decompose(P, dirs)
    clone = ComplexRidgeDecomposition.from_json_dict(dec.to_json_dict())
    grid = complex_sup_grid(d, 100)
    assert np.max(np.abs(clone.eval_many(grid) - dec.eval_many(grid))) < 1e-12


def test_complex_json_round_trip_keeps_the_residual():
    P = ComplexBiPolynomial(2, {((1, 0), (0, 1)): 1.0, ((0, 0), (0, 0)): 2.0})
    dirs = sample_complex_directions(2, 1, 1, dim_complex_bihomogeneous(2, 1, 1), seed=3)
    dec = complex_decompose(P, dirs)
    clone = ComplexRidgeDecomposition.from_json_dict(json.loads(json.dumps(dec.to_json_dict())))
    assert clone.residual == dec.residual is not None
    assert "residual" not in ComplexRidgeDecomposition(2, np.zeros((0, 2)), []).to_json_dict()


def random_complex_poly(d, s, seed):
    rng = np.random.default_rng(seed)
    exponents = monomials_up_to(d, s)
    return ComplexBiPolynomial(d, {(k, l): complex(*rng.standard_normal(2))
                                   for k in exponents for l in exponents})


def complex_ball_points(d, count, seed):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return points / np.linalg.norm(points, axis=1, keepdims=True) * rng.random((count, 1))


def unit_order_sum(dec, points):
    """sum_j P_j(a_j . z) by each profile's own eval_many, in unit order."""
    points = np.atleast_2d(points)
    out = np.zeros(len(points), dtype=complex)
    for a, profile in zip(dec.vectors, dec.profiles):
        out += profile.eval_many((points @ a)[:, None])
    return out


@pytest.mark.parametrize("d,s", [(2, 3), (3, 2)])
def test_complex_ridge_sum_from_rows_equals_unit_order_sum_of_profiles(d, s):
    dirs = sample_complex_directions(d, s, s, dim_complex_bihomogeneous(d, s, s), seed=s)
    dec = complex_decompose(random_complex_poly(d, s, 7 * d + s), dirs)
    points = complex_ball_points(d, 600, d + s)
    got = dec.eval_many(points)
    assert dec._profiles is None  # evaluating builds no profile
    assert got.tobytes() == unit_order_sum(dec, points).tobytes()
    # the JSON round trip stores profiles, not rows, and evaluates them alike
    clone = ComplexRidgeDecomposition.from_json_dict(json.loads(json.dumps(dec.to_json_dict())))
    assert clone._rows is None
    assert clone.eval_many(points).tobytes() == unit_order_sum(clone, points).tobytes()
    assert clone.eval_many(points).tobytes() == got.tobytes()
    assert dec.profiles == _polynomials_from_rows(ComplexBiPolynomial, *dec._rows)


def test_complex_ridge_sum_from_rows_at_the_zero_polynomial_no_points_and_one_point():
    d, s = 2, 2
    dirs = sample_complex_directions(d, s, s, dim_complex_bihomogeneous(d, s, s), seed=4)
    points = complex_ball_points(d, 40, 4)
    zero = complex_decompose(ComplexBiPolynomial.zero(d), dirs)
    assert zero.eval_many(points).tobytes() == np.zeros(40, dtype=complex).tobytes()
    assert zero.eval_many(points).tobytes() == unit_order_sum(zero, points).tobytes()
    assert all(profile.is_zero() for profile in zero.profiles)
    dec = complex_decompose(random_complex_poly(d, s, 5), dirs)
    assert dec.eval_many(np.zeros((0, d), dtype=complex)).shape == (0,)
    one = dec.eval_many(points[0])
    assert one.shape == (1,) and one.tobytes() == unit_order_sum(dec, points[:1]).tobytes()


def pair_keyed_decompose(P, dirs):
    """`complex_decompose` by a scatter over P's (k, l) pair keys through the
    span's pair-keyed rows, with the profile keys sorted on each call."""
    rows = dirs.span.rows
    rhs = np.zeros((len(rows), 1), dtype=complex)
    for key, c in P.terms.items():
        rhs[rows[key], 0] = complex(c)
    solutions, residual = certified_solve(dirs.span, rhs, P.axis_values(),
                                          (f"bidegree {b}" for b in dirs.bidegrees))
    order = sorted(range(len(dirs.bidegrees)), key=lambda b: grlex_key(dirs.bidegrees[b]))
    keys = tuple(MultiIndex(dirs.bidegrees[b]) for b in order)
    return ComplexRidgeDecomposition(P.dim, dirs.vectors,
                                     ProfileRows(1, keys, np.hstack(solutions)[:, order]), residual)


@pytest.mark.parametrize("d,s", [(2, 1), (2, 3), (3, 2)])
def test_flat_key_scatter_matches_the_pair_keyed_scatter(d, s):
    dirs = sample_complex_directions(d, s, s, dim_complex_bihomogeneous(d, s, s), seed=d + s)
    rng = np.random.default_rng(10 * d + s)
    exponents = monomials_up_to(d, s)
    pairs = [(k, l) for k in exponents for l in exponents]
    dense = random_complex_poly(d, s, 3 * d + s)
    exact = ComplexBiPolynomial(d, {
        pair: ExactComplex(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))),
                           Fraction(int(rng.integers(-9, 10)), 8))
        for pair in pairs if rng.random() < 0.5})
    sparse = ComplexBiPolynomial(d, {pair: complex(*rng.standard_normal(2))
                                     for pair in pairs[:len(pairs) // 3]})
    points = complex_ball_points(d, 50, s)
    for P in (dense, exact, sparse, ComplexBiPolynomial.zero(d)):
        got, want = complex_decompose(P, dirs), pair_keyed_decompose(P, dirs)
        assert got._rows.keys == want._rows.keys
        assert got._rows.rows.tobytes() == want._rows.rows.tobytes()
        assert got.residual == want.residual
        assert got.eval_many(points).tobytes() == want.eval_many(points).tobytes()


def test_complex_ridge_decomposition_rejects_points_of_the_wrong_width():
    dirs = sample_complex_directions(3, 1, 1, dim_complex_bihomogeneous(3, 1, 1), seed=1)
    for dec in (complex_decompose(random_complex_poly(3, 1, 2), dirs),
                ComplexRidgeDecomposition(3, [[1.0, 0.0, 0.0]],
                                          [ComplexBiPolynomial(1, {((1,), (0,)): 1.0})])):
        with pytest.raises(ValueError, match="points have dimension 2, expected 3"):
            dec.eval_many(np.ones((4, 2), dtype=complex))


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


def exact_fraction(rng, denominator=8):
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, denominator + 1)))


@pytest.mark.parametrize("d,degree", [(1, 5), (2, 3), (3, 2)])
def test_realify_equals_the_reference_substitution_exactly(d, degree):
    rng = np.random.default_rng(d)
    f = MultiIndexPolynomial(2 * d, {k: exact_fraction(rng)
                                     for k in monomials_up_to(2 * d, degree) if rng.random() < 0.7})
    half, minus_i_half = ExactComplex(Fraction(1, 2)), ExactComplex(0, Fraction(-1, 2))
    units = [tuple(int(i == j) for i in range(2 * d)) for j in range(2 * d)]
    bases = [{units[j]: w, units[d + j]: w.conjugate()}
             for w in (half, minus_i_half) for j in range(d)]
    want = reference_substitute({k: ExactComplex(c) for k, c in f.terms.items()}, bases, 2 * d)
    got = realify(f)
    assert list(got._terms) == list(want)
    assert all(type(c) is ExactComplex and c == want[k] for k, c in got._terms.items())


@pytest.mark.parametrize("kind", ["fraction", "exact complex"])
def test_power_pair_equals_the_reference_substitution_exactly(kind):
    rng = np.random.default_rng(3)
    for dim, s, t in [(1, 3, 2), (2, 2, 2), (3, 1, 3), (2, 0, 0)]:
        a = [exact_fraction(rng) if kind == "fraction"
             else ExactComplex(exact_fraction(rng), exact_fraction(rng)) for _ in range(dim)]
        units = [tuple(int(i == j) for i in range(2 * dim)) for j in range(dim)]
        lin = dict(zip(units, a))
        conj = {k[dim:] + k[:dim]: c if kind == "fraction" else c.conjugate()
                for k, c in lin.items()}
        one = 1 if kind == "fraction" else ExactComplex(1, 0)
        want = reference_substitute({(s, t): one}, [lin, conj], 2 * dim)
        got = _power_pair(a, s, t, dim)
        assert list(got._terms) == list(want)
        assert all(c == want[k] and type(c) is type(want[k]) for k, c in got._terms.items())


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


def test_complex_decompose_reads_the_gate_scale_from_coefficients(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("P evaluated or a sup grid built")

    for owner, name in ((ComplexBiPolynomial, "eval_many"), (ComplexBiPolynomial, "__call__"),
                        (ridgekit.quadrature, "ball_sup_grid"), (ridgekit, "ball_sup_grid")):
        monkeypatch.setattr(owner, name, forbidden)
    d, s = 2, 2
    exponents = monomials_up_to(d, s)
    rng = np.random.default_rng(6)
    P = ComplexBiPolynomial(d, {(k, l): complex(*rng.standard_normal(2))
                                for k in exponents for l in exponents})
    dirs = sample_complex_directions(d, s, s, dim_complex_bihomogeneous(d, s, s), seed=7)
    assert complex_decompose(P, dirs).residual <= 1e-2 * RESIDUAL_TOL
    monkeypatch.setattr(ridgekit.ridge_real, "RESIDUAL_TOLERANCE", -1.0)
    with pytest.raises(ridgekit.DecompositionError):
        complex_decompose(P, dirs)


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


def test_complex_ridge_decomposition_copies_freezes_and_checks_vectors():
    vectors = np.array([[0.6 + 0j, 0.8j]])
    profiles = [ComplexBiPolynomial(1, {((1,), (0,)): 1.0})]
    dec = ComplexRidgeDecomposition(2, vectors, profiles)
    assert vectors.flags.writeable
    assert not dec.vectors.flags.writeable
    vectors[0, 0] = 0.0
    assert dec.vectors[0, 0] == 0.6
    with pytest.raises(ValueError, match="shape"):
        ComplexRidgeDecomposition(3, vectors, profiles)
