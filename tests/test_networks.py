import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgekit.networks import (BLEND_OUTER, CVNNetwork, ComplexPolynomialDictionary,
                               GTNetwork, PolynomialDictionary, cantor_pair,
                               cantor_unpair, cvnn_from_decomposition,
                               decode_rational, encode_rational,
                               gtn_from_decomposition, phi_eval,
                               tau_eval, _blend_weight)
from ridgekit.polycore import (ComplexBiPolynomial, ExactComplex,
                               MultiIndexPolynomial, dim_homogeneous,
                               monomials_up_to)
from ridgekit.quadrature import ball_sup_grid
from ridgekit.ridge_real import (RidgeDecomposition, decompose,
                                 orthonormalize_rows,
                                 sample_spanning_directions)

DELTA = 1e-6


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_cantor_pair_round_trip(n):
    a, b = cantor_unpair(n)
    assert cantor_pair(a, b) == n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_rational_code_round_trip(code):
    assert encode_rational(decode_rational(code)) == code


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
def test_rational_round_trip(num, den):
    value = Fraction(num, den)
    assert decode_rational(encode_rational(value)) == value


def test_rational_code_size_polynomial_in_denominator_bits():
    code = encode_rational(Fraction(1, 2 ** 60))
    assert code.bit_length() < 5000


def test_dictionary_round_trip_prefix():
    dictionary = PolynomialDictionary(2)
    for index in range(1, 400):
        poly = dictionary.polynomial_at(index)
        assert dictionary.index_of(poly) == index


def test_dictionary_enumeration_injective_prefix():
    dictionary = PolynomialDictionary(1)
    seen = set()
    for index in range(1, 400):
        key = tuple(sorted(dictionary.polynomial_at(index).terms.items()))
        assert key not in seen
        seen.add(key)


def test_dictionary_zero_at_index_one():
    dictionary = PolynomialDictionary(3)
    assert dictionary.polynomial_at(1).is_zero()
    assert dictionary.index_of(MultiIndexPolynomial.zero(3)) == 1


def test_tau_zero_cell():
    dictionary = PolynomialDictionary(2)
    assert tau_eval(dictionary, np.array([0.0, 0.0])) == 0.0
    assert tau_eval(dictionary, np.array([3.0, 0.0])) == 0.0  # u_1 = zero poly
    assert tau_eval(dictionary, np.array([-6.0, 0.2])) == 0.0  # negative cells


def test_tau_identity_polynomial_cell():
    dictionary = PolynomialDictionary(2)
    ident = MultiIndexPolynomial(2, {(1, 0): Fraction(1)})
    m = dictionary.index_of(ident)
    for x in ([0.5, -0.3], [0.0, 0.9], [-0.7, 0.1]):
        shifted = np.array([3.0 * m + x[0], x[1]])
        assert tau_eval(dictionary, shifted) == pytest.approx(x[0], abs=1e-14)


def test_tau_fades_to_zero_between_cells():
    dictionary = PolynomialDictionary(2)
    assert tau_eval(dictionary, np.array([3.0 * 7 + 1.5, 0.0])) == 0.0


def test_phi_cell_exactness():
    dictionary = ComplexPolynomialDictionary()
    wwbar = ComplexBiPolynomial(1, {((1,), (1,)): ExactComplex(1, 0)})
    m = dictionary.index_of(wwbar)
    w = 0.6 - 0.3j
    assert phi_eval(dictionary, w + 3.0 * m) == pytest.approx(abs(w) ** 2, abs=1e-14)
    assert phi_eval(dictionary, 0.2 + 0.1j) == 0


def test_complex_dictionary_round_trip_prefix():
    dictionary = ComplexPolynomialDictionary()
    for index in range(1, 300):
        poly = dictionary.polynomial_at(index)
        assert dictionary.index_of(poly) == index


# indices recorded before complex polynomials were stored as polynomials in the
# 2d variables (z, conj z); the enumeration must not depend on the storage
COMPLEX_INDEX_GOLDEN = [
    ({((1,), (0,)): ExactComplex(Fraction(1, 2), 0)}, 379),
    ({((1,), (1,)): ExactComplex(1, 0)}, 67),
    ({((0,), (2,)): ExactComplex(0, -1), ((2,), (0,)): ExactComplex(3, 0),
      ((1,), (1,)): ExactComplex(Fraction(-1, 4), Fraction(1, 8))},
     35164303072052553179681704145747162836775522095435343245381609739614320550530499689452),
    ({((0,), (1,)): 0.25 - 0.5j, ((1,), (0,)): 2.0, ((0,), (0,)): -1.0},
     99107969374075524869230536749207630889978655877),
]


@pytest.mark.parametrize("terms,index", COMPLEX_INDEX_GOLDEN)
def test_complex_dictionary_golden_indices(terms, index):
    assert ComplexPolynomialDictionary().index_of(ComplexBiPolynomial(1, terms)) == index


def test_complex_dictionary_rejects_multivariate_polynomials():
    dictionary = ComplexPolynomialDictionary()
    poly = ComplexBiPolynomial(2, {((1, 0), (0, 1)): 1.0})
    with pytest.raises(ValueError, match="variable count mismatch"):
        dictionary.index_of(poly)
    with pytest.raises(ValueError, match="variable count mismatch"):
        dictionary.find_index(poly, 1e-9, np.zeros(4, dtype=complex))


def test_find_index_exact_rational_profile():
    dictionary = PolynomialDictionary(2)
    profile = MultiIndexPolynomial(2, {(1, 0): 0.5, (0, 2): -0.75})
    grid = ball_sup_grid(2, 100)
    index, candidate = dictionary.find_index(profile, 1e-12, grid)
    assert candidate.terms == {(1, 0): Fraction(1, 2), (0, 2): Fraction(-3, 4)}
    assert dictionary.polynomial_at(index) == candidate


def test_find_index_within_tolerance():
    dictionary = PolynomialDictionary(1)
    profile = MultiIndexPolynomial(1, {(1,): math.pi / 4})
    grid = np.linspace(-1, 1, 64)[:, None]
    index, candidate = dictionary.find_index(profile, 1e-7, grid)
    target = profile.eval_many(grid)
    found = candidate.map_coefficients(float).eval_many(grid)
    assert np.max(np.abs(found - target)) <= 1e-7
    assert dictionary.polynomial_at(index) == candidate


def make_ortho_decomposition(seed=5):
    rng = np.random.default_rng(seed)
    d, ell, s = 3, 2, 2
    P = MultiIndexPolynomial(d, {k: rng.standard_normal()
                                 for k in monomials_up_to(d, s)})
    dirs = sample_spanning_directions(d - ell + 1, s,
                                      dim_homogeneous(d - ell + 1, s), seed=1)
    dec = decompose(P, dirs, d, ell)
    mats, profs = zip(*(orthonormalize_rows(A, pr)
                        for A, pr in zip(dec.matrices, dec.profiles)))
    return P, RidgeDecomposition(d, ell, list(mats), list(profs))


def test_gtn_matches_ridge_sum():
    P, dec = make_ortho_decomposition()
    dictionary = PolynomialDictionary(dec.ell)
    net = gtn_from_decomposition(dec, dictionary, DELTA)
    grid = ball_sup_grid(dec.d, 1000)
    err = np.max(np.abs(net.eval_many(grid) - P.eval_many(grid)))
    assert err <= net.n * DELTA


def test_gtn_json_round_trip():
    _, dec = make_ortho_decomposition()
    dictionary = PolynomialDictionary(dec.ell)
    net = gtn_from_decomposition(dec, dictionary, DELTA)
    clone = GTNetwork.from_json_dict(json.loads(json.dumps(net.to_json_dict())),
                                     dictionary)
    grid = ball_sup_grid(dec.d, 200)
    assert np.array_equal(clone.eval_many(grid), net.eval_many(grid))


def test_cvnn_matches_ridge_sum():
    from ridgekit.polycore import _homogeneous_exponents, dim_complex_bihomogeneous
    from ridgekit.ridge_complex import (complex_decompose, complex_sup_grid,
                                        sample_complex_directions)
    rng = np.random.default_rng(9)
    d, s = 2, 1
    terms = {}
    for a in range(s + 1):
        for b in range(s + 1):
            for k in _homogeneous_exponents(d, a):
                for l in _homogeneous_exponents(d, b):
                    terms[(k, l)] = complex(rng.standard_normal(), rng.standard_normal())
    P = ComplexBiPolynomial(d, terms)
    n = max(dim_complex_bihomogeneous(d, a, b)
            for a in range(s + 1) for b in range(s + 1))
    dirs = sample_complex_directions(d, s, s, n, seed=3)
    dec = complex_decompose(P, dirs)
    dictionary = ComplexPolynomialDictionary()
    net = cvnn_from_decomposition(dec, dictionary, DELTA)
    grid = complex_sup_grid(d, 1000)
    err = np.max(np.abs(net.eval_many(grid) - P.eval_many(grid)))
    assert err <= net.n * DELTA


def test_cvnn_json_round_trip():
    dictionary = ComplexPolynomialDictionary()
    poly = ComplexBiPolynomial(1, {((1,), (0,)): ExactComplex(Fraction(1, 2), 0)})
    index = dictionary.index_of(poly)
    unit = {"alpha": np.array([1.0 + 0j]), "beta": 0j, "gamma": 1.0,
            "dict_index": index}
    net = CVNNetwork(1, [unit], dictionary)
    clone = CVNNetwork.from_json_dict(json.loads(json.dumps(net.to_json_dict())),
                                      dictionary)
    pts = np.array([[3.0 * index + 0.4 + 0.2j]])
    assert np.array_equal(clone.eval_many(pts), net.eval_many(pts))


def test_blend_weights_on_arrays_equal_pointwise_values():
    rng = np.random.default_rng(11)
    radii = np.concatenate([np.linspace(0.0, 2.0, 401), [1.0, BLEND_OUTER],
                            rng.uniform(0.9, 1.5, 200)])
    assert np.array_equal(_blend_weight(radii), np.array([_blend_weight(r) for r in radii]))
    local = rng.uniform(-1.6, 1.6, 300) + 1j * rng.uniform(-1.6, 1.6, 300)
    weights = _blend_weight(np.abs(local.real)) * _blend_weight(np.abs(local.imag))
    pointwise = np.array([_blend_weight(abs(w.real)) * _blend_weight(abs(w.imag))
                          for w in local])
    assert np.array_equal(weights, pointwise)
