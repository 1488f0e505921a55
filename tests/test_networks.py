import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import complex_sup_grid
from ridgekit.networks import (BLEND_OUTER, CELL_SPACING, CVNNetwork, ComplexPolynomialDictionary,
                               GTNetwork, PolynomialDictionary, cvnn_from_decomposition,
                               gtn_from_decomposition, phi_eval, tau_eval, _blend_weight,
                               _round_dyadic,
                               _coefficient_from_items, _coefficient_items,
                               _index_from_lists, _lists_from_index)
from ridgekit.polycore import (TABLE_ELEMENTS, ComplexBiPolynomial, ExactComplex,
                               MultiIndexPolynomial, contract_terms, dim_homogeneous,
                               monomials_up_to, rank_grlex)
from ridgekit.quadrature import ball_sup_grid
from ridgekit.ridge_complex import ComplexRidgeDecomposition
from ridgekit.ridge_real import (RidgeDecomposition, decompose,
                                 orthonormalize_rows,
                                 sample_spanning_directions)

DELTA = 1e-6


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.lists(st.lists(st.integers(min_value=0, max_value=10 ** 9), min_size=1), min_size=1))
def test_index_numeral_round_trip(n, lists):
    assert _index_from_lists(_lists_from_index(n)) == n
    assert _lists_from_index(_index_from_lists(lists)) == lists


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_rational_code_round_trip(code):
    # every list of naturals, the empty one included, ends the last list of some index
    items = _lists_from_index(code)[-1][1:]
    assert _coefficient_items(_coefficient_from_items(items)) == items


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
def test_rational_round_trip(num, den):
    assume(num != 0)  # a zero coefficient is no term
    value = Fraction(num, den)
    assert _coefficient_from_items(_coefficient_items(value)) == value


def test_rational_code_size_polynomial_in_denominator_bits():
    constant = MultiIndexPolynomial(1, {(0,): Fraction(1, 2 ** 60)})
    assert PolynomialDictionary(1).index_of(constant).bit_length() < 5000


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_index_bits_near_the_information_of_the_entry(ell, data):
    # at most 4 index bits per bit of the terms' numerators, denominators and
    # monomial ranks: 2 bits per base-4 digit, and bijective binary items
    keys = data.draw(st.lists(st.sampled_from(monomials_up_to(ell, 8)), min_size=1, unique=True))
    coefficients = data.draw(st.lists(
        st.fractions(min_value=-2 ** 64, max_value=2 ** 64, max_denominator=2 ** 64).filter(bool),
        min_size=len(keys), max_size=len(keys)))
    poly = MultiIndexPolynomial(ell, dict(zip(keys, coefficients)))
    information = sum(abs(c.numerator).bit_length() + c.denominator.bit_length()
                      + (rank_grlex(tuple(k)) + 1).bit_length() for k, c in poly.terms.items())
    assert PolynomialDictionary(ell).index_of(poly).bit_length() <= 4 * information


def test_long_index_round_trips_through_a_fresh_dictionary():
    rng = np.random.default_rng(4)
    poly = MultiIndexPolynomial(2, {k: Fraction(int(rng.integers(1, 2 ** 40)), 2 ** 41)
                                    for k in monomials_up_to(2, 10)})
    index = PolynomialDictionary(2).index_of(poly)
    assert index.bit_length() > 7000
    assert PolynomialDictionary(2).polynomial_at(index) == poly


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


# indices of the bijective base-4 codec (one term per nonzero real or
# imaginary part, in slot 2 rank_grlex((s, t)) + part); they pin the encoding
COMPLEX_INDEX_GOLDEN = [
    ({((1,), (0,)): ExactComplex(Fraction(1, 2), 0)}, 113),
    ({((1,), (1,)): ExactComplex(1, 0)}, 24),
    ({((0,), (2,)): ExactComplex(0, -1), ((2,), (0,)): ExactComplex(3, 0),
      ((1,), (1,)): ExactComplex(Fraction(-1, 4), Fraction(1, 8))}, 23502733008),
    ({((0,), (1,)): 0.25 - 0.5j, ((1,), (0,)): 2.0, ((0,), (0,)): -1.0}, 59241349),
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
        dictionary.find_index(poly, 1e-9)


def test_find_index_validates_inputs():
    profile = MultiIndexPolynomial(3, {(1, 0, 0): 0.3})
    with pytest.raises(ValueError, match="variable count mismatch"):
        PolynomialDictionary(2).find_index(profile, 1e-6)
    real_profile = MultiIndexPolynomial(1, {(1,): 0.3})
    complex_profile = ComplexBiPolynomial(1, {((1,), (0,)): 0.3 + 0.1j})
    for tol in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            PolynomialDictionary(1).find_index(real_profile, tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ComplexPolynomialDictionary().find_index(complex_profile, tol)
    # a real dictionary has one slot per coefficient, so an imaginary part has none
    for c in (0.3 + 0.1j, ExactComplex(Fraction(3, 10), 1)):
        with pytest.raises(ValueError, match="is not real"):
            PolynomialDictionary(1).find_index(MultiIndexPolynomial(1, {(1,): c}), 1e-6)
        with pytest.raises(ValueError, match="is not real"):
            PolynomialDictionary(1).index_of(MultiIndexPolynomial(1, {(1,): c}))


def test_find_index_exact_rational_profile():
    dictionary = PolynomialDictionary(2)
    profile = MultiIndexPolynomial(2, {(1, 0): 0.5, (0, 2): -0.75})
    index, candidate = dictionary.find_index(profile, 1e-12)
    assert candidate.terms == {(1, 0): Fraction(1, 2), (0, 2): Fraction(-3, 4)}
    assert dictionary.polynomial_at(index) == candidate


def test_find_index_within_tolerance():
    dictionary = PolynomialDictionary(1)
    profile = MultiIndexPolynomial(1, {(1,): math.pi / 4})
    grid = np.linspace(-1, 1, 64)[:, None]
    index, candidate = dictionary.find_index(profile, 1e-7)
    target = profile.eval_many(grid)
    found = candidate.map_coefficients(float).eval_many(grid)
    assert np.max(np.abs(found - target)) <= 1e-7
    assert dictionary.polynomial_at(index) == candidate


def test_float_rounding_equals_fraction_rounding():
    # a float is scaled by ldexp and rounded as a float; the Fraction path is the reference
    rng = np.random.default_rng(9)
    for j in (0, 1, 20, 40, 60):
        ties = (rng.integers(-2**20, 2**20, size=200) + 0.5) / 2.0 ** j
        values = np.concatenate([rng.standard_normal(2000) * 10.0 ** rng.integers(-20, 8, 2000),
                                 ties, [0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1e300, -1e300,
                                        5e-324, -5e-324, 2.0**53 + 2, -(2.0**52) - 0.5]])
        for value in values.tolist():
            got = _round_dyadic(value, j)
            assert type(got) is Fraction
            assert got == Fraction(round(Fraction(value) * 2**j), 2**j), (value, j)
    assert _round_dyadic(2.5, 0) == 2 and _round_dyadic(-3.5, 0) == -4  # ties to even
    assert _round_dyadic(1e308, 60) == Fraction(1e308)  # 2^60 * 1e308 overflows a double
    assert _round_dyadic(Fraction(5, 2), 0) == 2 and _round_dyadic(3, 2) == 3


# (dim, profile terms, tol, index, candidate terms), recorded from the direct
# rule: T coefficients rounded to multiples of 2^-j, j = ceil(log2(T / tol)) - 1
FIND_INDEX_GOLDEN = {
    "d1-cubic": (
        1, {(0,): 0.3, (1,): -1.2345, (3,): 0.017}, 2e-2, 1132621046922903212,
        {(0,): Fraction(19, 64), (1,): Fraction(-79, 64), (3,): Fraction(1, 64)}),
    "d1-sparse": (
        1, {(2,): 1 / 3, (5,): -0.1}, 1e-2, 208865815124957,
        {(2,): Fraction(43, 128), (5,): Fraction(-13, 128)}),
    "d2": (
        2, {(0, 0): 0.1, (1, 1): -math.e / 3, (2, 0): 0.625}, 1e-3, 17707689472341509121,
        {(0, 0): Fraction(205, 2048), (1, 1): Fraction(-29, 32), (2, 0): Fraction(5, 8)}),
    # j = 3: the (0, 1, 1) coefficient is below 2^-4, rounds to zero and drops out
    "d3-drops-term": (
        3, {(1, 0, 0): 0.5, (0, 1, 1): -0.05, (0, 0, 2): 0.8}, 0.3,
        98559, {(1, 0, 0): Fraction(1, 2), (0, 0, 2): Fraction(3, 4)}),
}


@pytest.mark.parametrize("dim,terms,tol,index,expected", FIND_INDEX_GOLDEN.values(),
                         ids=FIND_INDEX_GOLDEN.keys())
def test_find_index_golden(dim, terms, tol, index, expected):
    dictionary = PolynomialDictionary(dim)
    found, candidate = dictionary.find_index(MultiIndexPolynomial(dim, terms), tol)
    assert found == index
    assert candidate.terms == expected
    assert all(type(c) is Fraction for c in candidate.terms.values())
    # the recorded terms follow from the rule itself
    j = math.ceil(math.log2(len(terms) / tol)) - 1
    rounded = {k: Fraction(round(c * 2 ** j), 2 ** j) for k, c in terms.items()}
    assert expected == {k: c for k, c in rounded.items() if c != 0}
    assert sum(abs(Fraction(c) - rounded[k]) for k, c in terms.items()) <= tol


def _coefficient_errors(profile, entry):
    """{key: (d re, d im)} of entry - profile, exactly, in Fractions."""
    def parts(c):
        if isinstance(c, ExactComplex):
            return c.re, c.im
        c = complex(c)
        return Fraction(c.real), Fraction(c.imag)
    zero = ExactComplex(0, 0)
    return {key: tuple(e - p for e, p in zip(parts(entry.terms.get(key, zero)), parts(c)))
            for key, c in profile.terms.items()}


def check_rounding_certificate(profile, entry, tol, points):
    """The exact mismatch sum |d re| + |d im| is at most tol, and the
    difference entry - profile is at most the mismatch on the points."""
    errors = _coefficient_errors(profile, entry)
    mismatch = sum(abs(re) + abs(im) for re, im in errors.values())
    assert mismatch <= tol
    diff = {key: complex(re, im) for key, (re, im) in errors.items()}
    if isinstance(profile, MultiIndexPolynomial):
        diff = {key: c.real for key, c in diff.items()}
    diff = type(profile)(profile.dim, diff)
    # float evaluation of the difference adds rounding of order
    # (term count) * 2^-53 relative to the sum of its coefficients' moduli
    assert np.max(np.abs(diff.eval_many(points))) <= float(mismatch) * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4),
       st.floats(min_value=1e-10, max_value=1e-1), st.integers(min_value=0, max_value=2 ** 32))
def test_real_rounding_certificate(ell, degree, tol, seed):
    rng = np.random.default_rng(seed)
    profile = MultiIndexPolynomial(ell, {k: rng.standard_normal() * 10 ** rng.uniform(-3, 1)
                                         for k in monomials_up_to(ell, degree)})
    _, entry = PolynomialDictionary(ell).find_index(profile, tol)
    inner = ball_sup_grid(ell, 5000)[1:]
    points = np.vstack([inner, inner / np.linalg.norm(inner, axis=1, keepdims=True)])
    check_rounding_certificate(profile, entry, tol, points)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.floats(min_value=1e-10, max_value=1e-1),
       st.integers(min_value=0, max_value=2 ** 32))
def test_complex_rounding_certificate(degree, tol, seed):
    rng = np.random.default_rng(seed)
    profile = ComplexBiPolynomial(1, {
        ((a,), (b,)): complex(*rng.standard_normal(2)) * 10 ** rng.uniform(-3, 1)
        for a in range(degree + 1) for b in range(degree + 1)})
    _, entry = ComplexPolynomialDictionary().find_index(profile, tol)
    inner = complex_sup_grid(1, 5000, seed=seed % 1000)
    check_rounding_certificate(profile, entry, tol, np.vstack([inner, inner / np.abs(inner)]))


def make_ortho_decomposition(s=2):
    rng = np.random.default_rng(5)
    d, ell = 3, 2
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
    assert net.certificate <= net.n * DELTA


def test_builders_reject_unit_maps_past_norm_one():
    _, dec = make_ortho_decomposition()
    stretched = RidgeDecomposition(dec.d, dec.ell, [1.01 * A for A in dec.matrices],
                                   dec.profiles)
    with pytest.raises(ValueError, match="unit 0: spectral norm of A is 1.01 .*orthonormalize_rows"):
        gtn_from_decomposition(stretched, PolynomialDictionary(dec.ell), DELTA)
    profile = ComplexBiPolynomial(1, {((1,), (1,)): 0.5})
    vectors = np.array([[0.6, 0.8j], [0.606, 0.808j]])  # norms 1 and 1.01
    cdec = ComplexRidgeDecomposition(2, vectors, [profile, profile])
    with pytest.raises(ValueError, match="unit 1: norm of alpha is 1.01"):
        cvnn_from_decomposition(cdec, ComplexPolynomialDictionary(), DELTA)


def make_complex_decomposition():
    from ridgekit.polycore import _homogeneous_exponents, dim_complex_bihomogeneous
    from ridgekit.ridge_complex import complex_decompose, sample_complex_directions
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
    return P, complex_decompose(P, dirs)


def test_cvnn_matches_ridge_sum():
    P, dec = make_complex_decomposition()
    dictionary = ComplexPolynomialDictionary()
    net = cvnn_from_decomposition(dec, dictionary, DELTA)
    grid = complex_sup_grid(dec.d, 1000)
    err = np.max(np.abs(net.eval_many(grid) - P.eval_many(grid)))
    assert err <= net.n * DELTA
    assert net.certificate <= net.n * DELTA


@pytest.mark.parametrize("kind", ["gtn", "cvnn"])
def test_built_networks_hold_the_entries_their_indices_decode_to(kind):
    # find_index caches the entry it returns, so the network reads each unit's
    # profile from the builder's dictionary without decoding its index; a
    # fresh dictionary decodes the same polynomial from the index
    if kind == "gtn":
        dec = make_ortho_decomposition()[1]
        dictionary, fresh = PolynomialDictionary(dec.ell), PolynomialDictionary(dec.ell)
        net = gtn_from_decomposition(dec, dictionary, DELTA)
    else:
        dec = make_complex_decomposition()[1]
        dictionary, fresh = ComplexPolynomialDictionary(), ComplexPolynomialDictionary()
        net = cvnn_from_decomposition(dec, dictionary, DELTA)
    for unit, profile in zip(net.units, dec.profiles):
        index, entry = dictionary.find_index(profile, DELTA)
        assert index == unit["dict_index"]
        assert dictionary.polynomial_at(index) is entry
        assert fresh.polynomial_at(index) == entry


# A built unit's index has hundreds of bits: 3m is a double, but its cell and
# the offset in it are lost, so the activations must refuse the input rather
# than read the cell of another entry.
def test_tau_eval_rejects_a_built_units_cell_input():
    _, dec = make_ortho_decomposition(s=3)
    net = gtn_from_decomposition(dec, PolynomialDictionary(dec.ell), DELTA)
    unit = net.units[0]
    assert unit["dict_index"].bit_length() > 53
    y = unit["A"] @ np.array([0.3, -0.2, 0.1]) + unit["b"]
    with pytest.raises(ValueError, match=r"2\^53"):
        tau_eval(net.dictionary, y + [CELL_SPACING * unit["dict_index"], 0.0])
    for first in (2.0 ** 53, -2.0 ** 60, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"2\^53"):
            tau_eval(net.dictionary, [first, 0.0])


def test_phi_eval_rejects_a_built_units_cell_input():
    _, dec = make_complex_decomposition()
    net = cvnn_from_decomposition(dec, ComplexPolynomialDictionary(), DELTA)
    unit = net.units[0]
    assert unit["dict_index"].bit_length() > 53
    w = unit["alpha"] @ np.array([0.3 - 0.1j, 0.2j]) + unit["beta"]
    with pytest.raises(ValueError, match=r"2\^53"):
        phi_eval(net.dictionary, w + CELL_SPACING * unit["dict_index"])
    with pytest.raises(ValueError, match=r"2\^53"):
        phi_eval(net.dictionary, complex(-2.0 ** 53, 0.5))


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


# Dictionary indices of the hand-built networks below: index 1 is the zero
# profile, and the cells lie within 3 * 40 of the origin, so x + 3m e_1 keeps
# the input to about 1e-14 and tau_eval / phi_eval can serve as the reference.
SUM_INDICES = (1, 5, 23, 31, 40)
SUM_TOL = 1e-12


def assert_unit_sum(got, terms):
    # terms: (units, points) array of c_k * activation(unit k input)
    scale = np.sum(np.abs(terms), axis=0)
    assert got.shape == scale.shape
    assert np.all(np.abs(got - terms.sum(axis=0)) <= SUM_TOL * scale)


def spread_points(candidates, inputs, offset, size):
    """200 candidate points with some unit input within the blend radius of
    its cell and 100 with every unit input outside it, all with every input's
    offset along e_1 below 1.45, so the nearest cell is the unit's own and the
    activation there is the unit's profile."""
    local = inputs(candidates)
    ok = np.all(offset(local) < 1.45, axis=0)
    outside = np.all(size(local) > BLEND_OUTER, axis=0)
    near, far = candidates[ok & ~outside], candidates[ok & outside]
    assert len(near) >= 200 and len(far) >= 100
    return np.concatenate([near[:200], far[:100]])


def test_gtn_equals_sum_of_activations_at_shifted_cell_inputs():
    ell, d = 2, 3
    rng = np.random.default_rng(5)
    dictionary = PolynomialDictionary(ell)
    # short first rows keep the inputs' offsets along e_1 small; second rows
    # near 0.8 e_3 put every input outside its cell where |x_3| is large
    units = [{"A": rng.uniform(-0.25, 0.25, (ell, d)) + [[0, 0, 0], [0, 0, 0.8]],
              "b": rng.uniform(-0.2, 0.2, ell),
              "c": float(rng.standard_normal()), "dict_index": index}
             for index in SUM_INDICES]
    net = GTNetwork(ell, d, units, dictionary)
    inputs = lambda points: np.stack([points @ u["A"].T + u["b"] for u in units])
    radius = lambda local: np.linalg.norm(local, axis=-1)
    points = spread_points(rng.uniform(-3, 3, (20000, d)), inputs,
                           lambda local: np.abs(local[..., 0]), radius)
    local = inputs(points)
    radii = radius(local)
    assert np.any(radii < 1) and np.any((radii > 1) & (radii < BLEND_OUTER))
    terms = np.array([[u["c"] * tau_eval(dictionary, y + [CELL_SPACING * u["dict_index"], 0])
                       for y in ys] for u, ys in zip(units, local)])
    assert not np.any(terms[0])  # the zero profile
    assert_unit_sum(net.eval_many(points), terms)


def test_cvnn_equals_sum_of_activations_at_shifted_cell_inputs():
    d = 2
    rng = np.random.default_rng(6)
    dictionary = ComplexPolynomialDictionary()
    # with Im z small, short real parts of alpha keep Re(alpha . z) small;
    # imaginary parts near 0.8 e_2 put every input outside its cell where
    # |Re z_2| is large
    units = [{"alpha": rng.uniform(-0.15, 0.15, d) + 1j * (rng.uniform(-0.25, 0.25, d) + [0, 0.8]),
              "beta": complex(*rng.uniform(-0.2, 0.2, 2)),
              "gamma": complex(*rng.standard_normal(2)), "dict_index": index}
             for index in SUM_INDICES]
    net = CVNNetwork(d, units, dictionary)
    inputs = lambda points: np.stack([points @ u["alpha"] + u["beta"] for u in units])
    side = lambda local: np.maximum(np.abs(local.real), np.abs(local.imag))
    candidates = rng.uniform(-3, 3, (20000, d)) + 1j * rng.uniform(-0.3, 0.3, (20000, d))
    points = spread_points(candidates, inputs, lambda local: np.abs(local.real), side)
    local = inputs(points)
    sides = side(local)
    assert np.any(sides < 1) and np.any((sides > 1) & (sides < BLEND_OUTER))
    terms = np.array([[u["gamma"] * phi_eval(dictionary, w + CELL_SPACING * u["dict_index"])
                       for w in ws] for u, ws in zip(units, local)])
    assert not np.any(terms[0])  # the zero profile
    assert_unit_sum(net.eval_many(points), terms)


def test_networks_without_units_and_at_one_point():
    real = GTNetwork(2, 3, [], PolynomialDictionary(2))
    assert np.array_equal(real.eval_many(np.ones((4, 3))), np.zeros(4))
    cplx = CVNNetwork(2, [], ComplexPolynomialDictionary())
    out = cplx.eval_many(np.ones((4, 2), dtype=complex))
    assert out.dtype == complex and np.array_equal(out, np.zeros(4))
    # one 1-D point gives one value, as the same point in a 2-D array does
    unit = {"A": np.array([[0.6]]), "b": np.array([0.1]), "c": 2.0, "dict_index": 23}
    net = GTNetwork(1, 1, [unit], PolynomialDictionary(1))
    x = np.array([0.5])
    assert net.eval_many(x).shape == (1,)
    assert net.eval_many(x)[0] == net.eval_many(x[None, :])[0]
    assert net.eval_many(x)[0] == pytest.approx(
        2.0 * tau_eval(net.dictionary, [0.4 + CELL_SPACING * 23]), rel=SUM_TOL)


@pytest.mark.parametrize("kind", ["gtn", "cvnn"])
def test_networks_copy_and_freeze_their_unit_data(kind):
    # evaluation reads a copy taken at construction, so changing the caller's
    # unit data afterwards does not change the network's values
    if kind == "gtn":
        unit = {"A": np.array([[0.6, 0.0, 0.8]]), "b": np.array([0.1]), "c": 2.0,
                "dict_index": 23}
        net, points = GTNetwork(1, 3, [unit], PolynomialDictionary(1)), np.full((5, 3), 0.2)
        change = ("A", "c")
    else:
        unit = {"alpha": np.array([0.6, 0.8j]), "beta": 0.1j, "gamma": 2.0, "dict_index": 23}
        net, points = CVNNetwork(2, [unit], ComplexPolynomialDictionary()), np.full((5, 2), 0.2j)
        change = ("alpha", "gamma")
    values = net.eval_many(points)
    unit[change[0]][0] = 0.1
    unit[change[1]] = -1.0
    assert np.array_equal(net.eval_many(points), values)
    with pytest.raises(ValueError, match="read-only"):
        net.units[0][change[0]][0] = 0.1


def layout_units(kind, rng):
    """Dictionary indices of profiles with different layouts: two key sets of
    equal shape and heads, one sparser, and the zero profile (index 1) at
    position 1, so the units fall into three stacks, one of them consecutive."""
    if kind == "gtn":
        dictionary, var_count = PolynomialDictionary(2), 2
        dense = monomials_up_to(2, 2)
        sparse = [(3, 0), (0, 1)]
        make = lambda keys: MultiIndexPolynomial(2, {
            k: Fraction(int(rng.integers(1, 9)), 8) for k in keys})
    else:
        dictionary, var_count = ComplexPolynomialDictionary(), 1
        dense = [((s,), (t,)) for s in range(3) for t in range(2)]
        sparse = [((3,), (0,)), ((0,), (1,))]
        make = lambda keys: ComplexBiPolynomial(1, {
            k: ExactComplex(Fraction(int(rng.integers(1, 9)), 8), Fraction(-1, 4))
            for k in keys})
    profiles = [make(dense), None, make(dense), make(sparse), make(sparse), make(dense),
                make(dense)]
    indices = [1 if p is None else dictionary.index_of(p) for p in profiles]
    return dictionary, indices


@pytest.mark.parametrize("kind", ["gtn", "cvnn"])
@pytest.mark.parametrize("count", [1, 100, "chunks"])
def test_stacked_units_equal_each_units_contraction_bitwise(kind, count):
    # units of different layouts, the zero profile among them, contracted in
    # stacks against one contract_terms per unit at that unit's inputs, summed
    # by the network's own outer product; "chunks" spans several point chunks
    rng = np.random.default_rng(41 + (kind == "cvnn"))
    dictionary, indices = layout_units(kind, rng)
    d = 3
    if kind == "gtn":
        units = [{"A": rng.uniform(-0.5, 0.5, (2, d)), "b": rng.uniform(-0.2, 0.2, 2),
                  "c": float(rng.standard_normal()), "dict_index": i} for i in indices]
        net, dtype = GTNetwork(2, d, units, dictionary), float
    else:
        units = [{"alpha": rng.uniform(-0.5, 0.5, d) + 1j * rng.uniform(-0.5, 0.5, d),
                  "beta": complex(*rng.uniform(-0.2, 0.2, 2)),
                  "gamma": complex(*rng.standard_normal(2)), "dict_index": i} for i in indices]
        net, dtype = CVNNetwork(d, units, dictionary), complex
    assert sorted(len(grouped) for _, (grouped, _) in net._groups) == [1, 2, 4]
    layouts = [dictionary.polynomial_at(i).layout(dtype) for i in indices]
    assert layouts[1][0].shape == (0, 0)
    if count == "chunks":
        count = 2 * TABLE_ELEMENTS // max(sum(g.shape) for g, _ in layouts) + 5
    points = rng.uniform(-1, 1, (count, d))
    if kind == "cvnn":
        points = points + 1j * rng.uniform(-1, 1, (count, d))
    local = net._local(points)
    if kind == "gtn":
        inputs, weights = local, _blend_weight(np.linalg.norm(local, axis=2))
    else:
        inputs = np.concatenate([local, local.conj()], axis=2)
        weights = (_blend_weight(np.abs(local.real)) * _blend_weight(np.abs(local.imag)))[..., 0]
    values = np.stack([contract_terms(layout, inputs[:, k]) for k, layout in enumerate(layouts)],
                      axis=1)
    want = (weights * values) @ net._outer
    assert net.eval_many(points).tobytes() == want.tobytes()
    assert not np.any(values[:, 1])


@pytest.mark.parametrize("kind", ["gtn", "cvnn"])
def test_networks_reject_points_of_the_wrong_width(kind):
    if kind == "gtn":
        unit = {"A": np.array([[0.6, 0.0, 0.8]]), "b": np.array([0.1]), "c": 2.0,
                "dict_index": 23}
        net, points = GTNetwork(1, 3, [unit], PolynomialDictionary(1)), np.ones((4, 2))
    else:
        unit = {"alpha": np.array([0.6, 0.0, 0.8j]), "beta": 0.1j, "gamma": 2.0, "dict_index": 23}
        net = CVNNetwork(3, [unit], ComplexPolynomialDictionary())
        points = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError, match="points have dimension 2, expected 3"):
        net.eval_many(points)
