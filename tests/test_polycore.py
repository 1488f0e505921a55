import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dd_poly_values, reference_substitute
from ridgekit.orthobasis import monomial_values
from ridgekit.polycore import (TABLE_ELEMENTS, ComplexBiPolynomial, ExactComplex, MultiIndex,
                               MultiIndexPolynomial, contract_terms, dim_complex_bihomogeneous,
                               dim_homogeneous, grlex_key, monomial_table,
                               monomials_up_to, point_chunks, rank_grlex, terms_layout,
                               unrank_grlex)
from ridgekit.quadrature import ball_sup_grid
from ridgekit.ridge_real import U, decompose, sample_spanning_directions

EVAL_TOL = 1e-12


def brute_force_homogeneous_count(m, s):
    return sum(1 for k in itertools.product(range(s + 1), repeat=m) if sum(k) == s)


def test_dim_homogeneous_examples():
    assert dim_homogeneous(2, 3) == 4  # x^3, x^2 y, x y^2, y^3
    assert dim_homogeneous(3, 2) == 6


def test_dim_homogeneous_matches_enumeration():
    for m in range(1, 7):
        for s in range(0, 9):
            assert dim_homogeneous(m, s) == brute_force_homogeneous_count(m, s)


def test_dim_complex_bihomogeneous_example():
    assert dim_complex_bihomogeneous(2, 2, 2) == 9
    for d in (1, 2, 3):
        for s in range(4):
            for t in range(4):
                assert dim_complex_bihomogeneous(d, s, t) == \
                    dim_homogeneous(d, s) * dim_homogeneous(d, t)


def test_multi_index_order_and_factorial():
    k = MultiIndex((2, 0, 3))
    assert k.order() == 5
    assert k.factorial() == math.factorial(2) * math.factorial(3)


def test_multi_index_is_validated_once():
    k = MultiIndex((2, 0, 3))
    assert MultiIndex(k) is k
    assert MultiIndex([2, 0, 3]) == k and MultiIndex([2, 0, 3]) is not k
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


def test_multi_index_rejects_non_integer_entries():
    # a float, integral or not, a string or None is rejected, not truncated or parsed
    for entries in (("2", 1), (1.5, 0), (1.0, 0), (np.float64(2), 0), (None,)):
        with pytest.raises(TypeError, match="must be integers"):
            MultiIndex(entries)
    with pytest.raises(TypeError, match=r"\(1\.5, 0\)"):
        MultiIndexPolynomial(2, {(1.5, 0): 1.0, (1, 0): 2.0})
    with pytest.raises(TypeError, match="must be integers"):
        ComplexBiPolynomial(1, {((1,), ("0",)): 1.0})
    # Python and numpy integers pass, as plain ints
    k = MultiIndex((np.int64(2), np.uint8(1), True, 0))
    assert k == (2, 1, 1, 0) and all(type(e) is int for e in k)


@pytest.fixture
def validations(monkeypatch):
    """A list counting the MultiIndex constructions that validate entries,
    that is, every one not handed a MultiIndex."""
    count = [0]
    validate = MultiIndex.__new__

    def counting_new(cls, entries):
        count[0] += not isinstance(entries, MultiIndex)
        return validate(cls, entries)

    monkeypatch.setattr(MultiIndex, "__new__", counting_new)
    return count


def test_enumerated_keys_products_and_decompositions_are_not_revalidated(validations):
    d, ell, s = 4, 2, 4
    dirs = sample_spanning_directions(3, s, dim_homogeneous(3, s), seed=1)
    rng = np.random.default_rng(2)
    assert validations == [0]
    P = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, s)})
    Q = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, 2)})
    complex_p = ComplexBiPolynomial(2, {(k, l): 1j for k in monomials_up_to(2, 2)
                                        for l in monomials_up_to(2, 1)})
    assert validations == [0]
    product, complex_product = P * Q, complex_p * complex_p.conjugate()
    assert validations == [0]
    dec = decompose(P, dirs, d, ell)
    assert validations == [0]
    assert product.degree() == s + 2 and complex_product.holomorphic_degree() == 3
    assert all(type(k) is MultiIndex for k in list(product.terms) + list(dec._rows.keys))
    MultiIndexPolynomial(2, {(1, 0): 1.0})  # a plain tuple is validated, once
    assert validations == [1]


def test_compose_linear_is_bitwise_the_reference_substitution():
    # 300 random polynomials and maps: every key, and every coefficient's
    # bits, equal those of the substitution that rebuilds every key as a tuple
    rng = np.random.default_rng(11)
    for _ in range(300):
        dim, d_out, degree = (int(v) for v in rng.integers(1, [4, 4, 6]))
        scale = 10.0 ** rng.integers(-3, 4, size=len(monomials_up_to(dim, degree)))
        p = MultiIndexPolynomial(dim, {k: c * rng.standard_normal() for k, c in
                                       zip(monomials_up_to(dim, degree), scale)
                                       if rng.random() < 0.6})
        A = rng.standard_normal((dim, d_out))
        units = [tuple(int(i == j) for i in range(d_out)) for j in range(d_out)]
        want = reference_substitute(p.terms, [dict(zip(units, row)) for row in A], d_out)
        got = p.compose_linear(A)
        assert list(got.terms) == list(want)
        assert (np.array(list(got.terms.values()), float).tobytes()
                == np.array(list(want.values()), float).tobytes())


def test_monomials_up_to_sorted_grlex():
    exps = monomials_up_to(2, 3)
    assert exps == sorted(exps, key=grlex_key)
    assert len(exps) == math.comb(3 + 2, 2)
    assert exps[0] == (0, 0)


def test_rank_unrank_round_trip():
    for dim in (1, 2, 3):
        for i, k in enumerate(monomials_up_to(dim, 5)):
            assert rank_grlex(k) == i or unrank_grlex(dim, rank_grlex(k)) == k
    for dim in (1, 2, 4):
        for rank in range(200):
            assert rank_grlex(unrank_grlex(dim, rank)) == rank


coeff_strategy = st.integers(min_value=-5, max_value=5)


def poly_strategy(dim, max_degree=3):
    exps = monomials_up_to(dim, max_degree)
    return st.dictionaries(st.sampled_from(exps), coeff_strategy, max_size=6).map(
        lambda terms: MultiIndexPolynomial(dim, terms))


@settings(max_examples=40, deadline=None)
@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=30, deadline=None)
@given(poly_strategy(2), poly_strategy(2))
def test_eval_is_ring_homomorphism(p, q):
    x = [Fraction(1, 3), Fraction(-2, 5)]
    assert (p + q).eval(x) == p.eval(x) + q.eval(x)
    assert (p * q).eval(x) == p.eval(x) * q.eval(x)


def test_eval_many_matches_eval():
    rng = np.random.default_rng(0)
    p = MultiIndexPolynomial(3, {k: rng.standard_normal() for k in monomials_up_to(3, 4)})
    pts = rng.standard_normal((20, 3))
    vals = p.eval_many(pts)
    for x, v in zip(pts, vals):
        assert abs(v - p.eval(list(x))) < EVAL_TOL


def test_compose_linear_exact():
    # P(x, y) = x^2 + y composed with a rational linear map, checked exactly
    p = MultiIndexPolynomial(2, {(2, 0): Fraction(1), (0, 1): Fraction(1)})
    A = [[Fraction(1, 2), Fraction(0), Fraction(1)],
         [Fraction(-1), Fraction(1, 3), Fraction(0)]]
    q = p.compose_linear(A)
    z = [Fraction(2), Fraction(3), Fraction(-1)]
    inner = [sum(row[j] * z[j] for j in range(3)) for row in A]
    assert q.eval(z) == p.eval(inner)


def test_compose_linear_matches_term_by_term_expansion():
    # every term c_k x^k expanded on its own as c_k times k_i copies of the
    # line (A y)_i, multiplied out one factor at a time, and summed exactly
    def times(p, q):
        out = {}
        for k1, c1 in p.items():
            for k2, c2 in q.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return out

    rng = np.random.default_rng(4)
    fraction = lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
    for dim, d_out, degree in [(1, 2, 5), (2, 3, 4), (3, 2, 3), (3, 1, 4)]:
        p = MultiIndexPolynomial(dim, {k: fraction() for k in monomials_up_to(dim, degree)
                                       if rng.random() < 0.7})
        A = [[fraction() for _ in range(d_out)] for _ in range(dim)]
        expected = {}
        for k, c in p.terms.items():
            term = {(0,) * d_out: c}
            for row, e in zip(A, k):
                line = {tuple(int(i == j) for i in range(d_out)): a for j, a in enumerate(row)}
                for _ in range(e):
                    term = times(term, line)
            for key, value in term.items():
                expected[key] = expected.get(key, 0) + value
        expected = {k: c for k, c in expected.items() if c != 0}
        got = p.compose_linear(A)
        assert got.terms == expected
        assert all(type(c) is Fraction for c in got.terms.values())


# Dyadic coefficients of P, so its value at complex points is exact in double.
SUBSTITUTED = MultiIndexPolynomial(3, {(0, 0, 0): Fraction(1, 4), (2, 0, 1): Fraction(-3, 2),
                                       (1, 1, 1): Fraction(5, 8), (0, 3, 0): Fraction(7, 2)})


@pytest.mark.parametrize("lines, point", [
    ([MultiIndexPolynomial(2, {(1, 0): Fraction(1, 3), (0, 0): Fraction(-2)}),
      MultiIndexPolynomial(2, {(1, 1): Fraction(2, 7), (0, 2): Fraction(1)}),
      MultiIndexPolynomial(2, {(0, 1): Fraction(-5, 3)})],
     [Fraction(1, 3), Fraction(-2, 5)]),
    # dyadic coefficients at Gaussian-integer points keep the complex arithmetic exact
    ([ComplexBiPolynomial(2, {((1, 0), (0, 0)): ExactComplex(Fraction(1, 2), 1),
                              ((0, 0), (0, 1)): ExactComplex(0, Fraction(-3, 4))}),
      ComplexBiPolynomial(2, {((0, 1), (1, 0)): ExactComplex(2, Fraction(1, 4))}),
      ComplexBiPolynomial(2, {((0, 0), (0, 0)): ExactComplex(-1),
                              ((0, 0), (0, 2)): ExactComplex(Fraction(1, 8))})],
     [1 + 2j, -1 + 1j]),
], ids=["real", "complex"])
def test_substitute_evaluates_at_line_values(lines, point):
    out = SUBSTITUTED.substitute(lines)
    assert type(out) is type(lines[0]) and out.dim == 2
    assert out.eval(point) == SUBSTITUTED.eval([line.eval(point) for line in lines])


def test_degree_and_zero_conventions():
    zero = MultiIndexPolynomial.zero(2)
    assert zero.is_zero()
    assert zero.degree() == -math.inf
    one = MultiIndexPolynomial.constant(2, 1)
    assert one.degree() == 0
    assert (one - one).is_zero()


def random_sparse_poly(dim, rng):
    """Random polynomial of degree <= 5 on a random subset of the monomials
    (possibly none)."""
    keys = monomials_up_to(dim, int(rng.integers(0, 6)))
    chosen = rng.choice(len(keys), size=int(rng.integers(0, len(keys) + 1)), replace=False)
    return MultiIndexPolynomial(dim, {keys[i]: rng.standard_normal() for i in chosen})


def test_degree_is_the_top_order_of_the_terms():
    rng = np.random.default_rng(21)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        p, q = random_sparse_poly(dim, rng), random_sparse_poly(dim, rng)
        top = {k: -c for k, c in p.terms.items() if k.order() == p.degree()}
        results = [p, q, p + q, p - p, p * q, p + MultiIndexPolynomial(dim, top),
                   p.map_coefficients(lambda c: 3 * c),
                   p.map_coefficients(lambda c: c if c > 0 else 0)]  # prunes terms
        for poly in results:
            assert poly.degree() == max((k.order() for k in poly.terms), default=-math.inf)


def axis_points(dim, units):
    """The origin, then u e_1, ..., u e_dim for each unit u in turn."""
    return np.vstack([np.zeros((1, dim))] + [u * np.eye(dim) for u in units])


def check_axis_values(poly, units):
    values = poly.axis_values()
    expected = poly.eval_many(axis_points(poly.dim, units))
    assert values.shape == expected.shape
    scale = sum(abs(complex(c)) for c in poly.terms.values())
    assert np.max(np.abs(values - expected)) <= 1e-13 * scale


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_axis_values_match_evaluation_real(dim):
    rng = np.random.default_rng(dim)
    polys = [MultiIndexPolynomial.zero(dim), MultiIndexPolynomial.constant(dim, -2.5),
             MultiIndexPolynomial(dim, {k: rng.standard_normal()
                                        for k in monomials_up_to(dim, 6)}),
             MultiIndexPolynomial(dim, {k: Fraction(i + 1, 3)
                                        for i, k in enumerate(monomials_up_to(dim, 3))})]
    polys += [random_sparse_poly(dim, rng) for _ in range(10)]
    for poly in polys:
        check_axis_values(poly, (1, -1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_axis_values_match_evaluation_complex(dim):
    rng = np.random.default_rng(10 + dim)
    exps = monomials_up_to(dim, 3)
    pairs = [(k, l) for k in exps for l in exps]
    polys = [ComplexBiPolynomial.zero(dim), ComplexBiPolynomial.constant(dim, 1.5 - 2j),
             ComplexBiPolynomial(dim, {key: complex(*rng.standard_normal(2)) for key in pairs}),
             ComplexBiPolynomial(dim, {key: ExactComplex(i, Fraction(-1, i + 2))
                                       for i, key in enumerate(pairs[:40])})]
    for _ in range(10):
        chosen = rng.choice(len(pairs), size=int(rng.integers(0, len(pairs) + 1)), replace=False)
        polys.append(ComplexBiPolynomial(dim, {pairs[i]: complex(*rng.standard_normal(2))
                                               for i in chosen}))
    for poly in polys:
        check_axis_values(poly, (1, 1j, -1, -1j))


def test_json_round_trip():
    p = MultiIndexPolynomial(2, {(1, 0): 0.5, (0, 2): -1.25})
    assert MultiIndexPolynomial.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


def test_terms_iterate_in_grlex_order():
    p = MultiIndexPolynomial(2, {(0, 2): 1.0, (1, 0): 1.0, (0, 0): 1.0, (2, 0): 1.0})
    keys = list(p.terms)
    assert keys == sorted(keys, key=grlex_key)


def test_exact_complex_arithmetic():
    a = ExactComplex(Fraction(1, 2), Fraction(-1, 3))
    b = ExactComplex(2, 1)
    assert a + b == ExactComplex(Fraction(5, 2), Fraction(2, 3))
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert complex(a - a) == 0


def test_complex_bipolynomial_conjugate_eval():
    p = ComplexBiPolynomial(1, {((2,), (0,)): 1 + 2j, ((0,), (1,)): -1j})
    z = 0.3 + 0.7j
    assert abs(complex(p.conjugate().eval([z])) - complex(p.eval([z])).conjugate()) < EVAL_TOL


def test_complex_bipolynomial_degrees():
    p = ComplexBiPolynomial(2, {((2, 0), (1, 1)): 1.0, ((0, 1), (0, 0)): 2.0})
    assert p.holomorphic_degree() == 2
    assert p.antiholomorphic_degree() == 2


def test_complex_json_round_trip():
    p = ComplexBiPolynomial(1, {((1,), (1,)): 1.5 - 0.5j})
    q = ComplexBiPolynomial.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
    z = np.array([[0.2 + 0.4j]])
    assert abs(p.eval_many(z)[0] - q.eval_many(z)[0]) < EVAL_TOL


def test_real_and_complex_polynomials_do_not_mix():
    real = MultiIndexPolynomial(2, {(1, 0): 1.0})
    cplx = ComplexBiPolynomial(1, {((1,), (0,)): 1.0})  # the same flat key (1, 0)
    with pytest.raises(TypeError):
        real + cplx
    with pytest.raises(TypeError):
        cplx * real
    assert real != cplx and cplx != real
    assert MultiIndexPolynomial.zero(2) != ComplexBiPolynomial.zero(1)


# written when complex terms were ordered by (grlex k, grlex l)
OLD_ORDER_COMPLEX_JSON = (
    '{"dim": 2, "terms": [{"k": [0, 0], "l": [1, 0], "re": -0.0, "im": -1.5}, '
    '{"k": [0, 0], "l": [0, 2], "re": 3.0, "im": 0.0}, '
    '{"k": [0, 1], "l": [0, 0], "re": 2.0, "im": 0.0}, '
    '{"k": [1, 0], "l": [0, 0], "re": 0.5, "im": 0.25}, '
    '{"k": [2, 0], "l": [1, 1], "re": 1.0, "im": 0.0}]}')


def test_complex_json_in_old_term_order_loads_equal():
    p = ComplexBiPolynomial(2, {((2, 0), (1, 1)): 1.0, ((0, 1), (0, 0)): 2.0,
                                ((0, 0), (1, 0)): -1.5j, ((1, 0), (0, 0)): 0.5 + 0.25j,
                                ((0, 0), (0, 2)): 3.0})
    q = ComplexBiPolynomial.from_json_dict(json.loads(OLD_ORDER_COMPLEX_JSON))
    assert q == p
    assert list(q.terms) == list(p.terms)
    flat = [k + l for k, l in p.terms]
    assert flat == sorted(flat, key=grlex_key)


def random_bipoly(dim, max_deg, rng, coeff=complex):
    terms = {}
    for k in monomials_up_to(dim, max_deg):
        for l in monomials_up_to(dim, max_deg):
            re, im = rng.integers(-4, 5, size=2)
            terms[(k, l)] = coeff(Fraction(int(re), 3), Fraction(int(im), 5))
    return ComplexBiPolynomial(dim, terms)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_eval_many_matches_exact_eval_fraction_coefficients(dim):
    rng = np.random.default_rng(dim)
    p = MultiIndexPolynomial(dim, {k: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                                   for k in monomials_up_to(dim, 5)})
    scale = float(sum(abs(c) for c in p.terms.values()))
    pts = ball_sup_grid(dim, 30)
    vals = p.eval_many(pts)
    for x, v in zip(pts, vals):
        exact = p.eval([Fraction(xi) for xi in x])  # floats convert to Fractions exactly
        assert isinstance(exact, Fraction)
        assert abs(v - float(exact)) <= EVAL_TOL * scale


@pytest.mark.parametrize("dim", [1, 2])
def test_complex_eval_many_matches_eval_exact_complex_coefficients(dim):
    rng = np.random.default_rng(10 + dim)
    p = random_bipoly(dim, 3, rng, coeff=ExactComplex)
    pts = rng.standard_normal((25, dim)) + 1j * rng.standard_normal((25, dim))
    pts /= 1.0 + np.abs(pts)
    vals = p.eval_many(pts)
    for z, v in zip(pts, vals):
        assert abs(v - complex(p.eval(list(z)))) < EVAL_TOL


def test_zero_polynomial_eval_many_shape_and_dtype():
    real = MultiIndexPolynomial.zero(3).eval_many(np.ones((7, 3)))
    assert real.shape == (7,) and real.dtype == np.float64 and not real.any()
    cplx = ComplexBiPolynomial.zero(2).eval_many(np.ones((5, 2), dtype=complex))
    assert cplx.shape == (5,) and cplx.dtype == np.complex128 and not cplx.any()


def test_eval_many_accepts_one_dimensional_point():
    p = MultiIndexPolynomial(3, {(1, 2, 0): 2.0, (0, 0, 3): -1.0, (0, 0, 0): 0.5})
    x = np.array([0.3, -0.2, 0.7])
    vals = p.eval_many(x)
    assert vals.shape == (1,)
    assert abs(vals[0] - p.eval(list(x))) < EVAL_TOL
    q = ComplexBiPolynomial(1, {((2,), (1,)): 1 - 1j, ((0,), (0,)): 2.0})
    z = np.array([0.4 + 0.3j])
    cvals = q.eval_many(z)
    assert cvals.shape == (1,)
    assert abs(cvals[0] - complex(q.eval(list(z)))) < EVAL_TOL


def test_eval_many_across_chunks_matches_pointwise():
    rng = np.random.default_rng(4)
    p = MultiIndexPolynomial(3, {k: rng.standard_normal() for k in monomials_up_to(3, 4)})
    pts = ball_sup_grid(3, 10_000)
    assert len(point_chunks(len(p.terms), len(pts))) > 2
    vals = p.eval_many(pts)
    pointwise = np.array([p.eval(list(x)) for x in pts])
    assert np.max(np.abs(vals - pointwise)) <= 1e-13

    q = random_bipoly(1, 3, rng)
    zs = np.exp(2j * np.pi * rng.random((20_000, 1))) * rng.random((20_000, 1))
    assert len(point_chunks(len(q.terms), len(zs))) > 2
    cvals = q.eval_many(zs)
    cpointwise = np.array([q.eval(list(z)) for z in zs])
    assert np.max(np.abs(cvals - cpointwise)) <= 1e-13


def test_monomial_table_matches_definition():
    rng = np.random.default_rng(5)
    exps = np.array(monomials_up_to(3, 6))
    pts = rng.uniform(-1.5, 1.5, size=(40, 3))
    table = monomial_table(exps, pts)
    expected = np.prod(pts[None, :, :] ** exps[:, None, :], axis=2)
    assert table.shape == (len(exps), 40)
    assert np.allclose(table, expected, rtol=1e-13, atol=0.0)
    zs = pts[:, :2] + 1j * pts[:, 1:]
    ctable = monomial_table(exps[:, :2], zs)
    assert ctable.dtype == np.complex128
    assert np.allclose(ctable, np.prod(zs[None] ** exps[:, None, :2], axis=2),
                       rtol=1e-13, atol=0.0)
    assert monomial_table(np.zeros((0, 3), dtype=int), pts).shape == (0, 40)


LAYOUT_CASES = {
    # grlex order meets the heads (1, 0), (0, 2), (0, 0), (0, 2): not sorted
    "unsorted-heads": (MultiIndexPolynomial(3, {(0, 2, 0): 1.5, (1, 0, 0): -2.0, (0, 2, 1): 3.0,
                                                (0, 0, 3): 0.25}), float),
    "sparse-random": (MultiIndexPolynomial(4, {k: float(i % 7) - 3.0 for i, k in
                                               enumerate(monomials_up_to(4, 6)) if i % 3}), float),
    "fractions": (MultiIndexPolynomial(2, {(3, 1): Fraction(1, 3), (0, 4): Fraction(-2, 7),
                                           (3, 0): Fraction(5)}), float),
    "empty": (MultiIndexPolynomial.zero(3), float),
    "empty-complex": (ComplexBiPolynomial.zero(2), complex),
    "width-1": (MultiIndexPolynomial(1, {(0,): 1.0, (4,): -0.5, (2,): 2.0}), float),
    "constant-width-1": (MultiIndexPolynomial.constant(1, 3.0), float),
    "complex": (ComplexBiPolynomial(2, {((1, 0), (0, 2)): 1 - 2j, ((0, 1), (1, 0)): 0.5j,
                                        ((0, 0), (0, 0)): 3.0, ((2, 0), (0, 0)): -1.0}), complex),
    "exact-complex": (ComplexBiPolynomial(1, {((2,), (1,)): ExactComplex(Fraction(1, 3), -1),
                                              ((0,), (3,)): ExactComplex(2, Fraction(1, 7))}),
                      complex),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_layout_matches_its_definition(case):
    # row h of `grouped` holds head h's coefficients by power of the last flat
    # variable, and the heads come in order of their first appearance
    poly, dtype = LAYOUT_CASES[case]
    grouped, heads = poly.layout(dtype)
    width = poly._halves * poly.dim
    want_heads = list(dict.fromkeys(k[:-1] for k in poly._terms))
    assert heads.dtype == np.intp and heads.shape == (len(want_heads), width - 1)
    assert [tuple(h) for h in heads.tolist()] == want_heads
    want = np.zeros((len(want_heads), max((k[-1] for k in poly._terms), default=-1) + 1), dtype)
    for k, c in poly._terms.items():
        want[want_heads.index(k[:-1]), k[-1]] = dtype(c)
    assert grouped.dtype == want.dtype and np.array_equal(grouped, want)


def test_layout_keeps_heads_in_order_of_first_appearance():
    _, heads = LAYOUT_CASES["unsorted-heads"][0].layout(float)
    assert heads.tolist() == [[1, 0], [0, 2], [0, 0]]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("keys", ["dense", "sparse"])
def test_stacked_contraction_equals_each_rows_eval_many_bitwise(dim, keys):
    # one stacked layout over grlex keys against each row's own polynomial,
    # on more points than one chunk of one polynomial holds
    rng = np.random.default_rng(10 * dim + (keys == "sparse"))
    degree = {1: 12, 2: 9, 3: 6, 4: 4}[dim]
    exps = [k for k in monomials_up_to(dim, degree) if keys == "dense" or rng.random() < 0.3]
    rows = rng.standard_normal((7, len(exps)))
    grouped, heads = terms_layout(exps, rows, dim)
    polys = [MultiIndexPolynomial(dim, dict(zip(exps, row.tolist()))) for row in rows]
    count = 2 * TABLE_ELEMENTS // sum(grouped.shape[1:]) + 5
    assert len(point_chunks(sum(grouped.shape[1:]), count)) > 2
    points = ball_points(rng, count, dim)
    values = contract_terms((grouped, heads), points)
    assert values.shape == (7, count) and values.dtype == np.float64
    for row, poly, layout in zip(values, polys, grouped):
        assert np.array_equal(poly.layout(float)[0], layout)
        assert row.tobytes() == poly.eval_many(points).tobytes()


def test_stacked_complex_contraction_equals_each_rows_eval_many_bitwise():
    rng = np.random.default_rng(11)
    q = random_bipoly(2, 2, rng)
    polys = [q.scale(f) for f in (1, 2, -0.5, 3j)]
    layouts = [p.layout(complex) for p in polys]
    grouped = np.stack([g for g, _ in layouts])
    z = ball_points(rng, 2 * TABLE_ELEMENTS // sum(grouped.shape[1:]) + 3, 2, complex_=True)
    values = contract_terms((grouped, layouts[0][1]), np.hstack([z, np.conj(z)]))
    assert values.shape == (4, len(z)) and values.dtype == np.complex128
    for row, poly in zip(values, polys):
        assert row.tobytes() == poly.eval_many(z).tobytes()


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("count", [1, 37, "chunks"])
def test_per_row_points_contraction_equals_each_row_bitwise(kind, count):
    # one stacked layout, each row at its own points, against each row's
    # polynomial at those points; "chunks" takes more points than one chunk
    rng = np.random.default_rng(29 + (kind == "complex"))
    if kind == "real":
        keys = monomials_up_to(3, 5)
        rows = rng.standard_normal((9, len(keys)))
        polys = [MultiIndexPolynomial(3, dict(zip(keys, row.tolist()))) for row in rows]
        layout = terms_layout(keys, rows, 3)
    else:
        polys = [random_bipoly(1, 3, rng).scale(f) for f in (1, -2, 0.5j, 3, 1 + 1j)]
        layout = (np.stack([p.layout(complex)[0] for p in polys]), polys[0].layout(complex)[1])
    grouped, heads = layout
    if count == "chunks":
        count = 2 * TABLE_ELEMENTS // sum(grouped.shape[1:]) + 5
        assert len(point_chunks(sum(grouped.shape[1:]), count)) > 2
    points = np.stack([ball_points(rng, count, polys[0].dim, complex_=kind == "complex")
                       for _ in polys])
    flat = points if kind == "real" else np.concatenate([points, np.conj(points)], axis=2)
    values = contract_terms(layout, flat)
    assert values.shape == (len(polys), count) and values.dtype == grouped.dtype
    for row, poly, at in zip(values, polys, points):
        assert row.tobytes() == poly.eval_many(at).tobytes()


def test_per_row_points_contraction_of_empty_layouts():
    # a stack of zero polynomials has a (B, 0, 0) layout and no heads
    grouped, heads = MultiIndexPolynomial.zero(2).layout(float)
    stack = (np.stack([grouped] * 3), heads)
    assert np.array_equal(contract_terms(stack, np.ones((3, 4, 2))), np.zeros((3, 4)))
    assert contract_terms(stack, np.ones((3, 0, 2))).shape == (3, 0)


def naive_monomial(exponents, point):
    """prod_j point[j] ** exponents[j] by repeated multiplication in Python."""
    value = 1
    for x, e in zip(point, exponents):
        for _ in range(e):
            value = value * x
    return value


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_monomial_table_is_exact_on_dyadic_points(kind):
    # 4-bit dyadic entries and total degree <= 6: every product, in any
    # order, is exact in binary, so the table must equal the naive product
    rng = np.random.default_rng(17)
    points = rng.integers(-8, 9, size=(30, 3)) / 4.0
    if kind == "complex":
        points = points + 1j * rng.integers(-8, 9, size=(30, 3)) / 4.0
    exponents = np.array(monomials_up_to(3, 6))
    exponents[:, 1] = 0                     # a variable that never contributes
    for exps in (exponents, exponents[:0], np.zeros((4, 3), dtype=int)):
        table = monomial_table(exps, points)
        naive = np.array([[naive_monomial(k, x) for x in points] for k in exps.tolist()],
                         dtype=points.dtype).reshape(len(exps), len(points))
        assert table.shape == naive.shape and table.dtype == points.dtype
        assert np.array_equal(table, naive)


def test_monomial_values_match_definition():
    rng = np.random.default_rng(6)
    exps = monomials_up_to(2, 9)
    pts = rng.uniform(-1.0, 1.0, size=(3000, 2))
    assert len(point_chunks(len(exps), len(pts))) > 1
    values = monomial_values(exps, pts)
    expected = np.array([pts[:, 0] ** a * pts[:, 1] ** b for a, b in exps])
    assert np.allclose(values, expected, rtol=1e-13, atol=0.0)


def test_complex_eval_many_rejects_wrong_dimension():
    q = ComplexBiPolynomial(1, {((1,), (1,)): 1.0})
    with pytest.raises(ValueError):
        q.eval_many(np.ones((3, 2), dtype=complex))


# eval_many against a double-double reference, for a relative error bound
# fixed from the kernel: each term of total degree at most E in k <= 4
# variables takes at most E + k + 2 rounded products, and the two sums (over
# the powers of the last variable, then over the heads) at most T + E more
# roundings, so real values are within 7 (T + E) U sum_t |c_t x^{k_t}|.  A
# complex product rounds by at most sqrt(5) U (Brent, Percival and
# Zimmermann 2007), which the constant 16 covers.
EVAL_BOUND_FACTOR = 16


def exponent_keys(nvars):
    """Distinct exponent tuples, some sharing their leading exponents (all
    but the last) and some drawn freely; possibly none."""
    entry = st.integers(0, 5)
    heads = st.lists(st.tuples(*[entry] * (nvars - 1)), min_size=1, max_size=4)

    def keys(hs):
        shared = st.lists(st.tuples(st.sampled_from(hs), st.integers(0, 8)), max_size=10)
        free = st.lists(st.tuples(*[entry] * nvars), max_size=6)
        return st.tuples(shared, free).map(
            lambda sf: list(dict.fromkeys([h + (p,) for h, p in sf[0]] + sf[1])))

    return heads.flatmap(keys)


def ball_points(rng, count, dim, complex_=False):
    """Points of C^dim or R^dim at radii uniform in [0, 2]."""
    points = rng.standard_normal((count, 2 * dim if complex_ else dim))
    if complex_:
        points = points[:, :dim] + 1j * points[:, dim:]
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    return points / norms * rng.uniform(0, 2, (count, 1))


def random_coeffs(rng, count, complex_=False):
    scale = 10.0 ** rng.uniform(-3, 3, count)
    if complex_:
        return (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * scale
    return rng.standard_normal(count) * scale


def assert_within_rounding_bound(values, exponents, coeffs, points):
    bound = EVAL_BOUND_FACTOR * (len(coeffs) + max(map(sum, exponents), default=0)) * U
    hi, lo = dd_poly_values(exponents, coeffs, (points, np.zeros_like(points)))
    magnitude = np.abs(points)
    scale = dd_poly_values(exponents, np.abs(coeffs), (magnitude, np.zeros_like(magnitude)))[0]
    assert np.all(np.abs((values - hi) - lo) <= bound * scale)


@settings(max_examples=60, deadline=None)
@given(case=st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), exponent_keys(d))),
       seed=st.integers(0, 2**32 - 1))
@example(case=(3, []), seed=0)
@example(case=(2, [(4, 1)]), seed=1)
def test_eval_many_within_rounding_bound(case, seed):
    dim, keys = case
    rng = np.random.default_rng(seed)
    coeffs = random_coeffs(rng, len(keys))
    points = ball_points(rng, 40, dim)
    values = MultiIndexPolynomial(dim, dict(zip(keys, coeffs))).eval_many(points)
    assert_within_rounding_bound(values, keys, coeffs, points)


@settings(max_examples=60, deadline=None)
@given(case=st.integers(1, 2).flatmap(lambda d: st.tuples(st.just(d), exponent_keys(2 * d))),
       seed=st.integers(0, 2**32 - 1))
@example(case=(2, []), seed=0)
@example(case=(1, [(3, 2)]), seed=1)
def test_complex_eval_many_within_rounding_bound(case, seed):
    dim, keys = case
    rng = np.random.default_rng(seed)
    coeffs = random_coeffs(rng, len(keys), complex_=True)
    z = ball_points(rng, 40, dim, complex_=True)
    poly = ComplexBiPolynomial(dim, {(k[:dim], k[dim:]): c for k, c in zip(keys, coeffs)})
    assert_within_rounding_bound(poly.eval_many(z), keys, coeffs, np.hstack([z, np.conj(z)]))
