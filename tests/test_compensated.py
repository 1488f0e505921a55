"""Exact-arithmetic checks of the error-free transformations, the
double-double monomials and the ridge certificate, against Fractions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ridgekit.compensated import U, dd_monomials, residual_dot, two_prod, two_sum
from ridgekit.polycore import dim_complex_bihomogeneous, dim_homogeneous, monomials_up_to
from ridgekit.ridge_complex import ComplexDirectionSet, sample_complex_directions
from ridgekit.ridge_real import DirectionSet, _multinomial, sample_spanning_directions


def wide_doubles(rng, count):
    return rng.standard_normal(count) * 2.0 ** rng.integers(-40, 40, count)


def exact(values):
    return [Fraction(float(v)) for v in np.ravel(values)]


def test_two_sum_and_two_prod_are_exact():
    rng = np.random.default_rng(0)
    a, b = wide_doubles(rng, 2000), wide_doubles(rng, 2000)
    for (s, e), combine in ((two_sum(a, b), lambda x, y: x + y),
                            (two_prod(a, b), lambda x, y: x * y)):
        for x, y, hi, lo in zip(exact(a), exact(b), exact(s), exact(e)):
            assert hi + lo == combine(x, y)


def exact_monomial(point, exponent, factor):
    """factor * prod point[j] ** exponent[j] as a pair of Fractions (re, im)."""
    re, im = Fraction(factor), Fraction(0)
    for z, e in zip(point, exponent):
        zr, zi = Fraction(complex(z).real), Fraction(complex(z).imag)
        for _ in range(e):
            re, im = re * zr - im * zi, re * zi + im * zr
    return re, im


@pytest.mark.parametrize("dtype", [float, complex])
def test_dd_monomials_within_bound(dtype):
    rng = np.random.default_rng(1)
    points = rng.standard_normal((7, 3)).astype(dtype)
    if dtype is complex:
        points += 1j * rng.standard_normal((7, 3))
    exps = monomials_up_to(3, 5)
    factors = np.array([_multinomial(sum(k), k) for k in exps], dtype=float)
    hi, lo = dd_monomials(np.array(exps), points, factors)
    for t, k in enumerate(exps):
        for i, point in enumerate(points):
            re, im = exact_monomial(point, k, factors[t])
            err_re = Fraction(complex(hi[t, i]).real) + Fraction(complex(lo[t, i]).real) - re
            err_im = Fraction(complex(hi[t, i]).imag) + Fraction(complex(lo[t, i]).imag) - im
            # |error| <= 16 D U^2 |exact|, compared in squares
            bound = Fraction(16 * sum(k)) * Fraction(U) ** 2
            assert err_re ** 2 + err_im ** 2 <= bound ** 2 * (re ** 2 + im ** 2)


@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_residual_dot_within_bound(n):
    rng = np.random.default_rng(2 + n)
    rows, c = 6, 3
    high = wide_doubles(rng, rows * n).reshape(rows, n)
    low = high * U * rng.uniform(-1, 1, (rows, n))
    x = wide_doubles(rng, rows * n * c).reshape(rows, n, c)
    # a right-hand side close to the product, so the result cancels heavily
    rhs = np.einsum("rn,rnc->rc", high, x) * (1 + 1e-12 * rng.standard_normal((rows, c)))
    result, g = residual_dot(high, low, x, rhs)
    for r in range(rows):
        for j in range(c):
            terms = [(Fraction(high[r, i]) + Fraction(low[r, i])) * Fraction(x[r, i, j])
                     for i in range(n)]
            true = sum(terms) - Fraction(rhs[r, j])
            size = sum(abs(Fraction(high[r, i]) * Fraction(x[r, i, j])) for i in range(n))
            size += abs(Fraction(rhs[r, j]))
            bound = (Fraction(U) * abs(Fraction(result[r, j]))
                     + Fraction(g) * Fraction(U) ** 2 * size)
            assert abs(Fraction(result[r, j]) - true) <= bound


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


def test_real_certificate_bounds_exact_mismatch():
    rng = np.random.default_rng(3)
    dirs = sample_spanning_directions(2, 4, dim_homogeneous(2, 4), seed=4)
    rhs = rng.standard_normal((len(dirs.span.rows), 3))
    solutions, certificate = dirs.span.solve(rhs)
    true = exact_l1_mismatch(dirs.span, dirs.vectors, solutions, rhs,
                             lambda k: (k, _multinomial(sum(k), k)))
    assert true * (1 - 4 * U) <= certificate <= true * (1 + 1e-12) + 1e-25


def test_complex_certificate_bounds_exact_mismatch():
    rng = np.random.default_rng(5)
    dirs = sample_complex_directions(2, 2, 2, dim_complex_bihomogeneous(2, 2, 2), seed=6)
    rows = len(dirs.span.rows)
    rhs = rng.standard_normal((rows, 1)) + 1j * rng.standard_normal((rows, 1))
    solutions, certificate = dirs.span.solve(rhs)
    # (a . z)^s' conj(a . z)^t' has coefficient mult(k) mult(l) a^k conj(a)^l
    # on z^k conj(z)^l: the monomial of the point (a, conj a) at k + l
    doubled = np.hstack([dirs.vectors, np.conj(dirs.vectors)])
    true = exact_l1_mismatch(dirs.span, doubled, solutions, rhs,
                             lambda kl: (kl[0] + kl[1], _multinomial(sum(kl[0]), kl[0])
                                         * _multinomial(sum(kl[1]), kl[1])))
    assert true * (1 - 4 * U) <= certificate <= true * (1 + 1e-12) + 1e-25


def ill_conditioned_set():
    # condition number 4.7e4, where the screen is 50 times the certificate
    vectors = np.random.default_rng(9).standard_normal((dim_homogeneous(4, 7), 4))
    return DirectionSet(4, 7, vectors / np.linalg.norm(vectors, axis=1, keepdims=True))


SCREENED_SETS = {
    "pivoted-real": lambda: sample_spanning_directions(3, 3, dim_homogeneous(3, 3), seed=4),
    "pivoted-complex": lambda: sample_complex_directions(
        2, 2, 2, dim_complex_bihomogeneous(2, 2, 2), seed=6),
    "ill-conditioned": ill_conditioned_set,
    # one direction, repeated: the mismatch is of the order of rhs
    "rank-deficient": lambda: DirectionSet(2, 3, np.tile([[0.6, 0.8]], (4, 1))),
}


@pytest.mark.parametrize("name", SCREENED_SETS)
def test_screen_bounds_exact_mismatch(name):
    dirs = SCREENED_SETS[name]()
    rng = np.random.default_rng(7)
    shape = (len(dirs.span.rows), 1 if name == "ill-conditioned" else 2)
    rhs = rng.standard_normal(shape)
    if isinstance(dirs, ComplexDirectionSet):
        rhs = rhs + 1j * rng.standard_normal(shape)
        vectors = np.hstack([dirs.vectors, np.conj(dirs.vectors)])
        keys = lambda kl: (kl[0] + kl[1], _multinomial(sum(kl[0]), kl[0])
                           * _multinomial(sum(kl[1]), kl[1]))
    else:
        vectors, keys = dirs.vectors, lambda k: (k, _multinomial(sum(k), k))
    solutions = dirs.span.least_norm(rhs)
    true = exact_l1_mismatch(dirs.span, vectors, solutions, rhs, keys)
    assert true * (1 - 4 * U) <= dirs.span.screen(solutions, rhs)


def test_screen_bounds_exact_mismatch_when_the_double_mismatch_vanishes():
    # a right-hand side equal to high_b @ x_b in double, so the computed
    # mismatch is 0 and the bound rests on its rounding and column terms
    dirs = sample_spanning_directions(3, 4, dim_homogeneous(3, 4), seed=5)
    keys = list(dirs.span.rows)
    factors = np.array([_multinomial(sum(k), k) for k in keys], dtype=float)
    high, _ = dd_monomials(np.array(keys), dirs.vectors, factors)
    solutions = dirs.span.least_norm(np.random.default_rng(8).standard_normal((len(keys), 2)))
    degrees = np.array([sum(k) for k in keys])
    rhs = np.vstack([high[degrees == j] @ x for j, x in enumerate(solutions)])
    true = exact_l1_mismatch(dirs.span, dirs.vectors, solutions, rhs,
                             lambda k: (k, _multinomial(sum(k), k)))
    assert true > 0
    assert true * (1 - 4 * U) <= dirs.span.screen(solutions, rhs)
