"""Exact-arithmetic checks of the error-free transformations, the
double-double monomials and the ridge certificate, against Fractions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ridgekit.compensated import U, dd_monomials, residual_dot, two_prod, two_sum
from ridgekit.polycore import dim_complex_bihomogeneous, dim_homogeneous, monomials_up_to
from ridgekit.ridge_complex import sample_complex_directions
from ridgekit.ridge_real import _multinomial, sample_spanning_directions


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


def exact_l1_mismatch(span, vectors, solutions, rhs, keys_to_exponents):
    """Upper bound (to 4 U relative) on the exact sum over the rows of the
    modulus of columns @ x - rhs, from Fraction columns of the exact powers."""
    x = np.stack(solutions)
    block_of_row = np.repeat(np.arange(len(span.blocks)), [block.size for block in span.blocks])
    total = 0.0
    for key, row in span.rows.items():
        block = block_of_row[row]
        exponent, factor = keys_to_exponents(key)
        for j in range(rhs.shape[1]):
            re, im = -Fraction(complex(rhs[row, j]).real), -Fraction(complex(rhs[row, j]).imag)
            for i, point in enumerate(vectors):
                cr, ci = exact_monomial(point, exponent, factor)
                xr, xi = Fraction(complex(x[block, i, j]).real), Fraction(complex(x[block, i, j]).imag)
                re, im = re + cr * xr - ci * xi, im + cr * xi + ci * xr
            total += math.sqrt(float(re * re + im * im))
    return total


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
