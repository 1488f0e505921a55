import functools

import numpy as np
import pytest
from hypothesis import settings

from ridgekit.orthobasis import build_basis
from ridgekit.quadrature import build_ball_rule
from ridgekit.ridge_real import unit_cloud

# Same example counts as the default profile, drawn from a fixed seed, so a CI
# run tests the same examples every time (select with --hypothesis-profile=ci).
settings.register_profile("ci", derandomize=True)


@functools.lru_cache(maxsize=None)
def cached_rule(d, exactness):
    return build_ball_rule(d, exactness)


@functools.lru_cache(maxsize=None)
def cached_basis(d, max_degree, exactness=None):
    if exactness is None:
        exactness = 2 * max_degree + 2
    return build_basis(d, max_degree, cached_rule(d, exactness))


@pytest.fixture(scope="session")
def rule_factory():
    return cached_rule


@pytest.fixture(scope="session")
def basis_factory():
    return cached_basis


def complex_sup_grid(d, count, seed=0):
    """`count` seeded points spread over the unit ball of C^d."""
    rng = np.random.default_rng(seed)
    return unit_cloud(rng, count, d, complex) * rng.random((count, 1)) ** (1.0 / (2 * d))


# Double-double evaluation, for tests whose reference must be far more
# accurate than double: about 1e-32 relative, the same on every platform.
# `two_sum` and `two_prod` return a rounded sum or product together with its
# exact rounding error (Knuth; Dekker), so the pair hi + lo holds the exact
# result; double-doubles built on them carry about 106 bits in plain float64
# (or complex128) arrays, barring overflow and underflow.

_SPLITTER = 2.0 ** 27 + 1


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _split(a):
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (real arrays)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _join(re, im):
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def dd_add(a, b):
    """Sum of real double-doubles a = (hi, lo) and b; the error is at most
    4 U^2 (|a| + |b|)."""
    s, e = two_sum(a[0], b[0])
    return two_sum(s, e + (a[1] + b[1]))


def _dd_mul_real(a, b):
    p, e = two_prod(a[0], b[0])
    return two_sum(p, e + (a[0] * b[1] + a[1] * b[0]))


def dd_mul(a, b):
    """Product of double-doubles a = (hi, lo) and b, real or complex.  The
    error is at most 9 U^2 |a||b| for real and 16 U^2 |a||b| for complex
    values."""
    if not (np.iscomplexobj(a[0]) or np.iscomplexobj(b[0])):
        return _dd_mul_real(a, b)
    ar, ai = (a[0].real, a[1].real), (a[0].imag, a[1].imag)
    br, bi = (b[0].real, b[1].real), (b[0].imag, b[1].imag)
    ii = _dd_mul_real(ai, bi)
    re = dd_add(_dd_mul_real(ar, br), (-ii[0], -ii[1]))
    im = dd_add(_dd_mul_real(ar, bi), _dd_mul_real(ai, br))
    return _join(re[0], im[0]), _join(re[1], im[1])


def dd_monomials(exponents, points, start):
    """(hi, lo) of shape (T, N): start[t] * prod_j points[i, j] ** exponents[t, j]
    in double-double, with `points` an (N, k) array of doubles (real or
    complex) or a (hi, lo) pair of them and `start` a length-T array of doubles.

    Powers are built by repeated multiplication and gathered per variable, as
    in `polycore.monomial_table`; an entry of total degree D takes at most D
    double-double products, so for exact inputs it is within 16 D U^2 of the
    exact value, relative to its modulus."""
    exponents = np.asarray(exponents, dtype=np.intp)
    hi, lo = points if isinstance(points, tuple) else (points, np.zeros_like(points))
    start = np.asarray(start)
    dtype = np.result_type(hi, start)
    value = (np.repeat(start[:, None], hi.shape[0], axis=1).astype(dtype),
             np.zeros((exponents.shape[0], hi.shape[0]), dtype=dtype))
    for j in range(exponents.shape[1]):
        column = exponents[:, j]
        top = int(column.max(initial=0))
        if top == 0:
            continue
        base = (hi[:, j], lo[:, j])
        powers = [(np.ones_like(base[0]), np.zeros_like(base[1])), base]
        for _ in range(2, top + 1):
            powers.append(dd_mul(powers[-1], base))
        table_hi = np.stack([p[0] for p in powers])
        table_lo = np.stack([p[1] for p in powers])
        used = column > 0
        factor = (table_hi[column[used]], table_lo[column[used]])
        product = dd_mul((value[0][used], value[1][used]), factor)
        value[0][used], value[1][used] = product
    return value


def dd_total(pair):
    """Double-double sum over axis 0 of a (hi, lo) pair of real or complex
    arrays, one term after another."""
    hi, lo = pair
    if np.iscomplexobj(hi):
        re, im = dd_total((hi.real, lo.real)), dd_total((hi.imag, lo.imag))
        return re[0] + 1j * im[0], re[1] + 1j * im[1]
    acc = (np.zeros(hi.shape[1:]), np.zeros(hi.shape[1:]))
    for t in range(hi.shape[0]):
        acc = dd_add(acc, (hi[t], lo[t]))
    return acc


def dd_linear(points, matrix):
    """(hi, lo) of points @ matrix.T, for double points (N, k) and a double
    matrix (ell, k), real or complex."""
    columns = np.asarray(points)[None, :, :]
    rows = np.asarray(matrix)[:, None, :]
    products = dd_mul((columns, np.zeros_like(columns)), (rows, np.zeros_like(rows)))
    hi, lo = dd_total(tuple(np.moveaxis(part, 2, 0) for part in products))
    return hi.T, lo.T


def dd_poly_values(exponents, coeffs, points):
    """(hi, lo) of sum_t coeffs[t] * points ** exponents[t] at the
    double-double points (hi, lo) of shape (N, k)."""
    exponents = np.asarray(exponents, dtype=np.intp).reshape(-1, points[0].shape[1])
    return dd_total(dd_monomials(exponents, points, np.asarray(coeffs)))


def _grlex_pruned(terms):
    """`terms` sorted by graded lexicographic order of the keys, zero
    coefficients dropped (below 1e-300 in modulus for floats)."""
    def is_zero(c):
        return abs(c) < 1e-300 if isinstance(c, (float, complex)) else c == 0
    return {k: c for k, c in sorted(terms.items(), key=lambda kv: (sum(kv[0]), tuple(kv[0])))
            if not is_zero(c)}


def reference_product(p, q):
    """Product of two coefficient maps over flat exponent tuples, each key
    rebuilt as a plain tuple, in the loop order of `_SparsePolynomial.__mul__`."""
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return _grlex_pruned(out)


def reference_substitute(terms, lines, width):
    """`_SparsePolynomial.substitute` on plain coefficient maps: the flat
    variable i of `terms` replaced by the map `lines[i]` over keys of length
    `width`, each power built once from the one below, each term multiplied
    out in variable order and the terms summed in grlex order."""
    one = (0,) * width
    lines = [_grlex_pruned(line) for line in lines]
    powers = [[{one: 1}] for _ in lines]
    total = {}
    for k, c in _grlex_pruned(terms).items():
        term = {one: c}
        for line, cache, e in zip(lines, powers, k):
            while len(cache) <= e:
                cache.append(reference_product(cache[-1], line))
            if e:
                term = reference_product(term, cache[e])
        for key, value in term.items():
            total[key] = total.get(key, 0) + value
    return _grlex_pruned(total)
