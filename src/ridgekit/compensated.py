"""Error-free transformations and double-double arithmetic on float64 arrays.

`two_sum` and `two_prod` return a rounded sum or product together with its
exact rounding error (Knuth; Dekker), so the pair hi + lo holds the exact
result.  Double-double values built on them carry about 106 bits in plain
float64 (or complex128) arrays, so results and error bounds are the same on
every platform, whatever numpy's long double is.  Everything here is exact or
bounded barring overflow and underflow.
"""

import math

import numpy as np

# unit roundoff of double precision
U = np.finfo(float).eps / 2
# residual_dot takes its rows in chunks of at most this many products, which
# keeps its temporaries to a few megabytes
CHUNK_PRODUCTS = 2 ** 15
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


def residual_dot(high, low, x, rhs):
    """Entries of (high + low)[r] @ x[r] - rhs[r] for every row r, by a
    compensated dot product (Ogita, Rump and Oishi's Dot2, with pairwise sums).

    `high` and `low` have shape (R, n), `x` shape (R, n, c) (the vectors row r
    is multiplied with) and `rhs` shape (R, c); all real.  Returns the (R, c)
    result and a factor g such that every entry r of it satisfies
    |r - exact| <= U |r| + g U^2 (sum_i |high[:, i] x[:, i]| + |rhs|).
    Rows are taken in chunks of at most CHUNK_PRODUCTS products.
    """
    out = np.empty(rhs.shape)
    step = max(1, CHUNK_PRODUCTS // max(1, x[0].size))
    for start in range(0, len(rhs), step):
        rows = slice(start, start + step)
        out[rows] = _residual_rows(high[rows], low[rows], x[rows], rhs[rows])
    # the pairwise sum of n products takes at most `levels` rounds, and the
    # right-hand side with the odd terms out at most levels + 1 more steps;
    # the low parts (product errors, low @ x, sum errors) add up to at most
    # (2 levels + 3) U times the magnitudes, and there are at most
    # 3n + levels + 2 of them, added naively
    n = high.shape[1]
    levels = math.ceil(math.log2(n + 1))
    return out, 1.01 * (3 * n + levels + 4) * (2 * levels + 3)


def _residual_rows(high, low, x, rhs):
    terms, err = two_prod(high[:, :, None], x)
    low_sum = err.sum(axis=1) + np.einsum("rn,rnc->rc", low, x)
    last = -rhs
    while terms.shape[1] > 1:
        if terms.shape[1] % 2:
            last, e = two_sum(last, terms[:, -1])
            low_sum += e
            terms = terms[:, :-1]
        terms, e = two_sum(terms[:, 0::2], terms[:, 1::2])
        low_sum += e.sum(axis=1)
    total, e = two_sum(terms[:, 0], last)
    return total + (low_sum + e)
