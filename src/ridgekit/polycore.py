"""Polynomial algebra over multi-indices.

Multivariate polynomials are stored as sparse maps from exponent
multi-indices to coefficients.  A complex polynomial in (z, conj(z)) on C^d is
the polynomial in the 2d variables (z, conj z), keyed by the concatenated
exponents k + l and presented as pairs (k, l).  Coefficients may be floats,
Fractions, or exact complex rationals, so the same algebra serves both
floating-point quadrature work and exact identity checking.
"""

import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np

ZERO_PRUNE_FLOAT = 1e-300
# Element budget for the temporaries of one monomial_table call: callers pass
# at most this many (term, point) pairs at a time.
TABLE_ELEMENTS = 2**17


class MultiIndex(tuple):
    """Tuple of non-negative integer exponents."""

    def __new__(cls, entries):
        if isinstance(entries, cls):
            return entries  # validated when it was built, and immutable
        entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in entries):
            raise ValueError("multi-index entries must be non-negative")
        return super().__new__(cls, entries)

    def order(self):
        return sum(self)

    def factorial(self):
        out = 1
        for e in self:
            out *= math.factorial(e)
        return out


def grlex_key(k):
    """Sort key for graded lexicographic order."""
    return (sum(k), tuple(k))


def monomials_up_to(dim, max_degree):
    """All exponent tuples of length `dim` with total degree <= max_degree,
    in graded lexicographic order."""
    out = []
    for total in range(max_degree + 1):
        out.extend(_homogeneous_exponents(dim, total))
    return out


def _homogeneous_exponents(dim, total):
    """Exponent tuples of length `dim` and total degree `total`, in graded
    lexicographic order, as a new list."""
    return list(_homogeneous_tuple(dim, total))


@functools.lru_cache(maxsize=None)
def _homogeneous_tuple(dim, total):
    if dim == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in _homogeneous_tuple(dim - 1, total - first))


def rank_grlex(k):
    """Position of exponent tuple `k` in the graded lexicographic enumeration
    of all multi-indices of its length (0-based)."""
    dim = len(k)
    total = sum(k)
    rank = math.comb(total + dim - 1, dim) if total > 0 else 0  # all lower degrees
    # rank within the homogeneous block, lexicographic on the tuple
    remaining = total
    for pos in range(dim - 1):
        for smaller in range(k[pos]):
            rank += math.comb(remaining - smaller + dim - pos - 2, dim - pos - 2)
        remaining -= k[pos]
    return rank


def unrank_grlex(dim, rank):
    """Inverse of rank_grlex for multi-indices of length `dim`."""
    if rank < 0:
        raise ValueError("rank must be non-negative")
    total = 0
    while math.comb(total + dim, dim) <= rank:
        total += 1
    rank -= math.comb(total + dim - 1, dim) if total > 0 else 0
    out = []
    remaining = total
    for pos in range(dim - 1):
        entry = 0
        while True:
            block = math.comb(remaining - entry + dim - pos - 2, dim - pos - 2)
            if rank < block:
                break
            rank -= block
            entry += 1
        out.append(entry)
        remaining -= entry
    out.append(remaining)
    return tuple(out)


def dim_homogeneous(m, s):
    """Dimension of the space of homogeneous degree-s polynomials in m variables."""
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    return math.comb(s + m - 1, m - 1)


def dim_complex_bihomogeneous(d, s, t):
    """Complex dimension of the span of z^k conj(z)^l with |k| = s, |l| = t."""
    if d < 1 or s < 0 or t < 0:
        raise ValueError("need d >= 1 and s, t >= 0")
    return math.comb(s + d - 1, d - 1) * math.comb(t + d - 1, d - 1)


def _is_zero_coeff(c):
    if isinstance(c, (float, complex, np.floating, np.complexfloating)):
        return abs(c) < ZERO_PRUNE_FLOAT
    return c == 0


class ExactComplex:
    """Complex number with Fraction real and imaginary parts.

    Supports the handful of ring operations the exact identity checks need.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _as_exact(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_exact(other)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_exact(other) - self

    def __mul__(self, other):
        other = _as_exact(other)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, ExactComplex):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def conjugate(self):
        return ExactComplex(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"


def _as_exact(value):
    if isinstance(value, ExactComplex):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactComplex(value, 0)
    raise TypeError(f"cannot mix {type(value).__name__} into exact complex arithmetic")


class _SparsePolynomial:
    """Sparse polynomial in `_halves * dim` variables: a map from flat exponent
    tuples to coefficients, kept in graded lexicographic order of the keys with
    zero coefficients pruned.  The ring operations, equality and coefficient
    maps act on the flat keys; subclasses fix the number of halves and how
    terms are presented and evaluated."""

    _halves = 1

    def __init__(self, dim, terms=None):
        self._build(dim, terms.items() if terms else ())

    def _build(self, dim, items):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = int(dim)
        width = self._halves * self.dim
        data = {}
        for k, c in items:
            k = MultiIndex(k)
            if len(k) != width:
                raise ValueError(f"exponent {tuple(k)} has wrong length for dim={dim}")
            if k in data:
                c = data[k] + c
            data[k] = c
        self._terms = {k: c for k, c in sorted(data.items(), key=lambda kv: grlex_key(kv[0]))
                       if not _is_zero_coeff(c)}

    @classmethod
    def _from_flat(cls, dim, terms):
        out = object.__new__(cls)
        out._build(dim, terms.items())
        return out

    @classmethod
    def zero(cls, dim):
        return cls._from_flat(dim, {})

    @classmethod
    def constant(cls, dim, value):
        return cls._from_flat(dim, {(0,) * (cls._halves * dim): value})

    def is_zero(self):
        return not self._terms

    def __add__(self, other):
        self._check_dim(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return self._from_flat(self.dim, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor):
        return self._from_flat(self.dim, {k: c * factor for k, c in self._terms.items()})

    def __mul__(self, other):
        self._check_dim(other)
        out = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return self._from_flat(self.dim, out)

    def _check_dim(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def map_coefficients(self, fn):
        return self._from_flat(self.dim, {k: fn(c) for k, c in self._terms.items()})

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.dim == other.dim and self._terms == other._terms)


class MultiIndexPolynomial(_SparsePolynomial):
    """Sparse real polynomial in `dim` variables keyed by multi-indices."""

    @property
    def terms(self):
        return self._terms

    @classmethod
    def monomial(cls, exponents, coeff=1):
        return cls(len(exponents), {tuple(exponents): coeff})

    def degree(self):
        if not self.terms:
            return -math.inf
        return max(k.order() for k in self.terms)

    def eval(self, x):
        if len(x) != self.dim:
            raise ValueError(f"point has length {len(x)}, expected {self.dim}")
        total = 0
        for k, c in self.terms.items():
            term = c
            for xi, e in zip(x, k):
                if e:
                    term = term * xi ** e
            total = total + term
        return total

    def eval_many(self, points):
        """Evaluate at an (n, dim) array of points; returns length-n array."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        if points.shape[1] != self.dim:
            raise ValueError(f"points have dimension {points.shape[1]}, expected {self.dim}")
        coeffs = np.array([float(c) for c in self.terms.values()])
        return _eval_terms(self.terms, coeffs, points)

    __call__ = eval_many

    def compose_linear(self, A, b=None):
        """Return the polynomial x -> P(A x + b), where A maps R^d_out -> R^dim."""
        A = [list(row) for row in A]
        if len(A) != self.dim:
            raise ValueError(f"matrix has {len(A)} rows, expected {self.dim}")
        d_out = len(A[0]) if A else 0
        if any(len(row) != d_out for row in A):
            raise ValueError("ragged matrix")
        if d_out < 1:
            raise ValueError("output dimension must be positive")
        if b is None:
            b = [0] * self.dim
        if len(b) != self.dim:
            raise ValueError("bias has wrong length")
        lines = []
        for i in range(self.dim):
            terms = {(0,) * d_out: b[i]}
            for j in range(d_out):
                key = tuple(1 if jj == j else 0 for jj in range(d_out))
                terms[key] = A[i][j]
            lines.append(MultiIndexPolynomial(d_out, terms))
        out = MultiIndexPolynomial.zero(d_out)
        power_cache = [{0: MultiIndexPolynomial.constant(d_out, 1)} for _ in range(self.dim)]
        for k, c in self.terms.items():
            term = MultiIndexPolynomial.constant(d_out, c)
            for i, e in enumerate(k):
                if e not in power_cache[i]:
                    p = max(q for q in power_cache[i] if q < e)
                    acc = power_cache[i][p]
                    while p < e:
                        acc = acc * lines[i]
                        p += 1
                        power_cache[i][p] = acc
                term = term * power_cache[i][e]
            out = out + term
        return out

    def coefficient_vector(self, max_degree):
        """Dense grlex-ordered coefficient vector covering degrees <= max_degree."""
        exps = monomials_up_to(self.dim, max_degree)
        index = {k: i for i, k in enumerate(exps)}
        vec = np.zeros(len(exps))
        for k, c in self.terms.items():
            if k.order() > max_degree:
                raise ValueError("polynomial degree exceeds requested vector size")
            vec[index[tuple(k)]] = float(c)
        return vec

    @classmethod
    def from_coefficient_vector(cls, dim, vec, prune_tol=0.0):
        exps = monomials_up_to(dim, _degree_for_length(dim, len(vec)))
        if len(exps) != len(vec):
            raise ValueError("vector length is not a full graded block")
        terms = {k: float(c) for k, c in zip(exps, vec) if abs(c) > prune_tol}
        return cls(dim, terms)

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "terms": [{"k": list(k), "c": float(c)} for k, c in self.terms.items()],
        }

    @classmethod
    def from_json_dict(cls, obj):
        return cls(obj["dim"], {tuple(t["k"]): t["c"] for t in obj["terms"]})

    def __repr__(self):
        body = " + ".join(f"{c}*x^{tuple(k)}" for k, c in self.terms.items()) or "0"
        return f"MultiIndexPolynomial(dim={self.dim}: {body})"


def monomial_table(exponents, points):
    """(T, N) array whose entry (t, i) is prod_j points[i, j] ** exponents[t, j].

    `exponents` is an int array of shape (T, k), `points` a real or complex
    array of shape (N, k).  Each variable gets a table of its powers built by
    repeated multiplication, whose rows are gathered into the product.
    """
    exponents = np.asarray(exponents, dtype=np.intp)
    points = np.asarray(points)
    count = points.shape[0]
    table = np.ones((exponents.shape[0], count), dtype=points.dtype)
    for j in range(exponents.shape[1]):
        column = exponents[:, j]
        top = int(column.max(initial=0))
        if top == 0:
            continue
        powers = np.empty((top + 1, count), dtype=points.dtype)
        powers[0] = 1
        powers[1] = points[:, j]
        for e in range(2, top + 1):
            np.multiply(powers[e - 1], points[:, j], out=powers[e])
        table *= powers[column]
    return table


def point_chunks(terms, count):
    """Slices of range(count) so that a (terms, chunk) table fits TABLE_ELEMENTS."""
    step = max(1, TABLE_ELEMENTS // max(1, terms))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _eval_terms(keys, coeffs, points):
    """sum_t coeffs[t] * points ** keys[t] for distinct exponent tuples `keys`.

    The terms are grouped by their exponents in all variables but the last
    (their heads): row h of `grouped` holds, at column p, the coefficient of
    head h times the last variable to the power p.  One matmul with the powers
    of the last variable contracts it, and only the distinct heads are
    tabulated, one chunk of points at a time.
    """
    heads, rows, powers = {}, [], []
    for k in keys:
        rows.append(heads.setdefault(k[:-1], len(heads)))
        powers.append(k[-1])
    grouped = np.zeros((len(heads), max(powers, default=-1) + 1), dtype=coeffs.dtype)
    grouped[rows, powers] = coeffs
    head_exponents = np.array(list(heads), dtype=np.intp).reshape(len(heads), points.shape[1] - 1)
    last_exponents = np.arange(grouped.shape[1])[:, None]
    out = np.empty(points.shape[0], dtype=coeffs.dtype)
    for chunk in point_chunks(sum(grouped.shape), points.shape[0]):
        inner = grouped @ monomial_table(last_exponents, points[chunk, -1:])
        heads_table = monomial_table(head_exponents, points[chunk, :-1])
        out[chunk] = np.einsum("hn,hn->n", inner, heads_table)
    return out


def _polynomials_from_rows(cls, dim, keys, rows):
    """One `cls` polynomial per row of the 2-D array `rows`, whose column j
    holds the coefficient of flat key `keys[j]`.  The keys must be validated
    MultiIndex keys, unique and in grlex order, so no per-key checks run;
    entries below ZERO_PRUNE_FLOAT in modulus are dropped, as the constructor
    drops them (NaN entries are kept)."""
    out = []
    for values, keep in zip(rows.tolist(), (~(np.abs(rows) < ZERO_PRUNE_FLOAT)).tolist()):
        poly = object.__new__(cls)
        poly.dim = int(dim)
        poly._terms = dict(itertools.compress(zip(keys, values), keep))
        out.append(poly)
    return out


def _degree_for_length(dim, length):
    degree = 0
    while math.comb(degree + dim, dim) < length:
        degree += 1
    return degree


class ComplexBiPolynomial(_SparsePolynomial):
    """Polynomial in z and conj(z) over C^dim, stored as a polynomial in the
    2 dim variables (z, conj z): the flat key of z^k conj(z)^l is k + l.
    `terms` presents the keys as multi-index pairs (k, l)."""

    _halves = 2

    def __init__(self, dim, terms=None):
        self._build(dim, ((_join(key, dim), c) for key, c in terms.items()) if terms else ())

    @property
    def terms(self):
        # halves of validated keys, so pairs passed back skip re-validation
        d = self.dim
        return {(tuple.__new__(MultiIndex, k[:d]), tuple.__new__(MultiIndex, k[d:])): c
                for k, c in self._terms.items()}

    def holomorphic_degree(self):
        if not self._terms:
            return -math.inf
        return max(sum(k[:self.dim]) for k in self._terms)

    def antiholomorphic_degree(self):
        if not self._terms:
            return -math.inf
        return max(sum(k[self.dim:]) for k in self._terms)

    def in_degree_class(self, s):
        """Membership in P_s(C^d): both partial degrees at most s."""
        return self.holomorphic_degree() <= s and self.antiholomorphic_degree() <= s

    def conjugate(self):
        d = self.dim
        return self._from_flat(d, {k[d:] + k[:d]: _conj(c) for k, c in self._terms.items()})

    def eval(self, z):
        if len(z) != self.dim:
            raise ValueError("point has wrong length")
        values = list(z) + [zj.conjugate() for zj in z]
        total = 0
        for k, c in self._terms.items():
            term = c if not isinstance(c, ExactComplex) else complex(c)
            for wj, e in zip(values, k):
                if e:
                    term = term * wj ** e
            total = total + term
        return total

    def eval_many(self, points):
        """Evaluate at an (n, dim) complex array; returns length-n complex array."""
        points = np.asarray(points, dtype=complex)
        if points.ndim == 1:
            points = points[None, :]
        if points.shape[1] != self.dim:
            raise ValueError(f"points have dimension {points.shape[1]}, expected {self.dim}")
        coeffs = np.array([complex(c) for c in self._terms.values()], dtype=complex)
        return _eval_terms(self._terms, coeffs, np.hstack([points, np.conj(points)]))

    __call__ = eval_many

    def to_json_dict(self):
        items = []
        for (k, l), c in self.terms.items():
            c = complex(c)
            items.append({"k": list(k), "l": list(l), "re": c.real, "im": c.imag})
        return {"dim": self.dim, "terms": items}

    @classmethod
    def from_json_dict(cls, obj):
        terms = {}
        for t in obj["terms"]:
            terms[(tuple(t["k"]), tuple(t["l"]))] = complex(t["re"], t["im"])
        return cls(obj["dim"], terms)

    def __repr__(self):
        body = " + ".join(f"{c}*z^{tuple(k)}conj^{tuple(l)}" for (k, l), c in self.terms.items()) or "0"
        return f"ComplexBiPolynomial(dim={self.dim}: {body})"


def _join(pair, dim):
    """Flat key k + l of the exponent pair (k, l), each of length `dim`."""
    k, l = pair
    k, l = MultiIndex(k), MultiIndex(l)
    if len(k) != dim or len(l) != dim:
        raise ValueError("exponent pair has wrong length")
    return tuple.__new__(MultiIndex, k + l)  # both halves are validated


def _conj(c):
    if isinstance(c, (int, float, Fraction, np.floating)):
        return c
    return c.conjugate()
