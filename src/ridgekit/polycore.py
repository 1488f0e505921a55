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
import math
import operator
from fractions import Fraction

import numpy as np

ZERO_PRUNE_FLOAT = 1e-300
# Element budget for the temporaries of one monomial_table call: callers pass
# at most this many (term, point) pairs at a time.
TABLE_ELEMENTS = 2**17


class MultiIndex(tuple):
    """Tuple of non-negative integer exponents.  Each entry must be an integer
    (Python or numpy, by `operator.index`): a float or a string is rejected,
    not truncated or parsed.  Code that combines keys already validated (sums
    of exponents, concatenations, slices) builds the result with
    `tuple.__new__(MultiIndex, ...)`, so a key is validated once."""

    def __new__(cls, entries):
        if isinstance(entries, cls):
            return entries  # validated when it was built, and immutable
        entries = tuple(entries)
        try:
            exponents = tuple(map(operator.index, entries))
        except TypeError:
            raise TypeError(f"multi-index entries must be integers, got {entries!r}") from None
        if any(e < 0 for e in exponents):
            raise ValueError(f"multi-index entries must be non-negative, got {exponents!r}")
        return super().__new__(cls, exponents)

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


def _grlex_terms(data):
    """The map `data` over MultiIndex keys in grlex order, zero coefficients
    pruned.  A MultiIndex compares as the tuple it is, so it sorts with no copy."""
    return {k: c for k, c in sorted(data.items(), key=lambda kv: (sum(kv[0]), kv[0]))
            if not _is_zero_coeff(c)}


def monomials_up_to(dim, max_degree):
    """All exponent tuples of length `dim` with total degree <= max_degree,
    in graded lexicographic order, as a new list of cached MultiIndex keys."""
    return list(_grlex_multi_indices(dim, max_degree))


@functools.lru_cache(maxsize=None)
def _grlex_multi_indices(dim, max_degree):
    """The monomials_up_to(dim, max_degree) in a tuple: the keys
    `_polynomials_from_rows` takes for a dense polynomial."""
    return tuple(k for total in range(max_degree + 1) for k in _homogeneous_tuple(dim, total))


def _homogeneous_exponents(dim, total):
    """Exponent tuples of length `dim` and total degree `total`, in graded
    lexicographic order, as a new list of cached MultiIndex keys."""
    return list(_homogeneous_tuple(dim, total))


@functools.lru_cache(maxsize=None)
def _homogeneous_tuple(dim, total):
    if dim == 1:
        return (tuple.__new__(MultiIndex, (total,)),)
    return tuple(tuple.__new__(MultiIndex, (first,) + rest) for first in range(total + 1)
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
            if type(k) is not MultiIndex:
                k = MultiIndex(k)
            if len(k) != width:
                raise ValueError(f"exponent {tuple(k)} has wrong length for dim={dim}")
            if k in data:
                c = data[k] + c
            data[k] = c
        self._terms = _grlex_terms(data)

    @classmethod
    def _from_flat(cls, dim, terms):
        out = object.__new__(cls)
        out._build(dim, terms.items())
        return out

    @classmethod
    def _from_keys(cls, dim, terms):
        """`_from_flat` for a map whose keys are MultiIndex keys of the flat
        width, unique, as the sums, copies and rearrangements of this class's
        own keys are: it sorts and prunes them, with no per-key checks."""
        out = object.__new__(cls)
        out.dim = dim
        out._terms = _grlex_terms(terms)
        return out

    @classmethod
    def zero(cls, dim):
        return cls._from_flat(dim, {})

    @classmethod
    def constant(cls, dim, value):
        return cls._from_flat(dim, {tuple.__new__(MultiIndex, (0,) * (cls._halves * dim)): value})

    def is_zero(self):
        return not self._terms

    def __add__(self, other):
        self._check_dim(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return self._from_keys(self.dim, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor):
        return self._from_keys(self.dim, {k: c * factor for k, c in self._terms.items()})

    def __mul__(self, other):
        self._check_dim(other)
        out = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                # the sum of two valid keys of one length is a valid key
                k = tuple.__new__(MultiIndex, map(operator.add, k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return self._from_keys(self.dim, out)

    def _check_dim(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def substitute(self, lines):
        """sum_k c_k prod_i lines[i] ** k_i: flat variable i replaced by the
        polynomial lines[i], all of one class and dimension.  Each power of a
        line is built once, by one more multiplication from the power below;
        every term is its coefficient times the powers of the variables it
        holds, in variable order, and the terms are summed in grlex order,
        into one map that is built into the result once."""
        if len(lines) != self._halves * self.dim:
            raise ValueError(f"need {self._halves * self.dim} lines, got {len(lines)}")
        cls, dim = type(lines[0]), lines[0].dim
        powers = [[cls.constant(dim, 1)] for _ in lines]
        total = {}
        for k, c in self._terms.items():
            term = cls.constant(dim, c)
            for line, cache, e in zip(lines, powers, k):
                while len(cache) <= e:
                    cache.append(cache[-1] * line)
                if e:
                    term = term * cache[e]
            for key, value in term._terms.items():
                total[key] = total.get(key, 0) + value
        return cls._from_keys(dim, total)

    def eval(self, point):
        """Value at one point, in the arithmetic of its entries and of the
        coefficients (exact for Fractions); ExactComplex coefficients are taken
        as complex.  The flat point is x, or z followed by conj(z)."""
        if len(point) != self.dim:
            raise ValueError(f"point has length {len(point)}, expected {self.dim}")
        flat = list(point) + [v.conjugate() for v in point] * (self._halves - 1)
        total = 0
        for k, c in self._terms.items():
            term = complex(c) if isinstance(c, ExactComplex) else c
            for v, e in zip(flat, k):
                if e:
                    term = term * v ** e
            total = total + term
        return total

    def layout(self, dtype):
        """`terms_layout` of the terms as `dtype` (float or complex), at flat points."""
        return terms_layout(self._terms, np.array([dtype(c) for c in self._terms.values()], dtype),
                            self._halves * self.dim)

    def map_coefficients(self, fn):
        return self._from_keys(self.dim, {k: fn(c) for k, c in self._terms.items()})

    def axis_values(self):
        """Values at the origin and at u e_i (i = 1..dim), read from the
        coefficients: only the constant and the monomials in the variables of
        coordinate i are nonzero at u e_i.  u runs over (1, -1) for a real
        polynomial and over (1, 1j, -1, -1j) for a complex one.  Returns the
        origin's value, then the values at u e_1, ..., u e_dim for each u in
        turn."""
        top = next(reversed(self._terms)).order() if self._terms else 0
        keys, phases = _axis_terms(self.dim, self._halves, top)
        return phases @ np.array([self._terms.get(k, 0) for k in keys], dtype=phases.dtype)

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.dim == other.dim and self._terms == other._terms)


class MultiIndexPolynomial(_SparsePolynomial):
    """Sparse real polynomial in `dim` variables keyed by multi-indices."""

    @property
    def terms(self):
        return self._terms

    @classmethod
    def monomial(cls, exponents):
        return cls(len(exponents), {tuple(exponents): 1})

    def degree(self):
        # the terms are in grlex order, so the last key has the top degree
        if not self._terms:
            return -math.inf
        return next(reversed(self._terms)).order()

    def eval_many(self, points):
        """Evaluate at an (n, dim) array of points; returns length-n array."""
        return contract_terms(self.layout(float), point_rows(points, float, self.dim))

    __call__ = eval_many

    def compose_linear(self, A):
        """Return the polynomial x -> P(A x), where A maps R^d_out -> R^dim."""
        A = [list(row) for row in A]
        if len(A) != self.dim:
            raise ValueError(f"matrix has {len(A)} rows, expected {self.dim}")
        d_out = len(A[0]) if A else 0
        if any(len(row) != d_out for row in A):
            raise ValueError("ragged matrix")
        if d_out < 1:
            raise ValueError("output dimension must be positive")
        units = [tuple(int(i == j) for i in range(d_out)) for j in range(d_out)]
        return self.substitute([MultiIndexPolynomial(d_out, dict(zip(units, row))) for row in A])

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


def point_rows(points, dtype, width):
    """`points` as a 2-D array of `dtype`, one point a row (a 1-D `points` is
    one point); raises ValueError unless each point has `width` coordinates."""
    points = np.atleast_2d(np.asarray(points, dtype=dtype))
    if points.shape[1] != width:
        raise ValueError(f"points have dimension {points.shape[1]}, expected {width}")
    return points


def monomial_table(exponents, points):
    """(T, N) array whose entry (t, i) is prod_j points[i, j] ** exponents[t, j].

    `exponents` is an int array of shape (T, k), `points` a real or complex
    array of shape (N, k).  The rows of each variable's `_power_table` are
    gathered into the product, which starts from the first variable's rows.
    """
    exponents, points = np.asarray(exponents, dtype=np.intp), np.asarray(points)
    table = None
    for j in np.flatnonzero(exponents.max(axis=0, initial=0)):
        gathered = _power_table(points[:, j], exponents[:, j].max())[exponents[:, j]]
        table = gathered if table is None else np.multiply(table, gathered, out=table)
    if table is None:   # no variable has a nonzero exponent
        table = np.ones((exponents.shape[0], points.shape[0]), dtype=points.dtype)
    return table


def _power_table(x, top):
    """(top + 1, N) array of x ** 0, ..., x ** top, by repeated multiplication."""
    powers = np.empty((top + 1, x.shape[0]), dtype=x.dtype)
    powers[:1], powers[1:2] = 1, x
    for e in range(2, top + 1):
        np.multiply(powers[e - 1], x, out=powers[e])
    return powers


def point_chunks(terms, count):
    """Slices of range(count) so that a (terms, chunk) table fits TABLE_ELEMENTS."""
    step = max(1, TABLE_ELEMENTS // max(1, terms))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def terms_layout(keys, coefficients, width):
    """The pair (grouped, head_exponents) that `contract_terms` evaluates at
    flat points (x, or z then conj z): the polynomials with coefficients over
    the flat `keys` (of length `width`, an iterable read once) along the last
    axis of `coefficients`.  Entry (..., h, p) of `grouped` is the coefficient
    of head h (a key but its last entry) times x_last^p; heads are in order of
    first appearance, which fixes the contraction's summation order."""
    heads, rows, powers = {}, [], []
    for k in keys:
        rows.append(heads.setdefault(k[:-1], len(heads)))
        powers.append(k[-1])
    grouped = np.zeros(coefficients.shape[:-1] + (len(heads), max(powers, default=-1) + 1),
                       coefficients.dtype)
    grouped[..., rows, powers] = coefficients
    return grouped, np.array(list(heads), dtype=np.intp).reshape(len(heads), width - 1)


def contract_terms(layout, points):
    """Values at an (N, width) array of points of the polynomial whose
    `layout()` is `layout`, or (B, N) values of a stacked layout, whose
    `grouped` is (B, H, p+1): at the (N, width) points all its rows share, or
    at a (B, N, width) array of one point array per row.  One matmul with the
    power table of the last variable contracts it (a multivariate Horner
    step), and only the distinct heads are tabulated, one chunk of points at a
    time.  The chunks are those of one polynomial (a matmul's result can
    change with its column count), and a stack's rows share them in groups
    whose inner products fit."""
    grouped, heads = layout
    top, shared = grouped.shape[-1] - 1, points.ndim == 2
    out = np.empty(grouped.shape[:-2] + points.shape[-2:-1], dtype=grouped.dtype)
    for chunk in point_chunks(sum(grouped.shape[-2:]), points.shape[-2]):
        if shared:
            tables = _contraction_tables(heads, top, points[chunk])
        # a row's share of the budget: its inner products, and its own tables too
        width = len(heads) if shared else sum(grouped.shape[-2:])
        for rows in (point_chunks(width * (chunk.stop - chunk.start), len(grouped))
                     if grouped.ndim == 3 else [Ellipsis]):
            # a group's own tables are freed before the next group's are built
            out[rows, chunk] = _horner_step(grouped[rows], *(
                tables if shared else _contraction_tables(heads, top, points[rows, chunk])))
    return out


def _horner_step(grouped, powers, table):
    """sum_h (grouped @ powers)[..., h, :] * table[..., h, :]."""
    return np.einsum("...hn,...hn->...n", grouped @ powers, table)


def _contraction_tables(heads, top, points):
    """The last variable's powers 0..top and the heads' monomials at the
    (n, width) `points`, as `contract_terms` multiplies them in, or at the
    (B, n, width) points of B rows.  Those are tabulated as one (B n, width)
    array of points, and each table is then laid out row by row in C order:
    einsum's summation order can follow the memory order of its operands."""
    if points.ndim == 2:
        return _power_table(points[:, -1], top), monomial_table(heads, points[:, :-1])
    rows, count, width = points.shape
    return tuple(np.ascontiguousarray(table.reshape(len(table), rows, count).swapaxes(0, 1))
                 for table in _contraction_tables(heads, top,
                                                  points.reshape(rows * count, width)))


@functools.lru_cache(maxsize=None)
def _axis_terms(dim, halves, top):
    """The flat keys of the constant and of every monomial of order <= top in
    the variables of one coordinate (x_i, or z_i and conj z_i), and the
    read-only matrix of their values at the points of `axis_values`: z_i^k
    conj(z_i)^l is u^(k - l) at u e_i (|u| = 1) and 0 at the other points."""
    units = 2 * halves
    roots = np.array([1.0, -1.0]) if halves == 1 else np.array([1, 1j, -1, -1j])
    local = monomials_up_to(halves, top)[1:]
    keys = [(0,) * (halves * dim)]
    phases = np.zeros((1 + units * dim, 1 + dim * len(local)), dtype=roots.dtype)
    phases[:, 0] = 1
    for i in range(dim):
        for e in local:
            key = [0] * (halves * dim)
            key[i::dim] = e
            power = e[0] - sum(e[1:])
            phases[1 + i + dim * np.arange(units), len(keys)] = roots[
                power * np.arange(units) % units]
            keys.append(tuple(key))
    phases.setflags(write=False)
    return tuple(keys), phases


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

    def conjugate(self):
        d = self.dim
        return self._from_keys(d, {tuple.__new__(MultiIndex, k[d:] + k[:d]): _conj(c)
                                   for k, c in self._terms.items()})

    def eval_many(self, points):
        """Evaluate at an (n, dim) complex array; returns length-n complex array."""
        points = point_rows(points, complex, self.dim)
        return contract_terms(self.layout(complex), np.hstack([points, np.conj(points)]))

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
