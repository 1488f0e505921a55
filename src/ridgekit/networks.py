"""Dictionary-based activations and shallow-network builders.

A countable dictionary u_1, u_2, ... of rational-coefficient polynomials is
realized through an explicit bijection between positive integers and sparse
coefficient maps, so both directions (index -> polynomial, polynomial ->
index) are exactly computable.  The activation tau stores the whole dictionary
along the first axis: tau(x + 3m e_1) = u_m(x) inside the unit-ball cell at
3m e_1, with smooth fade-out between cells; the complex activation phi does the
same on the complex line with bidegree profiles.
"""

import math
from fractions import Fraction

import numpy as np

from .polycore import (ComplexBiPolynomial, ExactComplex, MultiIndexPolynomial,
                       contract_terms, rank_grlex, unrank_grlex)
from .quasiproj import smooth_step
from .ridge_real import _array_from_json, _json_array

CELL_SPACING = 3.0
BLEND_OUTER = 1.4  # cell value fades to zero by this radius; cells stay disjoint
# largest excess of a unit's input-map norm over 1 that the builders accept
UNIT_NORM_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Integer codecs


def cantor_pair(a, b):
    return (a + b) * (a + b + 1) // 2 + b


def cantor_unpair(n):
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def _fold_sequence(vals):
    """Bijection N^k -> N for fixed k >= 1, by balanced pairing (keeps the
    folded integer's bit count near the sum of the inputs' bit counts)."""
    if len(vals) == 1:
        return vals[0]
    mid = len(vals) // 2
    return cantor_pair(_fold_sequence(vals[:mid]), _fold_sequence(vals[mid:]))


def _unfold_sequence(code, k):
    if k == 1:
        return [code]
    mid = k // 2
    a, b = cantor_unpair(code)
    return _unfold_sequence(a, mid) + _unfold_sequence(b, k - mid)


def _encode_sequence(vals):
    """Bijection between nonempty finite sequences of naturals and N."""
    return cantor_pair(len(vals) - 1, _fold_sequence(list(vals)))


def _decode_sequence(code):
    count_minus_1, folded = cantor_unpair(code)
    return _unfold_sequence(folded, count_minus_1 + 1)


def _rational_rank(p, q):
    """Rank >= 1 of the positive rational p/q (lowest terms) via its canonical
    continued fraction; rank bit count is polynomial in the bit counts of p, q."""
    terms = []
    while q:
        terms.append(p // q)
        p, q = q, p % q
    # canonical form has last term >= 2 unless the fraction is an integer
    if len(terms) > 1 and terms[-1] == 1:
        terms.pop()
        terms[-1] += 1
    if len(terms) == 1:
        seq = [terms[0] - 1]
    else:
        seq = [terms[0]] + [t - 1 for t in terms[1:-1]] + [terms[-1] - 2]
    return _encode_sequence(seq) + 1


def _rational_unrank(rank):
    seq = _decode_sequence(rank - 1)
    if len(seq) == 1:
        terms = [seq[0] + 1]
    else:
        terms = [seq[0]] + [t + 1 for t in seq[1:-1]] + [seq[-1] + 2]
    # convergent recurrence: t + 1 / (p / q) = (t p + q) / p, already in lowest terms
    p, q = terms[-1], 1
    for t in reversed(terms[:-1]):
        p, q = t * p + q, p
    return p, q


def encode_rational(value):
    """Bijection Fraction <-> non-negative integer; 0 maps to 0."""
    value = Fraction(value)
    if value == 0:
        return 0
    rank = _rational_rank(abs(value.numerator), value.denominator)
    return 2 * rank - 1 if value > 0 else 2 * rank


def decode_rational(code):
    if code < 0:
        raise ValueError("code must be non-negative")
    if code == 0:
        return Fraction(0)
    rank, positive = ((code + 1) // 2, code % 2 == 1)
    p, q = _rational_unrank(rank)
    return Fraction(p, q) if positive else Fraction(-p, q)


def _encode_term_list(pairs):
    """Bijection between sorted lists [(monomial_rank, coeff_code >= 1)] and
    non-negative integers; delta-encodes the strictly increasing ranks."""
    codes = []
    prev = -1
    for rank, coeff_code in pairs:
        codes.append(cantor_pair(rank - prev - 1, coeff_code - 1))
        prev = rank
    return _encode_sequence(codes)


def _decode_term_list(code):
    pairs = []
    prev = -1
    for g in _decode_sequence(code):
        delta, coeff_code = cantor_unpair(g)
        rank = prev + delta + 1
        pairs.append((rank, coeff_code + 1))
        prev = rank
    return pairs


class _Dictionary:
    """Index <-> polynomial maps shared by both dictionaries: index 1 is the
    zero polynomial, and index i > 1 encodes the sorted list of
    (monomial rank, coefficient code) pairs of a nonzero polynomial.
    Subclasses give the polynomial class and the codec of one term."""

    def polynomial_at(self, index):
        if index < 1:
            raise ValueError("indices start at 1")
        if index in self._cache:
            return self._cache[index]
        pairs = _decode_term_list(index - 2) if index > 1 else []
        return self._remember(index, self._polynomial(
            self.var_count, dict(self._decode_term(rank, code) for rank, code in pairs)))

    def _remember(self, index, poly):
        """Cache the entry `poly` at `index` (up to 4096 entries) and return it."""
        if len(self._cache) < 4096:
            self._cache[index] = poly
        return poly

    def index_of(self, poly):
        if poly.dim != self.var_count:
            raise ValueError("variable count mismatch")
        if poly.is_zero():
            return 1
        return _encode_term_list(sorted(self._encode_term(key, c)
                                        for key, c in poly.terms.items())) + 2


class PolynomialDictionary(_Dictionary):
    """Indexed enumeration of rational-coefficient polynomials in `var_count`
    real variables.  Index 1 is the zero polynomial; the index <-> polynomial
    maps are mutually inverse for every index."""

    _polynomial = MultiIndexPolynomial

    def __init__(self, var_count):
        if var_count < 1:
            raise ValueError("need at least one variable")
        self.var_count = var_count
        self._cache = {}

    def _decode_term(self, rank, code):
        return unrank_grlex(self.var_count, rank), decode_rational(code)

    def _encode_term(self, key, c):
        return rank_grlex(tuple(key)), encode_rational(c)

    def find_index(self, profile, tol):
        """Dictionary entry within `tol` of a float-coefficient profile in the
        l1 norm of the coefficients, by one dyadic rounding: each of the T
        coefficients goes to the nearest multiple of 2^-j with
        j = ceil(log2(T / tol)) - 1 (at least 0), so it moves by at most
        2^(-j-1) <= tol / T.  Every monomial is at most 1 in modulus on the
        unit ball, so the entry is within `tol` of the profile there too.
        Returns (index, entry) and caches the entry, so `polynomial_at(index)`
        need not decode it."""
        if profile.dim != self.var_count:
            raise ValueError("variable count mismatch")
        j = _denominator_exponent(len(profile.terms), tol)
        entry = MultiIndexPolynomial(self.var_count, {
            k: _round_dyadic(Fraction(c), j) for k, c in profile.terms.items()})
        index = self.index_of(entry)
        return index, self._remember(index, entry)


class ComplexPolynomialDictionary(_Dictionary):
    """Enumeration of univariate bidegree polynomials (in w and conj w) with
    Gaussian-rational coefficients."""

    _polynomial = ComplexBiPolynomial
    var_count = 1

    def __init__(self):
        self._cache = {}

    @staticmethod
    def _decode_term(rank, code):
        (s, t), (re_code, im_code) = cantor_unpair(rank), cantor_unpair(code)
        return ((s,), (t,)), ExactComplex(decode_rational(re_code), decode_rational(im_code))

    @staticmethod
    def _encode_term(key, c):
        ((s,), (t,)), (re, im) = key, _exact_parts(c)
        return cantor_pair(s, t), cantor_pair(encode_rational(re), encode_rational(im))

    def find_index(self, profile, tol):
        """Complex counterpart of `PolynomialDictionary.find_index`: real and
        imaginary parts are rounded separately, so the bound is on
        sum |d re| + |d im| (at least the l1 distance, with no square roots),
        with j = ceil(log2(2 T / tol)) - 1, one more bit than the real rule."""
        if profile.dim != self.var_count:
            raise ValueError("variable count mismatch")
        j = _denominator_exponent(2 * len(profile.terms), tol)
        entry = ComplexBiPolynomial(1, {
            key: ExactComplex(*(_round_dyadic(part, j) for part in _exact_parts(c)))
            for key, c in profile.terms.items()})
        index = self.index_of(entry)
        return index, self._remember(index, entry)


def _exact_parts(c):
    """Real and imaginary parts of a coefficient, as Fractions."""
    if isinstance(c, ExactComplex):
        return c.re, c.im
    if isinstance(c, (complex, np.complexfloating)):
        return Fraction(c.real), Fraction(c.imag)
    return Fraction(c), Fraction(0)


def _denominator_exponent(count, tol):
    """Least j >= 0 with count * 2^(-j-1) <= tol, that is
    ceil(log2(count / tol)) - 1 when tol < count, found without rounding:
    rounding `count` numbers to multiples of 2^-j moves them by at most tol
    in total."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    j = 0
    while math.ldexp(tol, j + 1) < count:
        j += 1
    return j


def _round_dyadic(value, j):
    """Nearest multiple of 2^-j to the Fraction `value`."""
    return Fraction(round(value * (1 << j)), 1 << j)


# ---------------------------------------------------------------------------
# Activations


def tau_eval(dictionary, x):
    """Activation value at x in R^ell: the dictionary polynomial of the nearest
    cell, faded out smoothly away from the cell ball.  The m = 0 cell is zero.

    x is a double, so only cells of small index are reachable: the indices of
    built networks run to about 10^4 bits, where 3m overflows a double (and
    past 2^53 the offset in the cell is lost).  Networks therefore evaluate
    each unit in its own cell, without this function."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = round(x[0] / CELL_SPACING)
    if m <= 0:
        return 0.0
    shifted = x.copy()
    shifted[0] -= CELL_SPACING * m
    radius = np.linalg.norm(shifted)
    weight = _blend_weight(radius)
    if weight == 0.0:
        return 0.0
    poly = dictionary.polynomial_at(m)
    return weight * float(poly.map_coefficients(float).eval_many(shifted[None, :])[0])


def _blend_weight(radius):
    """1 inside the unit ball, smooth decay to 0 at the blend radius."""
    return 1.0 - smooth_step((radius - 1.0) / (BLEND_OUTER - 1.0))


def phi_eval(dictionary, z):
    """Complex activation: phi(z + 3m) = u_m(z) on the unit square cell.
    Reaches only cells of small index, as `tau_eval` does."""
    z = complex(z)
    m = round(z.real / CELL_SPACING)
    if m <= 0:
        return 0j
    w = z - CELL_SPACING * m
    weight = (_blend_weight(abs(w.real)) * _blend_weight(abs(w.imag)))
    if weight == 0.0:
        return 0j
    poly = dictionary.polynomial_at(m)
    return weight * complex(poly.eval_many(np.array([[w]]))[0])


# ---------------------------------------------------------------------------
# Networks


class _Network:
    """What both networks share: their units, read once, at construction.

    Each unit is a dict of its input map, in-cell bias and outer weight (the
    fields `_fields`) and its `dict_index`.  The fields are copied into frozen
    stacks of dtype `_dtype`, `units` holds a dict per unit of read-only
    views of them, and each unit's profile is laid out for evaluation.  A unit
    maps a point to `ell` inputs.  Subclasses give the blend weight and sum
    through `_unit_sum`."""

    def __init__(self, d, units, dictionary):
        self.d = d
        self.dictionary = dictionary
        stacks = [np.array([u[name] for u in units], dtype=self._dtype) for name in self._fields]
        for stack in stacks:
            stack.setflags(write=False)
        self.units = [dict(zip(self._fields, entries), dict_index=int(u["dict_index"]))
                      for u, *entries in zip(units, *stacks)]
        maps, shifts, self._outer = stacks
        self._maps = maps.reshape(self.n * self.ell, d).T
        self._shifts = shifts.reshape(self.n * self.ell)
        self._layouts = [dictionary.polynomial_at(u["dict_index"]).layout(self._dtype)
                         for u in self.units]

    @property
    def n(self):
        return len(self.units)

    def _local(self, points):
        """The (N, n, ell) inputs of the units, in their own cells, at an
        (N, d) array of points (or one point)."""
        points = np.atleast_2d(np.asarray(points, dtype=self._dtype))
        return (points @ self._maps + self._shifts).reshape(points.shape[0], self.n, self.ell)

    def _unit_sum(self, inputs, weights):
        """sum_k outer_k * weights[:, k] * P_k(inputs[:, k]) at N points: the
        (N, n, width) flat profile inputs of the n units and their (N, n)
        blend weights."""
        values = np.empty(weights.shape, dtype=inputs.dtype)
        for k, layout in enumerate(self._layouts):
            values[:, k] = contract_terms(layout, inputs[:, k])
        return (weights * values) @ self._outer

    def to_json_dict(self):
        return {"type": self._type, "ell": self.ell, "d": self.d, "units": [
            {**{name: _json_array(u[name], self._dtype) for name in self._fields},
             "dict_index": hex(u["dict_index"])} for u in self.units]}

    @classmethod
    def from_json_dict(cls, obj, dictionary):
        units = [{**{name: _array_from_json(u[name], cls._dtype) for name in cls._fields},
                  "dict_index": int(u["dict_index"], 16)} for u in obj["units"]]
        return cls(*(obj[key] for key in cls._header), units, dictionary)


class GTNetwork(_Network):
    """Shallow generalized-translation network sum c_k tau(A_k x + b_k)."""

    _type, _dtype, _fields, _header = "gtn", float, ("A", "b", "c"), ("ell", "d")

    def __init__(self, ell, d, units, dictionary):
        self.ell = ell
        super().__init__(d, units, dictionary)

    def eval_many(self, points):
        """sum_k c_k w(|y_k|) u_k(y_k), y_k = A_k x + b_k, at an (N, d) array
        of points (or one point): each unit is evaluated in its own cell, with
        w the blend weight and u_k its dictionary entry, so this is
        sum_k c_k tau(y_k + 3 m_k e_1) while each y_k is nearest to that cell."""
        local = self._local(points)
        return self._unit_sum(local, _blend_weight(np.linalg.norm(local, axis=2)))

    __call__ = eval_many


class CVNNetwork(_Network):
    """Shallow complex-valued network sum gamma_k phi(alpha_k . z + beta_k)."""

    _type, _dtype, _fields, _header = "cvnn", complex, ("alpha", "beta", "gamma"), ("d",)
    ell = 1

    def eval_many(self, points):
        """sum_k gamma_k phi(alpha_k . z + beta_k + 3 m_k) at an (N, d) complex
        array of points (or one point), each unit evaluated in its own cell as
        in `GTNetwork.eval_many`; a profile is read at (w, conj w)."""
        local = self._local(points)
        weights = _blend_weight(np.abs(local.real)) * _blend_weight(np.abs(local.imag))
        return self._unit_sum(np.concatenate([local, local.conj()], axis=2), weights[..., 0])

    __call__ = eval_many


def gtn_from_decomposition(decomp, dictionary, tol):
    """Network with one unit per ridge block: each profile P_k is rounded into
    the dictionary by `find_index`, and the unit's input A_k x stays in that
    entry's cell.  `net.certificate`, at most n * tol, bounds
    sup |net - sum_k P_k(A_k x)| over the unit ball (see `_build`)."""
    if dictionary.var_count != decomp.ell:
        raise ValueError("dictionary variable count must match ell")
    return _build(GTNetwork, decomp, decomp.matrices, dictionary, tol, "spectral norm of A",
                  "row-orthonormalize it with orthonormalize_rows(A, P)")


def cvnn_from_decomposition(cdecomp, dictionary, tol):
    """Complex counterpart of `gtn_from_decomposition`, one unit
    phi(alpha_k . z) per ridge term."""
    return _build(CVNNetwork, cdecomp, cdecomp.vectors, dictionary, tol, "norm of alpha",
                  "divide alpha by its norm r and use the profile P(r w)")


def _build(cls, decomp, maps, dictionary, tol, name, remedy):
    """The `cls` network with one unit of weight 1 and bias 0 per ridge term
    of `decomp`: input map `maps[k]` and profile P_k rounded into `dictionary`
    by `find_index`.  `net.certificate` is sum_k mismatch_k *
    max(1, |maps[k]|_2)^deg P_k, rounded up to a float.  mismatch_k, the exact
    sum |d re| + |d im| over the coefficients, is at most tol, and every
    monomial of degree e is at most r^e in modulus where |y| <= r.  A unit's
    input stays in the unit ball, where the blend weight is 1, only while its
    map's norm is at most 1; past 1 + UNIT_NORM_SLACK this raises ValueError
    naming the norm and the `remedy`."""
    units, certificate = [], Fraction(0)
    for unit, (M, P) in enumerate(zip(maps, decomp.profiles)):
        norm = np.linalg.norm(M, 2)
        if norm > 1 + UNIT_NORM_SLACK:
            raise ValueError(f"unit {unit}: {name} is {norm:.6g} > 1, so its input can leave "
                             f"the cell where the activation equals its profile; {remedy}")
        index, entry = dictionary.find_index(P, tol)
        rounded = entry.terms
        mismatch = sum(abs(a - b) for key, c in P.terms.items()
                       for a, b in zip(_exact_parts(c), _exact_parts(rounded.get(key, 0))))
        degree = max((key.order() for key in P._terms), default=0)
        certificate += mismatch * Fraction(max(1.0, float(norm))) ** degree
        units.append(dict(zip(cls._fields, (M, np.zeros(M.shape[:-1]), 1.0)), dict_index=index))
    net = cls(*(getattr(decomp, key) for key in cls._header), units, dictionary)
    net.certificate = float(certificate)  # rounded up below if float() rounded down
    if net.certificate < certificate:
        net.certificate = math.nextafter(net.certificate, math.inf)
    return net
