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
                       rank_grlex, unrank_grlex)
from .quasiproj import smooth_step

CELL_SPACING = 3.0
BLEND_OUTER = 1.4  # cell value fades to zero by this radius; cells stay disjoint


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
    value = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        value = t + 1 / value
    return value.numerator, value.denominator


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


class PolynomialDictionary:
    """Indexed enumeration of rational-coefficient polynomials in `var_count`
    real variables.  Index 1 is the zero polynomial; the index <-> polynomial
    maps are mutually inverse for every index."""

    def __init__(self, var_count):
        if var_count < 1:
            raise ValueError("need at least one variable")
        self.var_count = var_count
        self._cache = {}

    def polynomial_at(self, index):
        if index < 1:
            raise ValueError("indices start at 1")
        if index in self._cache:
            return self._cache[index]
        if index == 1:
            poly = MultiIndexPolynomial.zero(self.var_count)
        else:
            pairs = _decode_term_list(index - 2)
            terms = {
                unrank_grlex(self.var_count, rank): decode_rational(code)
                for rank, code in pairs
            }
            poly = MultiIndexPolynomial(self.var_count, terms)
        if len(self._cache) < 4096:
            self._cache[index] = poly
        return poly

    def index_of(self, poly):
        if poly.dim != self.var_count:
            raise ValueError("variable count mismatch")
        if poly.is_zero():
            return 1
        pairs = []
        for k, c in poly.terms.items():
            code = encode_rational(c)
            pairs.append((rank_grlex(tuple(k)), code))
        pairs.sort()
        return _encode_term_list(pairs) + 2

    def find_index(self, profile, tol, grid, max_denominator_exponent=60):
        """Dictionary entry within sup-grid distance `tol` of a float-coefficient
        profile, found by rounding coefficients to denominators 2^j."""
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        target = profile.eval_many(grid)
        coeffs = {k: float(c) for k, c in profile.terms.items()}
        for j in range(max_denominator_exponent + 1):
            denom = 1 << j
            terms = {k: Fraction(round(c * denom), denom) for k, c in coeffs.items()}
            candidate = MultiIndexPolynomial(self.var_count, terms)
            values = candidate.eval_many(grid)
            if np.max(np.abs(values - target)) <= tol:
                return self.index_of(candidate), candidate
        raise ValueError(
            f"no dictionary entry within {tol} up to denominator 2^{max_denominator_exponent}; "
            "raise the denominator bound")


class ComplexPolynomialDictionary:
    """Enumeration of univariate bidegree polynomials (in w and conj w) with
    Gaussian-rational coefficients."""

    def __init__(self):
        self._cache = {}

    @staticmethod
    def _rank_bidegree(key):
        (s,), (t,) = key
        return cantor_pair(s, t)

    @staticmethod
    def _unrank_bidegree(rank):
        s, t = cantor_unpair(rank)
        return ((s,), (t,))

    def polynomial_at(self, index):
        if index < 1:
            raise ValueError("indices start at 1")
        if index in self._cache:
            return self._cache[index]
        if index == 1:
            poly = ComplexBiPolynomial.zero(1)
        else:
            pairs = _decode_term_list(index - 2)
            terms = {}
            for rank, code in pairs:
                re_code, im_code = cantor_unpair(code)
                value = ExactComplex(decode_rational(re_code), decode_rational(im_code))
                terms[self._unrank_bidegree(rank)] = value
            poly = ComplexBiPolynomial(1, terms)
        if len(self._cache) < 4096:
            self._cache[index] = poly
        return poly

    def index_of_exact(self, terms):
        """Index of the polynomial with the given {((s,),(t,)): (re Fraction,
        im Fraction)} terms."""
        pairs = []
        for key, (re, im) in terms.items():
            if re == 0 and im == 0:
                continue
            code = cantor_pair(encode_rational(re), encode_rational(im))
            pairs.append((self._rank_bidegree(key), code))
        if not pairs:
            return 1
        pairs.sort()
        return _encode_term_list(pairs) + 2

    def index_of(self, poly):
        if poly.dim != 1:
            raise ValueError("variable count mismatch")
        terms = {}
        for key, c in poly.terms.items():
            if isinstance(c, ExactComplex):
                terms[key] = (c.re, c.im)
            else:
                c = complex(c)
                terms[key] = (Fraction(c.real), Fraction(c.imag))
        return self.index_of_exact(terms)

    def find_index(self, profile, tol, grid, max_denominator_exponent=60):
        if profile.dim != 1:
            raise ValueError("variable count mismatch")
        grid = np.asarray(grid, dtype=complex).reshape(-1, 1)
        target = profile.eval_many(grid)
        coeffs = {key: complex(c) for key, c in profile.terms.items()}
        for j in range(max_denominator_exponent + 1):
            denom = 1 << j
            terms = {}
            for key, c in coeffs.items():
                terms[key] = (Fraction(round(c.real * denom), denom),
                              Fraction(round(c.imag * denom), denom))
            candidate = ComplexBiPolynomial(1, {
                key: ExactComplex(re, im) for key, (re, im) in terms.items()
            })
            values = candidate.eval_many(grid)
            if np.max(np.abs(values - target)) <= tol:
                return self.index_of_exact(terms), candidate
        raise ValueError("no dictionary entry within tolerance; raise the denominator bound")


# ---------------------------------------------------------------------------
# Activations


def tau_eval(dictionary, x):
    """Activation value at x in R^ell: the dictionary polynomial of the nearest
    cell, faded out smoothly away from the cell ball.  The m = 0 cell is zero."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = round(x[0] / CELL_SPACING)
    if m <= 0:
        shifted = x - np.array([CELL_SPACING * m] + [0.0] * (len(x) - 1))
        return 0.0 * _blend_weight(np.linalg.norm(shifted))
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
    """Complex activation: phi(z + 3m) = u_m(z) on the unit square cell."""
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


class GTNetwork:
    """Shallow generalized-translation network sum c_k tau(A_k x + b_k)."""

    def __init__(self, ell, d, units, dictionary):
        self.ell = ell
        self.d = d
        self.units = units  # list of dicts: A, b (in-cell bias), c, dict_index
        self.dictionary = dictionary

    @property
    def n(self):
        return len(self.units)

    def eval_many(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(points.shape[0])
        for unit in self.units:
            local = points @ unit["A"].T + unit["b"]
            poly = self.dictionary.polynomial_at(unit["dict_index"]).map_coefficients(float)
            values = poly.eval_many(local)
            radii = np.linalg.norm(local, axis=1)
            weights = _blend_weight(radii)
            out += unit["c"] * weights * values
        return out

    __call__ = eval_many

    def to_json_dict(self):
        return {
            "type": "gtn",
            "ell": self.ell,
            "d": self.d,
            "units": [
                {
                    "A": u["A"].tolist(),
                    "b": u["b"].tolist(),
                    "c": u["c"],
                    "dict_index": hex(u["dict_index"]),
                }
                for u in self.units
            ],
        }

    @classmethod
    def from_json_dict(cls, obj, dictionary):
        units = [
            {
                "A": np.asarray(u["A"], dtype=float),
                "b": np.asarray(u["b"], dtype=float),
                "c": float(u["c"]),
                "dict_index": int(u["dict_index"], 16),
            }
            for u in obj["units"]
        ]
        return cls(obj["ell"], obj["d"], units, dictionary)


class CVNNetwork:
    """Shallow complex-valued network sum gamma_k phi(alpha_k . z + beta_k)."""

    def __init__(self, d, units, dictionary):
        self.d = d
        self.units = units  # list of dicts: alpha, beta (in-cell bias), gamma, dict_index
        self.dictionary = dictionary

    @property
    def n(self):
        return len(self.units)

    def eval_many(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=complex))
        out = np.zeros(points.shape[0], dtype=complex)
        for unit in self.units:
            local = points @ unit["alpha"] + unit["beta"]
            poly = self.dictionary.polynomial_at(unit["dict_index"])
            values = poly.eval_many(local[:, None])
            weights = _blend_weight(np.abs(local.real)) * _blend_weight(np.abs(local.imag))
            out += unit["gamma"] * weights * values
        return out

    __call__ = eval_many

    def to_json_dict(self):
        return {
            "type": "cvnn",
            "ell": 1,
            "d": self.d,
            "units": [
                {
                    "alpha": [{"re": a.real, "im": a.imag} for a in u["alpha"]],
                    "beta": {"re": u["beta"].real, "im": u["beta"].imag},
                    "gamma": {"re": complex(u["gamma"]).real, "im": complex(u["gamma"]).imag},
                    "dict_index": hex(u["dict_index"]),
                }
                for u in self.units
            ],
        }

    @classmethod
    def from_json_dict(cls, obj, dictionary):
        units = [
            {
                "alpha": np.array([complex(a["re"], a["im"]) for a in u["alpha"]]),
                "beta": complex(u["beta"]["re"], u["beta"]["im"]),
                "gamma": complex(u["gamma"]["re"], u["gamma"]["im"]),
                "dict_index": int(u["dict_index"], 16),
            }
            for u in obj["units"]
        ]
        return cls(obj["d"], units, dictionary)


def _profile_grid(ell, count=400, seed=123):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, ell))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.random((count, 1)) ** (1.0 / ell)
    return pts


def gtn_from_decomposition(decomp, dictionary, tol):
    """Network with one unit per ridge block: the profile is rounded into the
    dictionary and the unit's bias shifts into that entry's cell, so the
    network matches the ridge sum within n * tol on the ball."""
    if dictionary.var_count != decomp.ell:
        raise ValueError("dictionary variable count must match ell")
    grid = _profile_grid(decomp.ell)
    units = []
    for A, P in zip(decomp.matrices, decomp.profiles):
        index, _ = dictionary.find_index(P, tol, grid)
        units.append({
            "A": np.asarray(A, dtype=float),
            "b": np.zeros(decomp.ell),
            "c": 1.0,
            "dict_index": index,
        })
    return GTNetwork(decomp.ell, decomp.d, units, dictionary)


def cvnn_from_decomposition(cdecomp, dictionary, tol):
    rng = np.random.default_rng(321)
    angles = 2 * math.pi * rng.random(400)
    radii = np.sqrt(rng.random(400))
    grid = radii * np.exp(1j * angles)
    units = []
    for alpha, P in zip(cdecomp.vectors, cdecomp.profiles):
        index, _ = dictionary.find_index(P, tol, grid)
        units.append({
            "alpha": np.asarray(alpha, dtype=complex),
            "beta": 0j,
            "gamma": 1.0,
            "dict_index": index,
        })
    return CVNNetwork(cdecomp.d, units, dictionary)
