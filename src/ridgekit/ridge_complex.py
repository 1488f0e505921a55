"""Wirtinger polynomial calculus and complex ridge decomposition.

Polynomials in z and conj(z) are differentiated termwise as polynomials in
the 2d variables (z, conj z), so the monomial pairing identities hold exactly
in rational arithmetic.  The decomposition expresses every bidegree component of
a polynomial on C^d in the span of powers (a_j . z)^s (conj(a_j . z))^t of
certified directions, yielding univariate profiles in (w, conj(w)).  As in
the real case, the direction set holds its powers in plain double with one
least-norm factor per bidegree, and the decomposition's `residual`, the
plain-double bound on its coefficient mismatch that decides the gate, bounds
the sup error on the unit ball of C^d because |z^k conj(z)^l| <= 1 there.
"""

import math
from fractions import Fraction

import numpy as np

from .polycore import (ComplexBiPolynomial, ExactComplex, MultiIndex, _as_exact,
                       _conj, _homogeneous_exponents, dim_complex_bihomogeneous, grlex_key)
from .ridge_real import (CLOUD_FACTOR, PowerSpan, ProfileRows, SpanningError, _Directions,
                         _RidgeSum, certified_solve, lifted_power_matrix, pick_directions,
                         unit_cloud)


def wirtinger_derivative(P, kind, j):
    """Single Wirtinger derivative: kind 'holomorphic' lowers the z-exponent
    of variable j, 'antiholomorphic' lowers the conj(z)-exponent."""
    if not 1 <= j <= P.dim:
        raise ValueError(f"variable index {j} out of range")
    if kind not in ("holomorphic", "antiholomorphic"):
        raise ValueError("kind must be 'holomorphic' or 'antiholomorphic'")
    # the derivative in one of the 2 dim variables (z, conj z)
    pos = j - 1 if kind == "holomorphic" else P.dim + j - 1
    out = {}
    for k, c in P._terms.items():
        if k[pos]:
            lowered = k[:pos] + (k[pos] - 1,) + k[pos + 1:]
            out[lowered] = out.get(lowered, 0) + c * k[pos]
    return ComplexBiPolynomial._from_flat(P.dim, out)


def apply_wirtinger(P, k, l):
    """Iterated operator: d^k dbar^l applied to P."""
    out = P
    for j, e in enumerate(k, start=1):
        for _ in range(e):
            out = wirtinger_derivative(out, "holomorphic", j)
    for j, e in enumerate(l, start=1):
        for _ in range(e):
            out = wirtinger_derivative(out, "antiholomorphic", j)
    return out


def verify_wirtinger_monomial_identity(k, l, k_prime, l_prime):
    """Exact check that d^k dbar^l (z^k' conj(z)^l') equals the indicator
    1[(k,l) = (k',l')] times k! l!, for equal-order index pairs."""
    k, l, k_prime, l_prime = map(tuple, (k, l, k_prime, l_prime))
    if sum(k) != sum(k_prime) or sum(l) != sum(l_prime):
        raise ValueError("identity requires |k| = |k'| and |l| = |l'|")
    mono = ComplexBiPolynomial(len(k), {(k_prime, l_prime): 1})
    result = apply_wirtinger(mono, k, l)
    if (k, l) == (k_prime, l_prime):
        expected = ComplexBiPolynomial.constant(len(k), MultiIndex(k).factorial()
                                                * MultiIndex(l).factorial())
    else:
        expected = ComplexBiPolynomial.zero(len(k))
    return result == expected


def _power_pair(a, s, t, dim):
    """(a . z)^s (conj(a . z))^t as a ComplexBiPolynomial, coefficients exact
    when the entries of a are exact."""
    units = [tuple(int(i == j) for i in range(2 * dim)) for j in range(dim)]
    lin = ComplexBiPolynomial._from_flat(dim, dict(zip(units, a)))  # a . z
    pair = ComplexBiPolynomial(1, {((s,), (t,)): _one_like(a)})  # w^s conj(w)^t
    return pair.substitute([lin, lin.conjugate()])


def _one_like(a):
    return ExactComplex(1, 0) if any(isinstance(x, ExactComplex) for x in a) else 1


def verify_power_identity(a, k, l):
    """Check d^k dbar^l ((a.z)^s (conj(a.z))^t) = s! t! a^k conj(a)^l with
    s = |k|, t = |l|; exact for ExactComplex/rational entries, to a relative
    1e-10 for floats."""
    k, l = tuple(k), tuple(l)
    dim = len(k)
    if len(l) != dim or len(a) != dim:
        raise ValueError("dimension mismatch")
    s, t = sum(k), sum(l)
    power = _power_pair(list(a), s, t, dim)
    result = apply_wirtinger(power, k, l).terms.get(((0,) * dim, (0,) * dim), 0)
    expected = _one_like(a) * math.factorial(s) * math.factorial(t)
    for i in range(dim):
        for _ in range(k[i]):
            expected = expected * a[i]
        for _ in range(l[i]):
            expected = expected * _conj(a[i])
    exact = any(isinstance(x, ExactComplex) for x in a) or all(
        isinstance(x, (int, Fraction)) for x in a)
    if exact:
        diff = _as_exact(result) - _as_exact(expected)
        return diff.re == 0 and diff.im == 0
    return abs(complex(result) - complex(expected)) <= 1e-10 * (1 + abs(complex(expected)))


def bidegree_power_matrix(vectors, s, t):
    """Rows: coefficient vectors of (a_j . z)^s (conj(a_j . z))^t over the
    monomial pairs (k, l) with |k| = s, |l| = t: the products of the
    `lifted_power_matrix` rows of the vectors at s and of their conjugates at t."""
    vectors = np.asarray(vectors, dtype=complex)
    rows = np.einsum("na,nb->nab", lifted_power_matrix(vectors, s),
                     lifted_power_matrix(np.conj(vectors), t))
    d = vectors.shape[1]
    return rows.reshape(vectors.shape[0], -1), [
        (k, l) for k in _homogeneous_exponents(d, s) for l in _homogeneous_exponents(d, t)]


class ComplexDirectionSet(_Directions):
    """Unit vectors in C^d whose powers span the bidegree-(s, t) space.

    The vectors are copied and frozen.  `span` holds the powers
    (a_j . z)^s' (conj(a_j . z))^t' for every bidegree (s', t') <= (s, t), in
    the lexicographic order of `bidegrees`, with one row per monomial pair
    (k, l) of that bidegree, and `blocks[b]` factors bidegree `bidegrees[b]`.
    `_flat_rows` maps the flat key k + l of each pair to its row, and
    `_profile_order` lists the blocks by grlex order of their bidegrees, with
    `_profile_keys` those bidegrees as MultiIndex keys."""

    def __init__(self, d, s, t, vectors):
        self.d = int(d)
        self.s = int(s)
        self.t = int(t)
        super().__init__(vectors, self.d, complex)
        self.bidegrees = tuple((sp, tp) for sp in range(self.s + 1) for tp in range(self.t + 1))
        # an entry of bidegree (s', t') takes s' + t' + 1 rounded products:
        # s' and t' for the two halves with their factors, one for their product
        powers = [bidegree_power_matrix(self.vectors, sp, tp) for sp, tp in self.bidegrees]
        self.span = PowerSpan([key for _, keys in powers for key in keys],
                              np.repeat(np.arange(len(powers)), [len(keys) for _, keys in powers]),
                              np.vstack([rows.T for rows, _ in powers]), self.s + self.t + 1)
        self._flat_rows = {k + l: r for (k, l), r in self.span.rows.items()}
        self._profile_order = sorted(range(len(self.bidegrees)),
                                     key=lambda b: grlex_key(self.bidegrees[b]))
        self._profile_keys = tuple(MultiIndex(self.bidegrees[b]) for b in self._profile_order)


def sample_complex_directions(d, s, t, n, seed=0):
    """Unit directions in C^d certified to span the bidegree-(s, t)
    homogeneous space, picked by `pick_directions` from CLOUD_FACTOR * n
    random unit vectors."""
    required = dim_complex_bihomogeneous(d, s, t)
    if n < required:
        raise ValueError(f"need at least {required} directions, got {n}")
    cloud = unit_cloud(np.random.default_rng(seed), CLOUD_FACTOR * n, d, complex)
    dirs = ComplexDirectionSet(
        d, s, t, pick_directions(cloud, bidegree_power_matrix(cloud, s, t)[0], n))
    rank = dirs.blocks[-1].rank
    if rank < required:
        raise SpanningError(
            f"picked directions have bidegree-({s}, {t}) rank {rank} of {required}")
    return dirs


class ComplexRidgeDecomposition(_RidgeSum):
    """Represents z -> sum_j P_j(a_j . z) with univariate (w, conj w)
    profiles, the vectors a_j read-only in the (n, d) array `vectors`."""

    _dtype, _key, _profile, _header = complex, "alpha", ComplexBiPolynomial, ("d",)

    def __init__(self, d, vectors, profiles, residual=None):
        self.d = int(d)
        super().__init__(vectors, profiles, residual, (self.d,), "vector")
        self.vectors = self._maps

    @staticmethod
    def _unit_input(points, a):
        """The flat profile input (w, conj w), w = a . z."""
        w = (points @ a)[:, None]
        return np.hstack([w, np.conj(w)])

    def eval_many(self, points):
        return self._sum(points)

    __call__ = eval_many


def complex_decompose(P, dirs):
    """Decompose P in P_s(C^d) along directions certified at bidegree (s, s).

    Directions spanning at (s, s) span every lower bidegree, so each bidegree
    component of P is solved independently by the set's least-norm factor.
    The coefficient mismatch, a bound on the sup error over the unit ball,
    must not exceed ridge_real.RESIDUAL_TOLERANCE * (1 + max|P|), with the
    maximum taken at the origin and at the points u e_j, u in {1, i, -1, -i},
    read from P's coefficients (a lower bound of the sup of |P| over the
    ball).  The decomposition's `residual` is that bound, `PowerSpan.bound`
    (see `ridge_real.certified_solve`).
    """
    s = dirs.s
    if dirs.t != s:
        raise ValueError("direction set must be certified at bidegree (s, s)")
    if P.dim != dirs.d:
        raise ValueError("polynomial dimension mismatch")
    if P.holomorphic_degree() > s or P.antiholomorphic_degree() > s:
        raise ValueError("polynomial degrees exceed the certified bidegree")
    d = P.dim

    terms, count = P._terms, len(P._terms)
    rhs = np.zeros((len(dirs.span.rows), 1), dtype=complex)
    rhs[np.fromiter(map(dirs._flat_rows.__getitem__, terms), np.intp, count), 0] = np.fromiter(
        terms.values(), complex, count)
    solutions, residual = certified_solve(dirs.span, rhs, P.axis_values(),
                                          (f"bidegree {bidegree}" for bidegree in dirs.bidegrees))

    # profile keys (s', t'); `bidegrees` is lexicographic, profiles keep grlex order
    return ComplexRidgeDecomposition(
        d, dirs.vectors, ProfileRows(1, dirs._profile_keys,
                                     np.hstack(solutions)[:, dirs._profile_order]), residual)


def realify(f):
    """Convert a real polynomial on R^(2d) (first d slots = real parts, last d
    = imaginary parts) into the equivalent polynomial in (z, conj z) on C^d.

    Substitutes x_j = (z_j + conj z_j)/2 and x_(d+j) = (z_j - conj z_j)/(2i);
    exact when f has int/Fraction coefficients.
    """
    if f.dim % 2 != 0:
        raise ValueError("ambient dimension must be even")
    d = f.dim // 2
    exact = all(isinstance(c, (int, Fraction)) for c in f.terms.values())
    half, minus_i_half = ((ExactComplex(Fraction(1, 2)), ExactComplex(0, Fraction(-1, 2)))
                          if exact else (complex(0.5), complex(0, -0.5)))
    # w + conj(w) with w = z_j / 2 gives x_j, with w = -i z_j / 2 gives x_(d+j)
    units = [tuple(int(i == j) for i in range(2 * d)) for j in range(2 * d)]
    bases = [ComplexBiPolynomial._from_flat(d, {units[j]: w, units[d + j]: _conj(w)})
             for w in (half, minus_i_half) for j in range(d)]
    return f.map_coefficients(ExactComplex if exact else complex).substitute(bases)
