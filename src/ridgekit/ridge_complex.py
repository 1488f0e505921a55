"""Wirtinger polynomial calculus and complex ridge decomposition.

Polynomials in z and conj(z) are differentiated termwise as polynomials in
the 2d variables (z, conj z), so the monomial pairing identities hold exactly
in rational arithmetic.  The decomposition expresses every bidegree component of
a polynomial on C^d in the span of powers (a_j . z)^s (conj(a_j . z))^t of
certified directions, yielding univariate profiles in (w, conj(w)).  As in
the real case, the direction set holds one least-norm factor per bidegree and
the residual, the l1 norm of the coefficient mismatch plus a bound on its
rounding, bounds the sup error on the unit ball of C^d because
|z^k conj(z)^l| <= 1 there.
"""

import math
from fractions import Fraction

import numpy as np

from .compensated import dd_monomials, dd_mul
from .polycore import (ComplexBiPolynomial, ExactComplex, MultiIndex, _as_exact,
                       _conj, _homogeneous_exponents, _polynomials_from_rows,
                       dim_complex_bihomogeneous, grlex_key, monomial_table,
                       monomials_up_to)
from .ridge_real import (DEFAULT_RETRIES, RANK_TOLERANCE, PowerSpan, SpanningError,
                         _multinomial, certify)


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


def _constant_term(P):
    zero = ((0,) * P.dim, (0,) * P.dim)
    return P.terms.get(zero, 0)


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
    zero = (0,) * dim
    lin = ComplexBiPolynomial(dim, {
        (tuple(1 if j == i else 0 for j in range(dim)), zero): a[i]
        for i in range(dim)
    })
    lin_bar = lin.conjugate()
    out = ComplexBiPolynomial.constant(dim, _one_like(a))
    for _ in range(s):
        out = out * lin
    for _ in range(t):
        out = out * lin_bar
    return out


def _one_like(a):
    return ExactComplex(1, 0) if any(isinstance(x, ExactComplex) for x in a) else 1


def verify_power_identity(a, k, l, tol=1e-10):
    """Check d^k dbar^l ((a.z)^s (conj(a.z))^t) = s! t! a^k conj(a)^l with
    s = |k|, t = |l|; exact for ExactComplex/rational entries, to `tol` for
    floats."""
    k, l = tuple(k), tuple(l)
    dim = len(k)
    if len(l) != dim or len(a) != dim:
        raise ValueError("dimension mismatch")
    s, t = sum(k), sum(l)
    power = _power_pair(list(a), s, t, dim)
    result = _constant_term(apply_wirtinger(power, k, l))
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
    return abs(complex(result) - complex(expected)) <= tol * (1 + abs(complex(expected)))


def apply_differential_operator(Q, P):
    """Test-only pairing Q(D)P: sum over the terms a z^k conj(z)^l of Q of
    a * d^k dbar^l P."""
    if Q.dim != P.dim:
        raise ValueError("dimension mismatch")
    out = ComplexBiPolynomial.zero(P.dim)
    for (k, l), c in Q.terms.items():
        out = out + apply_wirtinger(P, k, l).scale(c)
    return out


def bidegree_power_matrix(vectors, s, t):
    """Rows: coefficient vectors of (a_j . z)^s (conj(a_j . z))^t over the
    monomial pairs (k, l) with |k| = s, |l| = t (multinomial factors folded in)."""
    vectors = np.asarray(vectors, dtype=complex)
    d = vectors.shape[1]
    k_exps = _homogeneous_exponents(d, s)
    l_exps = _homogeneous_exponents(d, t)
    k_factors = np.array([_multinomial(s, k) for k in k_exps], dtype=float)
    l_factors = np.array([_multinomial(t, l) for l in l_exps], dtype=float)
    k_cols = k_factors * monomial_table(k_exps, vectors).T
    l_cols = l_factors * monomial_table(l_exps, np.conj(vectors)).T
    rows = np.einsum("na,nb->nab", k_cols, l_cols)
    return rows.reshape(vectors.shape[0], -1), [(k, l) for k in k_exps for l in l_exps]


class ComplexDirectionSet:
    """Unit vectors in C^d whose powers span the bidegree-(s, t) space.

    The vectors are copied and frozen.  `span` holds the powers
    (a_j . z)^s' (conj(a_j . z))^t' for every bidegree (s', t') <= (s, t), in
    the lexicographic order of `bidegrees`, with one row per monomial pair
    (k, l) of that bidegree, and `blocks[b]` factors bidegree `bidegrees[b]`.
    `tol` is the relative rank tolerance of the blocks."""

    def __init__(self, d, s, t, vectors, tol=RANK_TOLERANCE):
        self.d = int(d)
        self.s = int(s)
        self.t = int(t)
        self.vectors = np.array(vectors, dtype=complex)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.d:
            raise ValueError(f"vectors must have shape (n, {self.d})")
        self.vectors.setflags(write=False)
        self.bidegrees = tuple((sp, tp) for sp in range(self.s + 1) for tp in range(self.t + 1))
        # the z-part and the conj(z)-part of every power, then their products
        halves = []
        for top, points in ((self.s, self.vectors), (self.t, np.conj(self.vectors))):
            exps = monomials_up_to(self.d, top)
            factors = np.array([_multinomial(sum(e), e) for e in exps], dtype=float)
            rows = {e: r for r, e in enumerate(exps)}
            halves.append((rows, dd_monomials(np.array(exps, dtype=np.intp).reshape(-1, self.d),
                                              points, factors)))
        (k_rows, k_part), (l_rows, l_part) = halves
        keys, blocks, high, low = [], [], [], []
        for b, (sp, tp) in enumerate(self.bidegrees):
            pairs = [(k, l) for k in _homogeneous_exponents(self.d, sp)
                     for l in _homogeneous_exponents(self.d, tp)]
            k_index = [k_rows[k] for k, _ in pairs]
            l_index = [l_rows[l] for _, l in pairs]
            hi, lo = dd_mul(tuple(a[k_index] for a in k_part), tuple(a[l_index] for a in l_part))
            keys.extend(pairs)
            blocks.extend([b] * len(pairs))
            high.append(hi)
            low.append(lo)
        self.span = PowerSpan(keys, blocks, (np.vstack(high), np.vstack(low)),
                              self.s + self.t + 1, tol)

    @property
    def blocks(self):
        return self.span.blocks

    @property
    def count(self):
        return self.vectors.shape[0]

    @property
    def condition_number(self):
        """Condition number of the bidegree-(s, t) powers."""
        return self.blocks[-1].condition


def sample_complex_directions(d, s, t, n, seed=0, tol=RANK_TOLERANCE,
                              max_retries=DEFAULT_RETRIES):
    """Random unit directions in C^d certified to span the bidegree-(s, t)
    homogeneous space."""
    required = dim_complex_bihomogeneous(d, s, t)
    if n < required:
        raise ValueError(f"need at least {required} directions, got {n}")
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        vectors = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        dirs = ComplexDirectionSet(d, s, t, vectors, tol)
        if dirs.blocks[-1].rank == required:
            return dirs
    raise SpanningError(f"no spanning complex directions (d={d}, s={s}, t={t})")


class ComplexRidgeDecomposition:
    """Represents z -> sum_j P_j(a_j . z) with univariate (w, conj w) profiles."""

    def __init__(self, d, vectors, profiles):
        self.d = int(d)
        self.vectors = np.asarray(vectors, dtype=complex)
        self.profiles = list(profiles)
        if self.vectors.shape[0] != len(self.profiles):
            raise ValueError("vector/profile count mismatch")

    @property
    def count(self):
        return len(self.profiles)

    def eval_many(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=complex))
        out = np.zeros(points.shape[0], dtype=complex)
        for a, P in zip(self.vectors, self.profiles):
            out += P.eval_many((points @ a)[:, None])
        return out

    __call__ = eval_many

    def to_json_dict(self):
        return {
            "d": self.d,
            "blocks": [
                {
                    "alpha": [{"re": a.real, "im": a.imag} for a in vec],
                    "P": P.to_json_dict(),
                }
                for vec, P in zip(self.vectors, self.profiles)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj):
        vectors = [
            [complex(a["re"], a["im"]) for a in block["alpha"]]
            for block in obj["blocks"]
        ]
        profiles = [ComplexBiPolynomial.from_json_dict(block["P"])
                    for block in obj["blocks"]]
        return cls(obj["d"], vectors, profiles)


def complex_sup_grid(d, count, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    pts /= norms
    pts *= rng.random((count, 1)) ** (1.0 / (2 * d))
    return pts


def complex_decompose(P, dirs, grid_size=512, residual_tol=1e-8):
    """Decompose P in P_s(C^d) along directions certified at bidegree (s, s).

    Directions spanning at (s, s) span every lower bidegree, so each bidegree
    component of P is solved independently by the set's least-norm factor.
    `residual` is the certificate of `PowerSpan.solve`, a bound on the sup
    error over the unit ball; it must not exceed residual_tol * (1 + max|P|)
    on a grid_size-point grid.
    """
    s = dirs.s
    if dirs.t != s:
        raise ValueError("direction set must be certified at bidegree (s, s)")
    if P.dim != dirs.d:
        raise ValueError("polynomial dimension mismatch")
    if P.holomorphic_degree() > s or P.antiholomorphic_degree() > s:
        raise ValueError("polynomial degrees exceed the certified bidegree")
    d = P.dim

    rows = dirs.span.rows
    rhs = np.zeros((len(rows), 1), dtype=complex)
    for key, c in P.terms.items():
        rhs[rows[key]] = complex(c)
    solutions, certificate = dirs.span.solve(rhs)
    certify(certificate, P.eval_many(complex_sup_grid(d, grid_size)), residual_tol,
            dirs.blocks, [f"bidegree {bidegree}" for bidegree in dirs.bidegrees])

    # profile keys (s', t'); `bidegrees` is lexicographic, profiles keep grlex order
    order = sorted(range(len(dirs.bidegrees)), key=lambda b: grlex_key(dirs.bidegrees[b]))
    keys = [MultiIndex(dirs.bidegrees[b]) for b in order]
    profiles = _polynomials_from_rows(ComplexBiPolynomial, 1, keys,
                                      np.hstack(solutions)[:, order])
    decomp = ComplexRidgeDecomposition(d, dirs.vectors, profiles)
    decomp.residual = certificate
    return decomp


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
    half = Fraction(1, 2) if exact else 0.5
    zero = (0,) * d

    def base(j, factor):
        # w + conj(w) with w = z_j / 2 gives x_j, with w = -i z_j / 2 gives x_(d+j)
        e_j = tuple(1 if i == j else 0 for i in range(d))
        w = ComplexBiPolynomial(d, {(e_j, zero): factor})
        return w + w.conjugate()

    re_half, im_half = ((ExactComplex(half, 0), ExactComplex(0, -half)) if exact
                        else (complex(half), complex(0, -half)))
    bases = [base(j, re_half) for j in range(d)] + [base(j, im_half) for j in range(d)]
    out = ComplexBiPolynomial.zero(d)
    for K, c in f.terms.items():
        coeff = (ExactComplex(Fraction(c), 0) if exact else complex(c))
        term = ComplexBiPolynomial.constant(d, coeff)
        for pos, e in enumerate(K):
            for _ in range(e):
                term = term * bases[pos]
        out = out + term
    return out
