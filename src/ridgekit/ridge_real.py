"""Exact decomposition of polynomials into sums of few-variable ridge terms.

A degree-s polynomial on R^d is written as sum_k P_k(A_k x) with A_k of shape
(ell, d) and ell-variate polynomial profiles P_k.  The construction splits the
variables into a leading block of m = d - ell + 1 and a trailing block of
ell - 1, expresses every leading-block component in the span of powers of
certified spanning directions, and assembles block matrices whose top row is
a direction and whose lower-right block is the identity.
"""

import math

import numpy as np

from .polycore import (MultiIndexPolynomial, dim_homogeneous, monomial_table,
                       monomials_up_to, _homogeneous_exponents)
from .quadrature import ball_sup_grid

RANK_TOLERANCE = 1e-10
DEFAULT_RETRIES = 50


class SpanningError(RuntimeError):
    """Raised when no spanning direction set is found within the retry budget."""


class DecompositionError(RuntimeError):
    """Raised when the reconstructed ridge sum misses the target polynomial."""


def _multinomial(total, exponents):
    out = math.factorial(total)
    for e in exponents:
        out //= math.factorial(e)
    return out


def lifted_power_matrix(vectors, s):
    """Rows: coefficient vectors of (a_i . x)^s over the homogeneous degree-s
    monomials of R^m (with multinomial factors)."""
    vectors = np.asarray(vectors, dtype=float)
    exps = _homogeneous_exponents(vectors.shape[1], s)
    factors = np.array([_multinomial(s, k) for k in exps], dtype=float)
    return factors * monomial_table(exps, vectors).T


def spanning_rank(vectors, s, tol=RANK_TOLERANCE):
    """Numerical rank of the lifted s-fold powers, plus the condition number."""
    lifted = lifted_power_matrix(vectors, s)
    svals = np.linalg.svd(lifted, compute_uv=False)
    top = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > tol * top)) if top > 0 else 0
    smallest = svals[min(len(svals), lifted.shape[1]) - 1] if rank else 0.0
    cond = float(top / smallest) if smallest > 0 else math.inf
    return rank, cond


class DirectionSet:
    """Unit vectors in R^m whose s-fold powers span the homogeneous space."""

    def __init__(self, m, s, vectors, condition_number=None):
        self.m = int(m)
        self.s = int(s)
        self.vectors = np.asarray(vectors, dtype=float)
        self.vectors.setflags(write=False)
        self.condition_number = condition_number

    @property
    def count(self):
        return self.vectors.shape[0]


def sample_spanning_directions(m, s, n, seed=0, tol=RANK_TOLERANCE,
                               max_retries=DEFAULT_RETRIES):
    """Random unit directions certified to span the degree-s homogeneous space."""
    required = dim_homogeneous(m, s)
    if n < required:
        raise ValueError(f"need at least {required} directions, got {n}")
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        vectors = rng.standard_normal((n, m))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        rank, cond = spanning_rank(vectors, s, tol)
        if rank == required:
            return DirectionSet(m, s, vectors, condition_number=cond)
    raise SpanningError(
        f"no spanning set of {n} directions in {max_retries} tries "
        f"(m={m}, s={s}; check the rank tolerance)")


def build_block_matrices(dirs, d, ell):
    """A_i = [a_i^T | 0 ; 0 | I_(ell-1)], mapping R^d -> R^ell."""
    if dirs.m != d - ell + 1:
        raise ValueError(f"direction dimension {dirs.m} != d - ell + 1 = {d - ell + 1}")
    m = dirs.m
    mats = []
    for a in dirs.vectors:
        A = np.zeros((ell, d))
        A[0, :m] = a
        if ell > 1:
            A[1:, m:] = np.eye(ell - 1)
        mats.append(A)
    return mats


class RidgeDecomposition:
    """Represents x -> sum_k P_k(A_k x) with ell-variate profiles P_k."""

    def __init__(self, d, ell, matrices, profiles):
        if len(matrices) != len(profiles):
            raise ValueError("matrix/profile count mismatch")
        self.d = int(d)
        self.ell = int(ell)
        self.matrices = [np.asarray(A, dtype=float) for A in matrices]
        for A in self.matrices:
            if A.shape != (self.ell, self.d):
                raise ValueError(f"matrix shape {A.shape}, expected {(self.ell, self.d)}")
            A.setflags(write=False)
        self.profiles = list(profiles)

    @property
    def count(self):
        return len(self.matrices)

    def eval_many(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(points.shape[0])
        for A, P in zip(self.matrices, self.profiles):
            out += P.eval_many(points @ A.T)
        return out

    __call__ = eval_many

    def to_json_dict(self):
        return {
            "d": self.d,
            "ell": self.ell,
            "blocks": [
                {"A": A.tolist(), "P": P.to_json_dict()}
                for A, P in zip(self.matrices, self.profiles)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj):
        mats = [b["A"] for b in obj["blocks"]]
        profs = [MultiIndexPolynomial.from_json_dict(b["P"]) for b in obj["blocks"]]
        return cls(obj["d"], obj["ell"], mats, profs)


def eval_ridge(decomp, x):
    return float(decomp.eval_many(np.asarray(x, dtype=float)[None, :])[0])


def decompose(P, dirs, d, ell, grid_size=512, residual_tol=1e-8):
    """Decompose P (degree <= dirs.s) into ridge terms along dirs.

    The leading-block components of P, grouped by trailing-block exponent, are
    expressed in span{(a_i . x)^j : j <= s} by a least-norm solve; the profile
    of unit i collects those power coefficients together with the trailing
    variables, which the block matrix passes through unchanged.
    """
    if not 1 <= ell < d:
        raise ValueError("need 1 <= ell < d")
    m = d - ell + 1
    if dirs.m != m:
        raise ValueError("direction set dimension mismatch")
    s = dirs.s
    if P.dim != d:
        raise ValueError("polynomial dimension mismatch")
    if P.degree() > s:
        raise ValueError(f"polynomial degree {P.degree()} exceeds direction degree {s}")
    n = dirs.count

    # group terms by the trailing-block exponent
    groups = {}
    for K, c in P.terms.items():
        head, tail = tuple(K[:m]), tuple(K[m:])
        groups.setdefault(tail, {})[head] = c

    head_exps = monomials_up_to(m, s)
    head_index = {k: i for i, k in enumerate(head_exps)}

    # columns: coefficient vectors of (a_i . x)^j for i < n, 0 <= j <= s
    columns = np.zeros((len(head_exps), n * (s + 1)))
    for j in range(s + 1):
        exps_j = _homogeneous_exponents(m, j)
        block = lifted_power_matrix(dirs.vectors, j) if j > 0 else np.ones((n, 1))
        for col_local, k in enumerate(exps_j):
            columns[head_index[k], j * n: (j + 1) * n] = block[:, col_local]

    tails = sorted(groups, key=lambda t: (sum(t), t))
    rhs = np.zeros((len(head_exps), max(1, len(tails))))
    for col, tail in enumerate(tails):
        for head, c in groups[tail].items():
            rhs[head_index[head], col] = float(c)
    solution, *_ = np.linalg.lstsq(columns, rhs, rcond=None)

    profiles = []
    for i in range(n):
        terms = {}
        for col, tail in enumerate(tails):
            for j in range(s + 1):
                coeff = solution[j * n + i, col]
                if coeff != 0.0:
                    terms[(j,) + tail] = terms.get((j,) + tail, 0.0) + coeff
        profiles.append(MultiIndexPolynomial(ell, terms))

    matrices = build_block_matrices(dirs, d, ell)
    decomp = RidgeDecomposition(d, ell, matrices, profiles)

    grid = ball_sup_grid(d, grid_size)
    target = P.eval_many(grid)
    residual = float(np.max(np.abs(decomp.eval_many(grid) - target)))
    scale = 1.0 + float(np.max(np.abs(target)))
    if residual > residual_tol * scale:
        raise DecompositionError(
            f"ridge reconstruction residual {residual:.3e} exceeds tolerance "
            f"(direction condition number {dirs.condition_number})")
    decomp.residual = residual
    return decomp


def orthonormalize_rows(A, profile):
    """Row-orthonormalize A via compact SVD, absorbing the row action into the
    profile: A = U S V^T gives A' = V^T and P'(y) = P(U S y), so that
    P(A x) = P'(A' x) pointwise."""
    A = np.asarray(A, dtype=float)
    ell = A.shape[0]
    U, svals, Vt = np.linalg.svd(A, full_matrices=False)
    new_profile = profile.compose_linear(U * svals)
    return Vt, new_profile
