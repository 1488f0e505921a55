"""Exact decomposition of polynomials into sums of few-variable ridge terms.

A degree-s polynomial on R^d is written as sum_k P_k(A_k x) with A_k of shape
(ell, d) and ell-variate polynomial profiles P_k.  The construction splits the
variables into a leading block of m = d - ell + 1 and a trailing block of
ell - 1, expresses every leading-block component in the span of powers of
certified spanning directions, and assembles block matrices whose top row is
a direction and whose lower-right block is the identity.

A direction set factors its power span once, one degree block at a time, so a
decomposition is a scatter of P's coefficients and one matmul per block.  Its
`residual` is the l1 norm of the coefficient mismatch, computed from power
columns held in double-double, plus a bound on the rounding in computing it;
it bounds the sup error on the unit ball because every monomial is at most 1
in modulus there.
"""

import math
from typing import NamedTuple

import numpy as np

from .compensated import U, dd_monomials, residual_dot
from .polycore import (ZERO_PRUNE_FLOAT, MultiIndex, MultiIndexPolynomial,
                       dim_homogeneous, grlex_key, monomial_table, monomials_up_to,
                       _homogeneous_exponents, _polynomials_from_rows)
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


def rank_and_condition(svals, tol=RANK_TOLERANCE):
    """Numerical rank of a matrix from its singular values (descending), and
    its condition number (inf when the rank is 0 or the smallest value is 0)."""
    top = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > tol * top)) if top > 0 else 0
    cond = float(top / svals[-1]) if rank and svals[-1] > 0 else math.inf
    return rank, cond


def spanning_rank(vectors, s, tol=RANK_TOLERANCE):
    """Numerical rank of the lifted s-fold powers, plus the condition number."""
    return rank_and_condition(
        np.linalg.svd(lifted_power_matrix(vectors, s), compute_uv=False), tol)


class PowerBlock(NamedTuple):
    """One block of a power span, factored once: `pinv` (read-only) is the
    least-norm solver of the block's columns, `rank` their numerical rank out
    of the `size` rows needed to span, `condition` their condition number."""

    pinv: np.ndarray
    rank: int
    condition: float

    @property
    def size(self):
        return self.pinv.shape[1]


def factor_block(columns, tol=RANK_TOLERANCE):
    """PowerBlock of `columns` from one SVD.  Singular values below lstsq's
    default cut-off (eps * max(shape) of the largest) are dropped from the
    pseudo-inverse, so `pinv @ b` is the least-norm solution lstsq returns;
    the rank counts the singular values above `tol` of the largest."""
    u, svals, vt = np.linalg.svd(columns, full_matrices=False)
    keep = svals > np.finfo(float).eps * max(columns.shape) * (svals[0] if len(svals) else 0.0)
    pinv = (vt[keep].conj().T / svals[keep]) @ u[:, keep].conj().T
    pinv.setflags(write=False)
    return PowerBlock(pinv, *rank_and_condition(svals, tol))


class PowerSpan:
    """The power columns of a direction set, one row per monomial key, with
    one least-norm factor per block of rows.

    `keys[r]` names row r and `block_of_row[r]` its block (a degree or a
    bidegree), numbered from 0; the rows of a block are contiguous.
    `columns` is the double-double pair (hi, lo) from
    `compensated.dd_monomials`, real or complex, of shape (rows, directions),
    whose entries took at most `products` double-double products each.
    `rows` maps a key to its row and `blocks[b]` is the PowerBlock of block b.
    For the certificate, complex columns C are kept as the real matrix
    [Re C, -Im C]: against [Re x; Im x] it gives Re(C x), against
    [Im x; -Re x] it gives Im(C x).  All arrays are read-only."""

    def __init__(self, keys, block_of_row, columns, products, tol=RANK_TOLERANCE):
        high, low = columns
        block_of_row = np.asarray(block_of_row, dtype=np.intp)
        count = int(block_of_row[-1]) + 1
        self.rows = {key: r for r, key in enumerate(keys)}
        self.blocks = tuple(factor_block(high[block_of_row == b], tol) for b in range(count))
        self._bounds = np.cumsum([block.size for block in self.blocks])[:-1]
        self._complex = np.iscomplexobj(high)
        if self._complex:
            high, low = (np.hstack([a.real, -a.imag]) for a in (high, low))
        # per block, the column sums of |high|, which the rounding bound
        # scales with
        self._weights = np.stack([np.abs(high[block_of_row == b]).sum(axis=0)
                                  for b in range(count)])
        self._high, self._low, self._row_block = high, low, block_of_row
        self._products = int(products)
        for array in (self._bounds, high, low, block_of_row, self._weights):
            array.setflags(write=False)

    def solve(self, rhs):
        """Split the 2-D `rhs` (one row per key) into the blocks and solve each
        with its stored factor.  Solution entries that profiles drop (below
        ZERO_PRUNE_FLOAT in modulus) are set to 0.

        Returns the solutions and the certificate, an upper bound on the l1
        norm of the exact coefficient mismatch sum_b |columns_b @ x_b - rhs_b|
        (moduli of complex entries).  `compensated.residual_dot` computes the
        mismatch; the bound adds its rounding and the columns' own error, both
        of order U^2 (sum(|columns| @ |x|) + sum|rhs|)."""
        solutions = [block.pinv @ part
                     for block, part in zip(self.blocks, np.split(rhs, self._bounds))]
        for x in solutions:
            x[np.abs(x) < ZERO_PRUNE_FLOAT] = 0
        x = np.stack(solutions)
        if self._complex:
            x = np.concatenate([np.concatenate([x.real, x.imag], axis=1),
                                np.concatenate([x.imag, -x.real], axis=1)], axis=2)
            rhs = np.hstack([rhs.real, rhs.imag])
        mismatch, rounding = residual_dot(self._high, self._low, x[self._row_block], rhs)
        if self._complex:
            mismatch = np.hypot(*np.split(mismatch, 2, axis=1))
        magnitude = float((self._weights * np.abs(x).sum(axis=2)).sum() + np.abs(rhs).sum())
        # a column entry built from D products is within 16 D U^2 of the exact
        # one, relative to its modulus; the factor 2 covers the rounding of
        # the bound itself
        certificate = (float(np.abs(mismatch).sum()) * (1 + (mismatch.size + 8) * U)
                       + 2 * (rounding + 16 * self._products) * U ** 2 * magnitude)
        return solutions, certificate


def certify(certificate, target, residual_tol, blocks, labels):
    """Raise DecompositionError unless the certificate is at most
    residual_tol * (1 + max|target|); the message names the rank-deficient
    blocks from their stored factors."""
    scale = 1.0 + float(np.max(np.abs(target), initial=0.0))
    if certificate <= residual_tol * scale:
        return
    deficient = ", ".join(
        f"{label} rank {block.rank} of {block.size}"
        for label, block in zip(labels, blocks) if block.rank < block.size)
    raise DecompositionError(
        f"ridge coefficient mismatch {certificate:.3e} exceeds tolerance "
        f"{residual_tol:.1e} * {scale:.3e}; direction condition number "
        f"{blocks[-1].condition:.3e}; "
        + (f"rank-deficient blocks: {deficient}" if deficient else "every block has full rank"))


class DirectionSet:
    """Unit vectors in R^m whose s-fold powers span the homogeneous space.

    The vectors are copied and frozen.  `span` holds the powers (a_i . x)^j,
    j = 0..s, with one row per monomial of R^m of degree <= s in grlex order,
    and `blocks[j]` factors degree j: the power span is block-diagonal by
    degree, so its least-norm solve splits into one solve per degree."""

    def __init__(self, m, s, vectors, tol=RANK_TOLERANCE):
        self.m = int(m)
        self.s = int(s)
        self.vectors = np.array(vectors, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.m:
            raise ValueError(f"vectors must have shape (n, {self.m})")
        self.vectors.setflags(write=False)
        keys = monomials_up_to(self.m, self.s)
        degrees = [sum(k) for k in keys]
        factors = np.array([_multinomial(j, k) for j, k in zip(degrees, keys)], dtype=float)
        columns = dd_monomials(np.array(keys, dtype=np.intp).reshape(-1, self.m),
                               self.vectors, factors)
        self.span = PowerSpan(keys, degrees, columns, self.s, tol)

    @property
    def blocks(self):
        return self.span.blocks

    @property
    def count(self):
        return self.vectors.shape[0]

    @property
    def condition_number(self):
        """Condition number of the degree-s powers."""
        return self.blocks[-1].condition


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
        rank, _ = spanning_rank(vectors, s, tol)
        if rank == required:
            return DirectionSet(m, s, vectors, tol)
    raise SpanningError(
        f"no spanning set of {n} directions in {max_retries} tries "
        f"(m={m}, s={s}; check the rank tolerance)")


def build_block_matrices(dirs, d, ell):
    """A_i = [a_i^T | 0 ; 0 | I_(ell-1)], mapping R^d -> R^ell."""
    if dirs.m != d - ell + 1:
        raise ValueError(f"direction dimension {dirs.m} != d - ell + 1 = {d - ell + 1}")
    mats = np.zeros((dirs.count, ell, d))
    mats[:, 0, :dirs.m] = dirs.vectors
    mats[:, 1:, dirs.m:] = np.eye(ell - 1)
    return list(mats)


class RidgeDecomposition:
    """Represents x -> sum_k P_k(A_k x) with ell-variate profiles P_k."""

    def __init__(self, d, ell, matrices, profiles):
        if len(matrices) != len(profiles):
            raise ValueError("matrix/profile count mismatch")
        self.d = int(d)
        self.ell = int(ell)
        # one frozen copy, so the caller's arrays stay writeable
        stack = np.array(matrices, dtype=float)
        if len(matrices) and stack.shape[1:] != (self.ell, self.d):
            raise ValueError(f"matrix shape {stack.shape[1:]}, expected {(self.ell, self.d)}")
        stack.setflags(write=False)
        self.matrices = list(stack)
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


def decompose(P, dirs, d, ell, grid_size=512, residual_tol=1e-8):
    """Decompose P (degree <= dirs.s) into ridge terms along dirs.

    The leading-block components of P, grouped by trailing-block exponent, are
    expressed in span{(a_i . x)^j : j <= s} by the set's least-norm factors;
    the profile of unit i collects those power coefficients together with the
    trailing variables, which the block matrix passes through unchanged.
    `residual` is the certificate of `PowerSpan.solve`, a bound on the sup
    error over B^d; it must not exceed residual_tol * (1 + max|P|) on a
    grid_size-point grid.
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

    # rows: the set's leading-block monomials; columns: trailing-block exponents
    heads = dirs.span.rows
    tails = sorted({K[m:] for K in P.terms}, key=grlex_key)
    columns = {t: i for i, t in enumerate(tails)}
    rhs = np.zeros((len(heads), max(1, len(tails))))
    for K, c in P.terms.items():
        rhs[heads[K[:m]], columns[K[m:]]] = float(c)
    solutions, certificate = dirs.span.solve(rhs)
    certify(certificate, P.eval_many(ball_sup_grid(d, grid_size)), residual_tol,
            dirs.blocks, [f"degree {j}" for j in range(s + 1)])

    # profile keys (j,) + tail; P has degree <= s, so j <= s - |tail|
    keys = sorted(((j,) + t for t in tails for j in range(s - sum(t) + 1)), key=grlex_key)
    coeffs = np.stack(solutions)[[key[0] for key in keys], :, [columns[key[1:]] for key in keys]]
    profiles = _polynomials_from_rows(MultiIndexPolynomial, ell, [MultiIndex(key) for key in keys],
                                      coeffs.T)
    decomp = RidgeDecomposition(d, ell, build_block_matrices(dirs, d, ell), profiles)
    decomp.residual = certificate
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
