"""Exact decomposition of polynomials into sums of few-variable ridge terms.

A degree-s polynomial on R^d is written as sum_k P_k(A_k x) with A_k of shape
(ell, d) and ell-variate polynomial profiles P_k.  The construction splits the
variables into a leading block of m = d - ell + 1 and a trailing block of
ell - 1, expresses every leading-block component in the span of powers of
certified spanning directions, and assembles block matrices whose top row is
a direction and whose lower-right block is the identity.

A direction set factors its power span once, one degree block at a time, so a
decomposition is a scatter of P's coefficients and one matmul per block.  Two
bounds on the l1 norm of the coefficient mismatch decide its gate: a
plain-double screen (one more matmul per block with the high parts of the
power columns, plus a gamma_(n+1) rounding bound) and, only when the screen
exceeds the gate, the certificate: the mismatch from power columns held in
double-double by a compensated dot product, plus a bound on its rounding.
The decomposition's `residual` is that certificate, computed on first read
when the screen decided.  Either bounds the sup error on the unit ball
because every monomial is at most 1 in modulus there.
"""

import math
from typing import NamedTuple

import numpy as np

from .compensated import U, dd_monomials, residual_dot
from .polycore import (ZERO_PRUNE_FLOAT, MultiIndex, MultiIndexPolynomial,
                       dim_homogeneous, grlex_key, monomial_table, monomials_up_to,
                       _homogeneous_exponents, _polynomials_from_rows)

RANK_TOLERANCE = 1e-10
# candidate vectors drawn per direction requested
CLOUD_FACTOR = 3


class SpanningError(RuntimeError):
    """Raised when a picked direction set does not span."""


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
    For the bounds, complex columns C are kept as the real matrix
    [Re C, -Im C]: against [Re x; Im x] it gives Re(C x), against
    [Im x; -Re x] it gives Im(C x).  All arrays are read-only.

    Both `screen` and `certificate` bound the l1 norm of the exact
    coefficient mismatch sum_b |columns_b @ x_b - rhs_b| (moduli of complex
    entries) of a least-norm solve; the screen costs one matmul per block,
    the certificate a compensated dot product per row."""

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
        # per block, the column sums of |high| and of |low|, which the
        # rounding bounds scale with
        self._weights, self._low_weights = (
            np.stack([np.abs(a[block_of_row == b]).sum(axis=0) for b in range(count)])
            for a in (high, low))
        self._high, self._low, self._row_block = high, low, block_of_row
        self._products = int(products)
        for array in (self._bounds, high, low, block_of_row, self._weights, self._low_weights):
            array.setflags(write=False)

    def least_norm(self, rhs):
        """Split the 2-D `rhs` (one row per key) into the blocks and solve each
        with its stored factor.  Solution entries that profiles drop (below
        ZERO_PRUNE_FLOAT in modulus) are set to 0."""
        solutions = [block.pinv @ part
                     for block, part in zip(self.blocks, np.split(rhs, self._bounds))]
        for x in solutions:
            x[np.abs(x) < ZERO_PRUNE_FLOAT] = 0
        return solutions

    def solve(self, rhs):
        """The solutions of `least_norm` and their `certificate`."""
        solutions = self.least_norm(rhs)
        return solutions, self.certificate(solutions, rhs)

    def _real_form(self, solutions, rhs):
        """The solutions stacked by block, shape (blocks, columns, c), and
        `rhs`, both in the real form of the columns."""
        x = np.stack(solutions)
        if self._complex:
            x = np.concatenate([np.concatenate([x.real, x.imag], axis=1),
                                np.concatenate([x.imag, -x.real], axis=1)], axis=2)
            rhs = np.hstack([rhs.real, rhs.imag])
        return x, rhs

    def _modulus(self, mismatch):
        return np.hypot(*np.split(mismatch, 2, axis=1)) if self._complex else mismatch

    def certificate(self, solutions, rhs):
        """The tight bound on the mismatch of `solutions` against `rhs`.
        `compensated.residual_dot` computes the mismatch; the bound adds its
        rounding and the columns' own error, both of order
        U^2 (sum(|columns| @ |x|) + sum|rhs|)."""
        x, rhs = self._real_form(solutions, rhs)
        mismatch, rounding = residual_dot(self._high, self._low, x[self._row_block], rhs)
        mismatch = self._modulus(mismatch)
        magnitude = float((self._weights * np.abs(x).sum(axis=2)).sum() + np.abs(rhs).sum())
        # a column entry built from D products is within 16 D U^2 of the exact
        # one, relative to its modulus; the factor 2 covers the rounding of
        # the bound itself
        return (float(np.abs(mismatch).sum()) * (1 + (mismatch.size + 8) * U)
                + 2 * (rounding + 16 * self._products) * U ** 2 * magnitude)

    def screen(self, solutions, rhs):
        """A bound on the mismatch of `solutions` against `rhs` in plain
        double, from one matmul per block with the high columns:

            sum|fl(high_b @ x_b - rhs_b)| + gamma_(n+1) (weights . |x| + sum|rhs|)
            + (low_weights + 32 D U^2 weights) . |x|,

        with n columns (of the real form), gamma_k = kU / (1 - kU) and D the
        products per column entry.  A dot product of length n minus one more
        term is within gamma_(n+1) of its exact value, relative to the sum of
        its terms' moduli, in any order of summation (Higham, Accuracy and
        Stability of Numerical Algorithms, 3.1); the last term is the mismatch
        of low and of the columns' own error (16 D U^2 relative), and the
        factor 2 in it bounds the real and imaginary parts of a complex entry
        by one sum each.  The moduli of complex entries are at most the sums
        of their real-form parts.  The whole is rounded up by (1 + 2KU), K
        bounding the rounded steps of any term."""
        x, rhs = self._real_form(solutions, rhs)
        mismatch = np.concatenate([high @ x_b for high, x_b in
                                   zip(np.split(self._high, self._bounds), x)]) - rhs
        n = self._high.shape[1]
        gamma = (n + 1) * U / (1 - (n + 1) * U)
        size = np.abs(x).sum(axis=2)
        magnitude = float((self._weights * size).sum() + np.abs(rhs).sum())
        columns = float(((self._low_weights + 32 * self._products * U ** 2 * self._weights)
                         * size).sum())
        steps = len(rhs) + x.size + rhs.size + 16
        return ((float(np.abs(self._modulus(mismatch)).sum()) + gamma * magnitude + columns)
                * (1 + 2 * steps * U))


def certify(span, solutions, rhs, target, residual_tol, labels):
    """Raise DecompositionError unless the mismatch of `solutions` against
    `rhs` is at most residual_tol * (1 + max|target|).  `span.screen` decides
    first; when it exceeds the gate, `span.certificate` decides and is
    returned, else None is.  The message names the certificate and the
    rank-deficient blocks from their stored factors, labelled by the iterable
    `labels`, which is read only on failure."""
    scale = 1.0 + float(np.max(np.abs(target), initial=0.0))
    if span.screen(solutions, rhs) <= residual_tol * scale:
        return None
    certificate = span.certificate(solutions, rhs)
    if certificate <= residual_tol * scale:
        return certificate
    blocks = span.blocks
    deficient = ", ".join(
        f"{label} rank {block.rank} of {block.size}"
        for label, block in zip(labels, blocks) if block.rank < block.size)
    raise DecompositionError(
        f"ridge coefficient mismatch {certificate:.3e} exceeds tolerance "
        f"{residual_tol:.1e} * {scale:.3e}; direction condition number "
        f"{blocks[-1].condition:.3e}; "
        + (f"rank-deficient blocks: {deficient}" if deficient else "every block has full rank"))


class CertifiedResidual:
    """What real and complex ridge decompositions share: `residual`, the
    `PowerSpan.certificate` of the solve they were built from.  A
    decomposition whose gate the screen decided keeps the solve's inputs and
    computes the certificate on first read; one built otherwise (say, from
    JSON) has none."""

    _residual_inputs = None

    def _keep_residual(self, certificate, span, solutions, rhs):
        """Keep `certificate`, or when it is None the inputs to compute it."""
        self._residual = certificate
        if certificate is None:
            self._residual_inputs = span, solutions, rhs

    @property
    def residual(self):
        if self._residual_inputs is not None:
            span, solutions, rhs = self._residual_inputs
            self._residual = span.certificate(solutions, rhs)
            self._residual_inputs = None
        return self._residual


class _Directions:
    """What real and complex direction sets share: a frozen `vectors` array
    and a `span` whose last block is the top degree or bidegree."""

    @property
    def blocks(self):
        return self.span.blocks

    @property
    def count(self):
        return self.vectors.shape[0]

    @property
    def condition_number(self):
        """Condition number of the top block's powers."""
        return self.blocks[-1].condition


class DirectionSet(_Directions):
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


def unit_cloud(rng, count, dim, dtype=float):
    """`count` random unit vectors of R^dim, or of C^dim for a complex dtype."""
    cloud = rng.standard_normal((count, dim))
    if np.dtype(dtype).kind == "c":
        cloud = cloud + 1j * rng.standard_normal((count, dim))
    return cloud / np.linalg.norm(cloud, axis=1, keepdims=True)


def pick_directions(cloud, rows, n):
    """The n vectors of `cloud` picked by Gaussian elimination with partial
    row pivoting on their power rows `rows` (discrete Leja points, Bos, De
    Marchi, Sommariva & Vianello, SIAM J. Numer. Anal. 2010): the pivot rows
    in elimination order, then the other rows in cloud order.  The
    elimination is left-looking: step k forms only column k of the reduced
    rows, and no row is moved."""
    free = np.ones(len(rows), dtype=bool)
    picked = []
    lower = np.zeros_like(rows)  # the multipliers, one row per cloud vector
    upper = np.zeros_like(rows[:rows.shape[1]])
    for k in range(rows.shape[1]):
        col = rows[:, k] - lower[:, :k] @ upper[:k, k]
        p = int(np.argmax(np.where(free, np.abs(col), -1.0)))
        picked.append(p)
        free[p] = False
        upper[k, k:] = rows[p, k:] - lower[p, :k] @ upper[:k, k:]
        if col[p] != 0:
            lower[:, k] = col / col[p]
    return cloud[np.concatenate([picked, np.flatnonzero(free)])[:n]]


def sample_spanning_directions(m, s, n, seed=0, tol=RANK_TOLERANCE):
    """Unit directions certified to span the degree-s homogeneous space,
    picked by `pick_directions` from CLOUD_FACTOR * n random unit vectors."""
    required = dim_homogeneous(m, s)
    if n < required:
        raise ValueError(f"need at least {required} directions, got {n}")
    cloud = unit_cloud(np.random.default_rng(seed), CLOUD_FACTOR * n, m)
    vectors = pick_directions(cloud, lifted_power_matrix(cloud, s), n)
    rank, _ = spanning_rank(vectors, s, tol)
    if rank < required:
        raise SpanningError(f"picked directions have degree-{s} rank {rank} of {required}")
    return DirectionSet(m, s, vectors, tol)


def build_block_matrices(dirs, d, ell):
    """A_i = [a_i^T | 0 ; 0 | I_(ell-1)], mapping R^d -> R^ell."""
    if dirs.m != d - ell + 1:
        raise ValueError(f"direction dimension {dirs.m} != d - ell + 1 = {d - ell + 1}")
    mats = np.zeros((dirs.count, ell, d))
    mats[:, 0, :dirs.m] = dirs.vectors
    mats[:, 1:, dirs.m:] = np.eye(ell - 1)
    return list(mats)


class RidgeDecomposition(CertifiedResidual):
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
        blocks = [{"A": A.tolist(), "P": P.to_json_dict()}
                  for A, P in zip(self.matrices, self.profiles)]
        return {"d": self.d, "ell": self.ell, "blocks": blocks}

    @classmethod
    def from_json_dict(cls, obj):
        mats = [b["A"] for b in obj["blocks"]]
        profs = [MultiIndexPolynomial.from_json_dict(b["P"]) for b in obj["blocks"]]
        return cls(obj["d"], obj["ell"], mats, profs)


def decompose(P, dirs, d, ell, residual_tol=1e-8):
    """Decompose P (degree <= dirs.s) into ridge terms along dirs.

    The leading-block components of P, grouped by trailing-block exponent, are
    expressed in span{(a_i . x)^j : j <= s} by the set's least-norm factors;
    the profile of unit i collects those power coefficients together with the
    trailing variables, which the block matrix passes through unchanged.
    The coefficient mismatch, a bound on the sup error over B^d, must not
    exceed residual_tol * (1 + max|P|), with the maximum taken at the origin
    and at the points +-e_i, read from P's coefficients (a lower bound of the
    sup of |P| over B^d).  `PowerSpan.screen` decides first, and
    `PowerSpan.certificate` only when the screen exceeds the gate (see
    `certify`).  `residual` is the certificate, computed on its first read
    when the screen decided.
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
    solutions = dirs.span.least_norm(rhs)
    certificate = certify(dirs.span, solutions, rhs, P.axis_values(), residual_tol,
                          (f"degree {j}" for j in range(s + 1)))

    # profile keys (j,) + tail; P has degree <= s, so j <= s - |tail|.  The
    # tails are slices of validated keys, so the keys need no validation.
    keys = sorted((tuple.__new__(MultiIndex, (j,) + t) for t in tails
                   for j in range(s - sum(t) + 1)), key=grlex_key)
    coeffs = np.stack(solutions)[[key[0] for key in keys], :, [columns[key[1:]] for key in keys]]
    profiles = _polynomials_from_rows(MultiIndexPolynomial, ell, keys, coeffs.T)
    decomp = RidgeDecomposition(d, ell, build_block_matrices(dirs, d, ell), profiles)
    decomp._keep_residual(certificate, dirs.span, solutions, rhs)
    return decomp


def orthonormalize_rows(A, profile):
    """Row-orthonormalize A via compact SVD, absorbing the row action into the
    profile: A = U S V^T gives A' = V^T and P'(y) = P(U S y), so that
    P(A x) = P'(A' x) pointwise."""
    A = np.asarray(A, dtype=float)
    U, svals, Vt = np.linalg.svd(A, full_matrices=False)
    new_profile = profile.compose_linear(U * svals)
    return Vt, new_profile
