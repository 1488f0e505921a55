"""Exact decomposition of polynomials into sums of few-variable ridge terms.

A degree-s polynomial on R^d is written as sum_k P_k(A_k x) with A_k of shape
(ell, d) and ell-variate polynomial profiles P_k.  The construction splits the
variables into a leading block of m = d - ell + 1 and a trailing block of
ell - 1, expresses every leading-block component in the span of powers of
certified spanning directions, and assembles block matrices whose top row is
a direction and whose lower-right block is the identity.

A direction set computes its power span in plain double and factors it
once, one degree block at a time, so a decomposition is a scatter of P's
coefficients and one matmul per block.  One more matmul per block gives the
decomposition's `residual`, a bound on the l1 norm of the exact coefficient
mismatch: the mismatch computed in double plus gamma_k rounding bounds for
its dot products and for the power columns themselves.  It decides the gate,
and it bounds the sup error on the unit ball because every monomial is at
most 1 in modulus there.
"""

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .polycore import (ZERO_PRUNE_FLOAT, MultiIndexPolynomial, contract_terms,
                       dim_homogeneous, monomial_table, monomials_up_to, point_chunks,
                       point_rows, terms_layout, _grlex_multi_indices, _homogeneous_exponents,
                       _polynomials_from_rows)

RANK_TOLERANCE = 1e-10
# the certificate gate, relative to 1 + max|P| (see certified_solve)
RESIDUAL_TOLERANCE = 1e-8
# unit roundoff of double precision
U = np.finfo(float).eps / 2
# candidate vectors drawn per direction requested
CLOUD_FACTOR = 3


class SpanningError(RuntimeError):
    """Raised when a picked direction set does not span."""


class DecompositionError(RuntimeError):
    """Raised when the reconstructed ridge sum misses the target polynomial."""


def gamma(k):
    """Higham's gamma_k = kU / (1 - kU), which bounds k relative roundings
    of at most U each, multiplied or divided together."""
    return k * U / (1 - k * U)


def _multinomial(total, exponents):
    out = math.factorial(total)
    for e in exponents:
        out //= math.factorial(e)
    return out


def lifted_power_matrix(vectors, s):
    """Rows: coefficient vectors of (a_i . x)^s over the homogeneous degree-s
    monomials of R^m, or of C^m for complex vectors (with multinomial factors)."""
    vectors = np.asarray(vectors, dtype=complex if np.iscomplexobj(vectors) else float)
    exps = _homogeneous_exponents(vectors.shape[1], s)
    factors = np.array([_multinomial(s, k) for k in exps], dtype=float)
    return factors * monomial_table(exps, vectors).T


def rank_and_condition(svals):
    """Numerical rank of a matrix from its singular values (descending), the
    values above RANK_TOLERANCE of the largest, and its condition number (inf
    when the rank is 0 or the smallest value is 0)."""
    top = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > RANK_TOLERANCE * top)) if top > 0 else 0
    cond = float(top / svals[-1]) if rank and svals[-1] > 0 else math.inf
    return rank, cond


def spanning_rank(vectors, s):
    """Numerical rank of the lifted s-fold powers, plus the condition number."""
    return rank_and_condition(np.linalg.svd(lifted_power_matrix(vectors, s), compute_uv=False))


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


def factor_block(columns):
    """PowerBlock of `columns` from one SVD.  Singular values below lstsq's
    default cut-off (eps * max(shape) of the largest) are dropped from the
    pseudo-inverse, so `pinv @ b` is the least-norm solution lstsq returns;
    the rank counts the singular values above RANK_TOLERANCE of the largest."""
    u, svals, vt = np.linalg.svd(columns, full_matrices=False)
    keep = svals > np.finfo(float).eps * max(columns.shape) * (svals[0] if len(svals) else 0.0)
    pinv = (vt[keep].conj().T / svals[keep]) @ u[:, keep].conj().T
    pinv.setflags(write=False)
    return PowerBlock(pinv, *rank_and_condition(svals))


class PowerSpan:
    """The power columns of a direction set, one row per monomial key, with
    one least-norm factor per block of rows.

    `keys[r]` names row r and `block_of_row[r]` its block (a degree or a
    bidegree), numbered from 0; the rows of a block are contiguous.
    `columns`, real or complex of shape (rows, directions), holds the powers
    computed in plain double, each entry by at most `products` rounded real
    or complex products.  `rows` maps a key to its row and `blocks[b]` is the
    PowerBlock of block b.  The span keeps `columns` in real form: complex
    columns C become [Re C, -Im C], which gives Re(C x) against
    [Re x; Im x] and Im(C x) against [Im x; -Re x].  All arrays are
    read-only."""

    def __init__(self, keys, block_of_row, columns, products):
        self.rows = {key: r for r, key in enumerate(keys)}
        bounds = (np.flatnonzero(np.diff(block_of_row)) + 1).tolist()
        self._slices = [slice(lo, hi) for lo, hi in zip([0] + bounds, bounds + [len(keys)])]
        self.blocks = tuple(factor_block(columns[rows]) for rows in self._slices)
        self._complex = np.iscomplexobj(columns)
        if self._complex:
            columns = np.hstack([columns.real, -columns.imag])
        self.columns = columns
        # per block, the column sums of |columns|, which the rounding bounds scale with
        self._weights = np.stack([np.abs(columns[rows]).sum(axis=0) for rows in self._slices])
        # a real or complex product rounds by at most sqrt(2) gamma_2 < 3U,
        # relative to its modulus (Higham, Accuracy and Stability of Numerical
        # Algorithms, Lemma 3.5), so by Lemma 3.1 there an exact entry is
        # within gamma_(3D) of the computed one, relative to its modulus
        self._column_error = gamma(3 * int(products))
        for array in (columns, self._weights):
            array.setflags(write=False)

    def least_norm(self, rhs):
        """Split the 2-D `rhs` (one row per key) into the blocks and solve each
        with its stored factor.  Solution entries that profiles drop (below
        ZERO_PRUNE_FLOAT in modulus) are set to 0."""
        solutions = [block.pinv @ rhs[rows] for block, rows in zip(self.blocks, self._slices)]
        for x in solutions:
            x[np.abs(x) < ZERO_PRUNE_FLOAT] = 0
        return solutions

    def bound(self, solutions, rhs):
        """A bound on the l1 norm of the exact coefficient mismatch
        sum_b |C_b @ x_b - rhs_b| of `solutions` x against `rhs` (moduli of
        complex entries), C being the exact powers, in plain double from one
        matmul per block:

            sum|fl(columns_b @ x_b - rhs_b)| + gamma_(n+1) (weights . |x| + sum|rhs|)
            + gamma_(3D) weights . |x|,

        with n columns (of the real form), gamma_k = kU / (1 - kU) and D the
        products per column entry.  A dot product of length n minus one more
        term is within gamma_(n+1) of its exact value, relative to the sum of
        its terms' moduli, in any order of summation (Higham, 3.1); the last
        term bounds the columns' own rounding.  The moduli of complex entries
        are at most the sums of their real-form parts.  The whole is rounded
        up by (1 + 2KU), K bounding the rounded steps of any term.  Barring
        underflow and overflow."""
        x = np.stack(solutions)
        if self._complex:
            x = np.concatenate([np.concatenate([x.real, x.imag], axis=1),
                                np.concatenate([x.imag, -x.real], axis=1)], axis=2)
            rhs = np.hstack([rhs.real, rhs.imag])
        mismatch = np.concatenate([self.columns[rows] @ x_b
                                   for rows, x_b in zip(self._slices, x)]) - rhs
        if self._complex:
            half = mismatch.shape[1] // 2
            mismatch = np.hypot(mismatch[:, :half], mismatch[:, half:])
        n = self.columns.shape[1]
        size = float((self._weights * np.abs(x).sum(axis=2)).sum())
        steps = len(rhs) + x.size + rhs.size + 16
        return ((float(np.abs(mismatch).sum()) + gamma(n + 1) * (size + float(np.abs(rhs).sum()))
                 + self._column_error * size) * (1 + 2 * steps * U))


def certified_solve(span, rhs, target, labels):
    """The solutions `span.least_norm(rhs)` and `span.bound` on their
    mismatch against `rhs`.  Raise DecompositionError when the bound exceeds
    RESIDUAL_TOLERANCE * (1 + max|target|), naming the bound, the condition
    number and the rank-deficient blocks from their stored factors, labelled
    by the iterable `labels`, which is read only on failure."""
    solutions = span.least_norm(rhs)
    bound = span.bound(solutions, rhs)
    scale = 1.0 + float(np.max(np.abs(target), initial=0.0))
    if bound <= RESIDUAL_TOLERANCE * scale:
        return solutions, bound
    blocks = span.blocks
    deficient = ", ".join(
        f"{label} rank {block.rank} of {block.size}"
        for label, block in zip(labels, blocks) if block.rank < block.size)
    raise DecompositionError(
        f"ridge coefficient mismatch {bound:.3e} exceeds tolerance "
        f"{RESIDUAL_TOLERANCE:.1e} * {scale:.3e}; direction condition number "
        f"{blocks[-1].condition:.3e}; "
        + (f"rank-deficient blocks: {deficient}" if deficient else "every block has full rank"))


class _Directions:
    """What real and complex direction sets share: a frozen `vectors` array
    and a `span` whose last block is the top degree or bidegree."""

    def __init__(self, vectors, width, dtype):
        self.vectors = np.array(vectors, dtype=dtype)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != width:
            raise ValueError(f"vectors must have shape (n, {width})")
        self.vectors.setflags(write=False)

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

    def __init__(self, m, s, vectors):
        self.m = int(m)
        self.s = int(s)
        super().__init__(vectors, self.m, float)
        keys = monomials_up_to(self.m, self.s)
        # an entry of degree j takes j rounded products: j - 1 for the
        # monomial, one for its multinomial factor
        columns = np.vstack([lifted_power_matrix(self.vectors, j).T for j in range(self.s + 1)])
        self.span = PowerSpan(keys, [sum(k) for k in keys], columns, self.s)


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


def sample_spanning_directions(m, s, n, seed=0):
    """Unit directions certified to span the degree-s homogeneous space,
    picked by `pick_directions` from CLOUD_FACTOR * n random unit vectors."""
    required = dim_homogeneous(m, s)
    if n < required:
        raise ValueError(f"need at least {required} directions, got {n}")
    cloud = unit_cloud(np.random.default_rng(seed), CLOUD_FACTOR * n, m)
    vectors = pick_directions(cloud, lifted_power_matrix(cloud, s), n)
    rank, _ = spanning_rank(vectors, s)
    if rank < required:
        raise SpanningError(f"picked directions have degree-{s} rank {rank} of {required}")
    return DirectionSet(m, s, vectors)


def build_block_matrices(dirs, d, ell):
    """A_i = [a_i^T | 0 ; 0 | I_(ell-1)], mapping R^d -> R^ell, stacked in
    one (count, ell, d) array."""
    if dirs.m != d - ell + 1:
        raise ValueError(f"direction dimension {dirs.m} != d - ell + 1 = {d - ell + 1}")
    mats = np.zeros((dirs.count, ell, d))
    mats[:, 0, :dirs.m] = dirs.vectors
    mats[:, 1:, dirs.m:] = np.eye(ell - 1)
    return mats


def _json_array(value, dtype):
    """`value` as JSON, by its dtype: nested lists of floats for a real dtype,
    with each entry written as {"re", "im"} for a complex one."""
    value = np.asarray(value, dtype=dtype)
    if value.dtype.kind != "c":
        return value.tolist()
    if value.ndim:
        return [_json_array(entry, dtype) for entry in value]
    return {"re": value.real.item(), "im": value.imag.item()}


def _array_from_json(obj, dtype):
    """The array (or complex number) that `_json_array` wrote as `obj`."""
    if isinstance(obj, dict):
        return complex(obj["re"], obj["im"])
    if np.dtype(dtype).kind == "c":
        obj = [_array_from_json(entry, dtype) for entry in obj]
    return np.array(obj, dtype=dtype)


class ProfileRows(NamedTuple):
    """Profiles of `dim` variables stored as one array: `rows[k]` holds the
    coefficients of unit k over the flat `keys`, which are validated
    MultiIndex keys, unique and in grlex order (see `_polynomials_from_rows`)."""

    dim: int
    keys: tuple
    rows: np.ndarray


class _RidgeSum:
    """x -> sum_k P_k(y_k), y_k the input unit k forms from x with its map.

    The maps are copied into one frozen stack `_maps` of dtype `_dtype`, so the
    caller's arrays stay writeable.  The profiles are a list of `_profile`
    polynomials or a ProfileRows, whose rows are copied and frozen too and
    from which `profiles` is built when first read.  Evaluation reads either
    form only through `_unit_terms`.  Subclasses give the hook
    `_unit_input(points, map)`, the JSON key `_key` of a map, the profile
    class `_profile` and `_header`, the constructor arguments before the maps.
    `residual` is the certified bound the decomposition found, or None."""

    def __init__(self, maps, profiles, residual, shape, noun):
        if isinstance(profiles, ProfileRows):
            rows = np.array(profiles.rows, dtype=self._dtype, order="C")
            rows.setflags(write=False)
            self._rows, self._profiles, count = profiles._replace(rows=rows), None, len(rows)
        else:
            self._rows, self._profiles = None, list(profiles)
            count = len(self._profiles)
        self.residual = residual
        self._maps = np.array(maps, dtype=self._dtype)
        if len(self._maps) != count:
            raise ValueError(f"{noun}/profile count mismatch")
        if len(self._maps) and self._maps.shape[1:] != shape:
            raise ValueError(f"{noun} shape {self._maps.shape[1:]}, expected {shape}")
        self._maps.setflags(write=False)

    @property
    def profiles(self):
        if self._profiles is None:
            self._profiles = _polynomials_from_rows(self._profile, *self._rows)
        return self._profiles

    @property
    def count(self):
        return len(self._maps)

    def _unit_terms(self):
        """Per unit, in order, its profile's terms in grlex order: an iterable
        of their flat keys, read lazily, their (T, width) exponents and their
        T coefficients as `_dtype`.  A stored row keeps its entries not below
        ZERO_PRUNE_FLOAT in modulus, the terms of the profile built from it."""
        if self._rows is None:
            for P in self._profiles:
                terms, width = P._terms, P._halves * P.dim
                yield (terms, np.array(list(terms), dtype=np.intp).reshape(len(terms), width),
                       np.fromiter(terms.values(), self._dtype, len(terms)))
            return
        dim, keys, rows = self._rows
        exps = np.array(keys, dtype=np.intp).reshape(len(keys), self._profile._halves * dim)
        for row, kept in zip(rows, ~(np.abs(rows) < ZERO_PRUNE_FLOAT)):
            yield itertools.compress(keys, kept), exps[kept], row[kept]

    def _sum(self, points):
        """The ridge sum at an (N, d) array of points (or one point), one unit
        after another, each contracted with the `terms_layout` of its terms."""
        points = point_rows(points, self._dtype, self.d)
        out = np.zeros(points.shape[0], dtype=self._dtype)
        for M, (keys, exps, coeffs) in zip(self._maps, self._unit_terms()):
            out += contract_terms(terms_layout(keys, coeffs, exps.shape[1]),
                                  self._unit_input(points, M))
        return out

    def to_json_dict(self):
        out = {key: getattr(self, key) for key in self._header}
        out["blocks"] = [{self._key: _json_array(M, self._dtype), "P": P.to_json_dict()}
                         for M, P in zip(self._maps, self.profiles)]
        if self.residual is not None:
            out["residual"] = self.residual
        return out

    @classmethod
    def from_json_dict(cls, obj):
        blocks = obj["blocks"]
        return cls(*(obj[key] for key in cls._header),
                   [_array_from_json(b[cls._key], cls._dtype) for b in blocks],
                   [cls._profile.from_json_dict(b["P"]) for b in blocks], obj.get("residual"))


class RidgeDecomposition(_RidgeSum):
    """Represents x -> sum_k P_k(A_k x) with ell-variate profiles P_k, the
    matrices A_k of shape (ell, d) read-only in `matrices`."""

    _dtype, _key, _profile, _header = float, "A", MultiIndexPolynomial, ("d", "ell")

    def __init__(self, d, ell, matrices, profiles, residual=None):
        self.d = int(d)
        self.ell = int(ell)
        super().__init__(matrices, profiles, residual, (self.ell, self.d), "matrix")
        self.matrices = list(self._maps)

    @staticmethod
    def _unit_input(points, A):
        return points @ A.T

    def eval_many(self, points):
        return self._sum(points)

    __call__ = eval_many

    def graded_values(self, points):
        """Per unit, in order, the (t + 1, N) array whose row k is the
        degree-k part of its profile, t its top degree, at the unit's inputs
        from the (N, d) `points`: the unit's value at r x is sum_k r^k row_k,
        since P(A r x) = sum_k r^k P_k(A x) for the degree-k part P_k of P.
        A unit's terms, from `_unit_terms`, are tabulated by `monomial_table`,
        one chunk of points at a time, and grouped by degree with one matmul
        G @ table, G holding each coefficient in the row of its degree."""
        points = point_rows(points, float, self.d)
        for A, (_, exps, coeffs) in zip(self._maps, self._unit_terms()):
            degrees = exps.sum(axis=1)
            grouped = np.zeros((int(degrees.max(initial=0)) + 1, len(coeffs)))
            grouped[degrees, np.arange(len(coeffs))] = coeffs
            inputs = self._unit_input(points, A)
            parts = np.empty((len(grouped), len(points)))
            for chunk in point_chunks(len(coeffs), len(points)):
                parts[:, chunk] = grouped @ monomial_table(exps, inputs[chunk])
            yield parts


def decompose(P, dirs, d, ell):
    """Decompose P (degree <= dirs.s) into ridge terms along dirs.

    The leading-block components of P, grouped by trailing-block exponent, are
    expressed in span{(a_i . x)^j : j <= s} by the set's least-norm factors;
    the profile of unit i collects those power coefficients together with the
    trailing variables, which the block matrix passes through unchanged.
    The coefficient mismatch, a bound on the sup error over B^d, must not
    exceed RESIDUAL_TOLERANCE * (1 + max|P|), with the maximum taken at the
    origin and at the points +-e_i, read from P's coefficients (a lower bound
    of the sup of |P| over B^d).  The decomposition's `residual` is that
    bound, `PowerSpan.bound` (see `certified_solve`).
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

    # rows: the set's leading-block monomials; columns: the trailing-block
    # exponents P holds, in the grlex order of their ranks
    table, tail_count = _scatter_table(d, m, s)
    terms, count = P.terms, len(P.terms)
    head, tail = np.divmod(np.fromiter(map(table.__getitem__, terms), np.intp, count), tail_count)
    present = np.zeros(tail_count, dtype=bool)
    present[tail] = True
    column = np.cumsum(present) - 1
    rhs = np.zeros((len(dirs.span.rows), max(1, int(column[-1]) + 1)))
    rhs[head, column[tail]] = np.fromiter(terms.values(), float, count)
    solutions, residual = certified_solve(dirs.span, rhs, P.axis_values(),
                                          (f"degree {j}" for j in range(s + 1)))

    # profile keys (j,) + tail for the tails present, in grlex order
    keys, power, key_tail = _profile_index(ell, s)
    kept = present[key_tail]
    coeffs = np.stack(solutions)[power[kept], :, column[key_tail[kept]]]
    return RidgeDecomposition(d, ell, build_block_matrices(dirs, d, ell),
                              ProfileRows(ell, tuple(itertools.compress(keys, kept.tolist())),
                                          coeffs.T), residual)


@functools.lru_cache(maxsize=None)
def _scatter_table(d, m, s):
    """The map from each flat key of degree <= s on R^d, in grlex order, to
    the grlex rank of its leading m entries (its row in a DirectionSet's
    span) times T plus the grlex rank of its trailing d - m entries, and the
    count T of those trailing exponents, for `decompose` to scatter P."""
    tails = {t: r for r, t in enumerate(monomials_up_to(d - m, s) if d > m else [()])}
    heads = {h: r for r, h in enumerate(monomials_up_to(m, s))}
    return {K: heads[K[:m]] * len(tails) + tails[K[m:]]
            for K in _grlex_multi_indices(d, s)}, len(tails)


@functools.lru_cache(maxsize=None)
def _profile_index(ell, s):
    """The profile keys of degree <= s on R^ell in grlex order, with the
    read-only arrays of their first entries and of the grlex ranks of their
    other entries (read from `_scatter_table(ell, 1, s)`), for `decompose`
    to pick and gather the profile keys of the tails present."""
    table, tail_count = _scatter_table(ell, 1, s)
    power, tail = np.divmod(np.fromiter(table.values(), np.intp, len(table)), tail_count)
    power.setflags(write=False)
    tail.setflags(write=False)
    return tuple(table), power, tail


def orthonormalize_rows(A, profile):
    """Row-orthonormalize A via compact SVD, absorbing the row action into the
    profile: A = U S V^T gives A' = V^T and P'(y) = P(U S y), so that
    P(A x) = P'(A' x) pointwise."""
    A = np.asarray(A, dtype=float)
    U, svals, Vt = np.linalg.svd(A, full_matrices=False)
    new_profile = profile.compose_linear(U * svals)
    return Vt, new_profile
