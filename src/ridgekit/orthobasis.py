"""Graded orthonormal polynomial basis on the unit ball.

Monomials in graded lexicographic order are orthonormalized on the weighted
node values of a quadrature rule exact to degree 2 * max_degree.  The ball is
symmetric under coordinate sign flips, and the rule integrates every product
of two basis monomials exactly, so monomials whose exponent-parity vectors
differ are exactly orthogonal.  The problem therefore splits into one block
per parity vector.  Gram-Schmidt in a fixed order is the QR factorization with
a positive diagonal of R, so each block is orthonormalized by one QR, and the
coefficients of its basis elements over its monomials are inv(R).T.  Entries
between different parities are exactly zero.

Each block is factored by LAPACK's blocked QR dgeqrt: np.linalg.qr factors a
matrix narrower than 128 columns, as most blocks are, with the unblocked
dgeqr2.  inv(R).T and the basis values inv(R).T @ block then come from
triangular solves; an explicit triangular inverse loses orthogonality.  All
dense work in the loop stays within scipy's LAPACK and BLAS: numpy and scipy
each load their own BLAS, and the two thread pools contend when calls
alternate between them.  `build_basis` imports these scipy.linalg routines
when it runs, so importing the package does not load scipy.

Within a block every product of two monomials is even in each coordinate, so
its quadrature sums equal sums over one representative node per mirror orbit
of the rule with the orbit's summed weight (quadrature.MirrorOrbits).  The
QRs run on the representatives, the basis keeps its values only there, and a
projection folds f onto them first.

Each block also keeps its R.  The weighted monomial values of a block are
Q R, so monomial j equals sum_i R_ij P_i in the rule's inner product, and a
polynomial p = sum_j a_j m_j of degree <= max_degree has <p, P_i> = (R a)_i:
it is projected from its coefficients, with no evaluation at the nodes.
"""

import hashlib
import math

import numpy as np

from .polycore import (MultiIndexPolynomial, _grlex_multi_indices, _polynomials_from_rows,
                       monomial_table, monomials_up_to, point_chunks)
from .quadrature import MirrorOrbits, evaluate_on_nodes


QR_BLOCK = 32      # dgeqrt block size
# Nodes per chunk of OrthoBasis.gram_matrix: large enough for an efficient
# rank-k update, small enough that the (size, GRAM_CHUNK) values stay far
# below the full (size, node_count) array.
GRAM_CHUNK = 2048


class ConditioningError(RuntimeError):
    """Raised when orthogonalization hits a numerically dependent monomial."""


def monomial_values(exponents, points):
    """Matrix of monomial values: rows follow `exponents`, columns `points`.

    Filled one chunk of points at a time, so the only array of the full
    size is the result.
    """
    points = np.asarray(points, dtype=float)
    exponents = np.array(exponents, dtype=np.intp).reshape(-1, points.shape[1])
    values = np.empty((exponents.shape[0], points.shape[0]))
    for chunk in point_chunks(exponents.shape[0], points.shape[0]):
        values[:, chunk] = monomial_table(exponents, points[chunk])
    return values


class OrthoBasis:
    """Orthonormal basis of P_{max_degree}(B^dim) under the ball inner product."""

    def __init__(self, dim, max_degree, exponents, coeff_matrix, blocks, orbits, rule):
        self.dim = dim
        self.max_degree = max_degree
        self.exponents = list(exponents)
        self.coeff_matrix = coeff_matrix            # rows: basis elements over monomials
        self.blocks = blocks                        # (parity, rows, values at representatives, R)
        self.orbits = orbits
        self.rule = rule
        self.degrees = np.array([sum(k) for k in exponents])  # grlex: degree of element i
        self._grlex_keys = _grlex_multi_indices(dim, max_degree)
        self._position = {k: i for i, k in enumerate(self.exponents)}
        self._polys = None

    @property
    def size(self):
        return len(self.exponents)

    @property
    def polys(self):
        if self._polys is None:
            self._polys = self._polynomials(self.coeff_matrix)
        return self._polys

    def combine(self, coefficients):
        """Polynomial sum_i coefficients[i] * P_i over i < len(coefficients)."""
        coefficients = np.asarray(coefficients, dtype=float)
        rows = self.coeff_matrix[:len(coefficients)]
        return self._polynomials((coefficients @ rows)[None, :])[0]

    def _polynomials(self, rows):
        """One polynomial per row of monomial coefficients over `exponents`."""
        return _polynomials_from_rows(MultiIndexPolynomial, self.dim, self._grlex_keys, rows)

    @property
    def node_values(self):
        """Basis values at every node of the rule (rows: basis elements),
        expanded from the representatives on each access."""
        return self._node_values(slice(None))

    def _node_values(self, nodes):
        """Basis values at the nodes selected by the slice `nodes`."""
        index = self.orbits.index[nodes]
        values = np.empty((self.size, index.size))
        for parity, rows, block, _ in self.blocks:
            values[rows] = block[:, index] * self.orbits.signs(parity)[nodes]
        return values

    def gram_matrix(self):
        """Gram matrix on the full rule, independent of the orbit fold,
        accumulated over GRAM_CHUNK nodes at a time."""
        gram = np.zeros((self.size, self.size))
        sqrt_w = np.sqrt(self.rule.weights)
        for lo in range(0, self.rule.node_count, GRAM_CHUNK):
            chunk = slice(lo, lo + GRAM_CHUNK)
            values = self._node_values(chunk) * sqrt_w[chunk]
            gram += values @ values.T
        return gram

    def rule_digest(self):
        h = hashlib.sha256()
        h.update(self.rule.nodes.tobytes())
        h.update(self.rule.weights.tobytes())
        return h.hexdigest()[:16]

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "s_max": self.max_degree,
            "rule_digest": self.rule_digest(),
            "polys": [p.to_json_dict() for p in self.polys],
        }


def build_basis(d, s_max, rule):
    """Orthonormalize the monomials of degree <= s_max on B^d, in grlex
    order.  Raises ConditioningError when a monomial is numerically dependent
    on the ones before it in its parity block.
    """
    from scipy.linalg import LinAlgError, solve_triangular
    from scipy.linalg.lapack import dgeqrt

    if rule.domain != "ball" or rule.dim != d:
        raise ValueError("rule must be a ball rule in the same dimension")
    if s_max < 0:
        raise ValueError(f"max degree must be >= 0, got {s_max}")
    if rule.exactness_degree < 2 * s_max:
        raise ValueError(
            f"rule exactness {rule.exactness_degree} insufficient for degree {s_max}")
    exponents = monomials_up_to(d, s_max)
    orbits = MirrorOrbits(rule)
    sqrt_w = np.sqrt(orbits.weights)
    n = len(exponents)
    rows_of = {}
    for i, k in enumerate(exponents):
        rows_of.setdefault(tuple(e % 2 for e in k), []).append(i)
    coeffs = np.zeros((n, n))
    blocks = []
    for parity, rows in rows_of.items():
        if len(rows) > orbits.count:
            raise ConditioningError(
                f"monomial {exponents[rows[orbits.count]]} is numerically dependent "
                f"({len(rows)} monomials of its parity on {orbits.count} node orbits)")
        block = monomial_values([exponents[i] for i in rows], orbits.representatives)
        weighted = block * sqrt_w
        # the QR of weighted.T, factored in place
        factored, _, info = dgeqrt(min(QR_BLOCK, len(rows)), weighted.T, overwrite_a=True)
        if info != 0:
            raise LinAlgError(f"dgeqrt failed with info {info}")
        r = np.triu(factored[:len(rows)])
        del weighted, factored      # free the block-sized buffer before the solves
        diag = np.diag(r)
        # column i of R has the norm of weighted monomial i (Q is orthonormal)
        floor = 1e-12 * np.maximum(1.0, np.linalg.norm(r, axis=0))
        bad = np.flatnonzero(np.abs(diag) < floor)
        if bad.size:
            i = bad[0]
            raise ConditioningError(
                f"monomial {exponents[rows[i]]} is numerically dependent "
                f"(residual {abs(diag[i]):.2e})")
        r *= np.sign(diag)[:, None]
        # inv(R).T and inv(R).T @ block, each by one triangular solve
        block_coeffs = solve_triangular(r, np.eye(len(rows)), trans="T")
        coeffs[np.ix_(rows, rows)] = block_coeffs
        blocks.append((parity, np.array(rows, dtype=np.intp),
                       solve_triangular(r, block, trans="T"), r))
    return OrthoBasis(d, s_max, exponents, coeffs, blocks, orbits, rule)


def project_coefficients(f, basis, s):
    """Inner products <f, P_i> for i in I_s (degree <= s, a prefix in grlex
    order) under the rule's inner product.

    A MultiIndexPolynomial in basis.dim variables of degree <= max_degree is
    projected from its coefficients as R a per parity block; anything else
    (a callable, or a polynomial the basis does not cover) by quadrature.
    Raises ValueError on a non-finite coefficient or node value."""
    if s > basis.max_degree:
        raise ValueError(f"basis covers degree {basis.max_degree}, requested {s}")
    count = math.comb(s + basis.dim, basis.dim)     # |I_s|
    covered = (isinstance(f, MultiIndexPolynomial) and f.dim == basis.dim
                and f.degree() <= basis.max_degree)
    if covered:
        a = _monomial_coefficients(f, basis)
    else:
        fv = evaluate_on_nodes(f, basis.rule)
        folded = {}
    orbits = basis.orbits
    out = np.empty(count)
    for parity, rows, values, r in basis.blocks:
        m = np.searchsorted(rows, count)    # rows ascend; I_s is a prefix
        if m == 0:
            continue
        if covered:
            out[rows[:m]] = r[:m] @ a[rows]
        else:
            key = tuple(parity[j] for j in orbits.axes)
            if key not in folded:
                folded[key] = orbits.fold(fv, parity)
            out[rows[:m]] = values[:m] @ folded[key]
    return out


def filtered_projection(f, basis, weights):
    """sum_i weights[deg P_i] <f, P_i> P_i over the basis elements of degree
    < len(weights): the graded projection with one weight per degree."""
    c = project_coefficients(f, basis, len(weights) - 1)
    return basis.combine(weights[basis.degrees[:len(c)]] * c)


def _monomial_coefficients(p, basis):
    """The coefficients of the polynomial `p` over `basis.exponents`."""
    a = np.zeros(basis.size)
    a[[basis._position[k] for k in p.terms]] = [float(c) for c in p.terms.values()]
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        k = basis.exponents[bad[0]]
        raise ValueError(f"non-finite coefficient {a[bad[0]]} of monomial {tuple(k)}")
    return a
