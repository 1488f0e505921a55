"""Graded orthonormal polynomial basis on the unit ball.

Monomials in graded lexicographic order are orthonormalized on the weighted
node values of a quadrature rule exact to degree 2 * max_degree.  The ball is
symmetric under coordinate sign flips, and the rule integrates every product
of two basis monomials exactly, so monomials whose exponent-parity vectors
differ are exactly orthogonal.  The problem therefore splits into one block
per parity vector.  Gram-Schmidt in a fixed order is the QR factorization with
a positive diagonal of R, so each block is orthonormalized by one Householder
QR, and the coefficients of its basis elements over its monomials are
inv(R).T.  Entries between different parities are exactly zero.
"""

import hashlib
import math

import numpy as np

from .polycore import (MultiIndex, MultiIndexPolynomial, _polynomials_from_rows,
                       grlex_key, monomial_table, monomials_up_to, point_chunks)
from .quadrature import evaluate_on_nodes


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

    def __init__(self, dim, max_degree, exponents, coeff_matrix, node_values, rule):
        self.dim = dim
        self.max_degree = max_degree
        self.exponents = list(exponents)
        self.coeff_matrix = coeff_matrix            # rows: basis elements over monomials
        self.node_values = node_values              # rows: basis values at rule nodes
        self.rule = rule
        self.degrees = [sum(k) for k in exponents]  # grlex: degree of element i
        # monomial columns in grlex order, the term order of MultiIndexPolynomial
        order = sorted(range(len(self.exponents)), key=lambda i: grlex_key(self.exponents[i]))
        self._grlex = np.array(order, dtype=np.intp)
        self._grlex_keys = [MultiIndex(self.exponents[i]) for i in order]
        self._polys = None

    @property
    def size(self):
        return len(self.exponents)

    @property
    def polys(self):
        if self._polys is None:
            self._polys = self._polynomials(self.coeff_matrix)
        return self._polys

    def index_set(self, s):
        """I_s: indices of basis elements with degree <= s."""
        count = math.comb(min(s, self.max_degree) + self.dim, self.dim)
        return list(range(count))

    def graded_block(self, s):
        """J_s: indices of basis elements with degree exactly s."""
        if s > self.max_degree:
            return []
        lo = math.comb(s - 1 + self.dim, self.dim) if s > 0 else 0
        hi = math.comb(s + self.dim, self.dim)
        return list(range(lo, hi))

    def combine(self, coefficients, indices=None):
        """Polynomial sum_i coefficients[i] * P_{indices[i]}."""
        coefficients = np.asarray(coefficients, dtype=float)
        rows = self.coeff_matrix if indices is None else self.coeff_matrix[list(indices)]
        return self._polynomials((coefficients @ rows)[None, :])[0]

    def _polynomials(self, rows):
        """One polynomial per row of monomial coefficients over `exponents`."""
        return _polynomials_from_rows(MultiIndexPolynomial, self.dim, self._grlex_keys,
                                      rows[:, self._grlex])

    def gram_matrix(self):
        weighted = self.node_values * self.rule.weights
        return weighted @ self.node_values.T

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


def build_basis(d, s_max, rule, order="grlex"):
    """Orthonormalize the monomials of degree <= s_max on B^d.

    `order` selects the monomial enumeration ("grlex" or "grlex_reversed",
    which reverses ties within each degree); any degree-graded order yields
    the same spans and the same quasi-projection operators.  Raises
    ConditioningError when a monomial is numerically dependent on the ones
    before it in its parity block.
    """
    if rule.domain != "ball" or rule.dim != d:
        raise ValueError("rule must be a ball rule in the same dimension")
    if rule.exactness_degree < 2 * s_max:
        raise ValueError(
            f"rule exactness {rule.exactness_degree} insufficient for degree {s_max}")
    exponents = monomials_up_to(d, s_max)
    if order == "grlex":
        pass
    elif order == "grlex_reversed":
        reordered = []
        for s in range(s_max + 1):
            block = [k for k in exponents if sum(k) == s]
            reordered.extend(reversed(block))
        exponents = reordered
    else:
        raise ValueError(f"unknown order {order!r}")

    sqrt_w = np.sqrt(rule.weights)
    n = len(exponents)
    blocks = {}
    for i, k in enumerate(exponents):
        blocks.setdefault(tuple(e % 2 for e in k), []).append(i)
    coeffs = np.zeros((n, n))
    node_values = np.empty((n, rule.node_count))
    for rows in blocks.values():
        if len(rows) > rule.node_count:
            raise ConditioningError(
                f"monomial {exponents[rows[rule.node_count]]} is numerically dependent "
                f"({len(rows)} monomials of its parity on {rule.node_count} nodes)")
        block = monomial_values([exponents[i] for i in rows], rule.nodes)
        weighted = (block * sqrt_w).T
        r = np.linalg.qr(weighted, mode="r")
        diag = np.diag(r)
        floor = 1e-12 * np.maximum(1.0, np.linalg.norm(weighted, axis=0))
        bad = np.flatnonzero(np.abs(diag) < floor)
        if bad.size:
            i = bad[0]
            raise ConditioningError(
                f"monomial {exponents[rows[i]]} is numerically dependent "
                f"(residual {abs(diag[i]):.2e})")
        r *= np.sign(diag)[:, None]
        block_coeffs = np.linalg.inv(r).T
        coeffs[np.ix_(rows, rows)] = block_coeffs
        node_values[rows] = block_coeffs @ block
    basis = OrthoBasis(d, s_max, exponents, coeffs, node_values, rule)
    return basis


def project_coefficients(f, basis, s):
    """Inner products <f, P_i> for i in I_s, by quadrature."""
    if s > basis.max_degree:
        raise ValueError(f"basis covers degree {basis.max_degree}, requested {s}")
    fv = evaluate_on_nodes(f, basis.rule)
    count = len(basis.index_set(s))
    return (basis.node_values[:count] * basis.rule.weights) @ fv
