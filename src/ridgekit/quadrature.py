"""Quadrature on the unit ball and sphere with declared polynomial exactness.

Rules are tensor products in hyperspherical coordinates: a radial factor with
the r^(d-1) Jacobian folded into Gauss-Jacobi weights, an equispaced circle
factor, and Gauss-Jacobi factors for the polar angles (weight (1-u^2)^((m-3)/2)
in u = cos(angle)).  Every monomial of total degree <= exactness_degree is
integrated to its analytic moment.
"""

import math

import numpy as np
from scipy.special import gammaln, roots_jacobi, roots_legendre

NODE_CAP = 10**7


class NodeCapError(RuntimeError):
    """Raised when a requested rule would exceed the node-count cap."""


class QuadratureRule:
    """Immutable nodes/weights with a declared exactness degree."""

    def __init__(self, domain, dim, nodes, weights, exactness_degree):
        if domain not in ("ball", "sphere"):
            raise ValueError("domain must be 'ball' or 'sphere'")
        self.domain = domain
        self.dim = int(dim)  # ambient dimension (ball B^dim, sphere S^(dim-1) in R^dim)
        self.nodes = np.asarray(nodes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.exactness_degree = int(exactness_degree)
        if self.nodes.ndim != 2 or self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes/weights shape mismatch")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be strictly positive")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def node_count(self):
        return self.nodes.shape[0]

    def integrate_values(self, values):
        return float(np.sum(self.weights * np.asarray(values, dtype=float)))

    def to_json_dict(self):
        return {
            "domain": self.domain,
            "dim": self.dim,
            "exactness_degree": self.exactness_degree,
            "nodes": self.nodes.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj):
        return cls(obj["domain"], obj["dim"], obj["nodes"], obj["weights"],
                   obj["exactness_degree"])


def ball_volume(d):
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def sphere_surface(d):
    """Surface measure of S^(d-1) in R^d; counting measure (=2) for d=1."""
    if d == 1:
        return 2.0
    return 2 * math.pi ** (d / 2) / math.gamma(d / 2)


def sphere_monomial_integral(k):
    """Analytic moment of the monomial xi^k over S^(m-1), m = len(k)."""
    k = tuple(int(e) for e in k)
    if any(e % 2 for e in k):
        return 0.0
    m = len(k)
    if m == 1:
        return 2.0
    log_val = math.log(2) + sum(gammaln((e + 1) / 2) for e in k) - gammaln((sum(k) + m) / 2)
    return float(math.exp(log_val))


def build_sphere_rule(d_minus_1, degree, node_cap=NODE_CAP):
    """Quadrature on the sphere S^(d_minus_1) exact for monomials of total
    degree <= degree."""
    if d_minus_1 < 0:
        raise ValueError("sphere dimension must be >= 0")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    m = d_minus_1 + 1  # ambient dimension
    nodes, weights = _sphere_nodes(m, degree, node_cap)
    return QuadratureRule("sphere", m, nodes, weights, degree)


def _sphere_node_count(m, degree):
    if m == 1:
        return 2
    if m == 2:
        return max(degree + 1, 4)
    return (degree // 2 + 1) * _sphere_node_count(m - 1, degree)


def _sphere_nodes(m, degree, node_cap=NODE_CAP):
    count = _sphere_node_count(m, degree)
    if count > node_cap:
        raise NodeCapError(f"sphere rule needs {count} nodes, cap is {node_cap}")
    if m == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    if m == 2:
        count = max(degree + 1, 4)
        angles = 2 * math.pi * np.arange(count) / count
        nodes = np.column_stack([np.cos(angles), np.sin(angles)])
        # angle 2 pi - theta gets exactly (cos theta, -sin theta), so the rule
        # is bitwise symmetric under a sign flip of the second coordinate
        # (see MirrorOrbits)
        upper = np.arange(1, (count + 1) // 2)
        nodes[count - upper] = nodes[upper] * [1.0, -1.0]
        if count % 2 == 0:
            nodes[count // 2, 1] = 0.0
        weights = np.full(count, 2 * math.pi / count)
        return nodes, weights
    sub_nodes, sub_weights = _sphere_nodes(m - 1, degree, node_cap)
    n_u = degree // 2 + 1
    alpha = (m - 3) / 2
    u, wu = roots_jacobi(n_u, alpha, alpha)
    scale = np.sqrt(np.maximum(0.0, 1 - u**2))
    nodes = np.empty((len(u) * sub_nodes.shape[0], m))
    weights = np.empty(len(u) * sub_nodes.shape[0])
    for i in range(len(u)):
        lo, hi = i * sub_nodes.shape[0], (i + 1) * sub_nodes.shape[0]
        nodes[lo:hi, : m - 1] = scale[i] * sub_nodes
        nodes[lo:hi, m - 1] = u[i]
        weights[lo:hi] = wu[i] * sub_weights
    return nodes, weights


def build_ball_rule(d, exactness_degree, node_cap=NODE_CAP):
    """Quadrature on B^d exact for monomials of total degree <= exactness_degree."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if exactness_degree < 0:
        raise ValueError("exactness degree must be >= 0")
    if d == 1:
        n = exactness_degree // 2 + 1
        x, w = roots_legendre(n)
        return QuadratureRule("ball", 1, x[:, None], w, exactness_degree)
    n_r = exactness_degree // 2 + 1
    if n_r * _sphere_node_count(d, exactness_degree) > node_cap:
        raise NodeCapError(
            f"ball rule needs {n_r * _sphere_node_count(d, exactness_degree)} nodes, "
            f"cap is {node_cap}")
    sphere = _sphere_nodes(d, exactness_degree, node_cap)
    # weight r^(d-1) on [0,1]: map Gauss-Jacobi (alpha=0, beta=d-1) from [-1,1]
    x, w = roots_jacobi(n_r, 0.0, d - 1.0)
    radii = (x + 1) / 2
    radial_w = w / 2**d
    sub_nodes, sub_weights = sphere
    count = n_r * sub_nodes.shape[0]
    if count > node_cap:
        raise NodeCapError(f"ball rule needs {count} nodes, cap is {node_cap}")
    nodes = np.empty((count, d))
    weights = np.empty(count)
    for i in range(n_r):
        lo, hi = i * sub_nodes.shape[0], (i + 1) * sub_nodes.shape[0]
        nodes[lo:hi] = radii[i] * sub_nodes
        weights[lo:hi] = radial_w[i] * sub_weights
    return QuadratureRule("ball", d, nodes, weights, exactness_degree)


class MirrorOrbits:
    """Orbits of a rule's nodes under its exact coordinate reflections.

    `axes` are the coordinates j for which x_j -> -x_j maps the rule's
    (node, weight) pairs bitwise onto themselves.  Each orbit is kept as one
    representative, |x_j| on those axes, with the orbit's summed weight.  A
    function whose parity in each x_j is fixed takes, at every node, its value
    at the node's representative times the node's signs on the odd axes, so a
    quadrature sum of f * g over the rule is fold(f, parity of g) @ g at the
    representatives.  A rule with no exact mirror has one-node orbits.
    """

    def __init__(self, rule):
        table = np.column_stack([rule.nodes, rule.weights])
        self.axes = [j for j in range(rule.dim) if _is_mirror(table, j)]
        keys = rule.nodes.copy()
        keys[:, self.axes] = np.abs(keys[:, self.axes])
        self.representatives, index = np.unique(keys, axis=0, return_inverse=True)
        self.index = index.reshape(-1)          # orbit of each node
        self.weights = np.bincount(self.index, weights=rule.weights)
        self.node_weights = rule.weights
        self.node_signs = np.sign(rule.nodes[:, self.axes])

    @property
    def count(self):
        return self.representatives.shape[0]

    def signs(self, parity):
        """Per node, the product of sign(x_j) over the axes j where `parity`
        (one exponent parity per coordinate) is odd."""
        odd = [i for i, j in enumerate(self.axes) if parity[j] % 2]
        return np.prod(self.node_signs[:, odd], axis=1)

    def fold(self, values, parity):
        """Orbit sums of weight * values * signs(parity), one per representative."""
        return np.bincount(self.index, weights=self.node_weights * values * self.signs(parity),
                           minlength=self.count)


def _is_mirror(table, j):
    """Whether negating column j maps the rows of `table` onto themselves exactly."""
    flipped = table.copy()
    flipped[:, j] = -flipped[:, j]
    return np.array_equal(_sorted_rows(table), _sorted_rows(flipped))


def _sorted_rows(table):
    return table[np.lexsort(table.T[::-1])]


def pointwise(f):
    """Vectorised form of `f`, a callable that takes one point at a time."""
    return lambda points: np.array([float(f(x)) for x in points])


def _values(f, points):
    """Flat float array of `f` at an (N, d) array of points: `f.eval_many` when
    it exists, else `f` on all points at once (wrap a callable that takes one
    point at a time in `pointwise`)."""
    if hasattr(f, "eval_many"):
        return np.asarray(f.eval_many(points), dtype=float).reshape(-1)
    return np.asarray(f(points), dtype=float).reshape(-1)


def evaluate_on_nodes(f, rule):
    """Evaluate `f` at the rule's nodes: a polynomial or a vectorised callable."""
    values = _values(f, rule.nodes)
    if values.shape[0] != rule.node_count:
        raise ValueError("function did not return one value per node")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        node = rule.nodes[bad[0]]
        raise ValueError(f"non-finite evaluation at node {node.tolist()}")
    return values


def inner_product(f, g, rule):
    """Weighted inner product sum_i w_i f(x_i) g(x_i)."""
    fv = evaluate_on_nodes(f, rule)
    gv = evaluate_on_nodes(g, rule)
    return float(np.sum(rule.weights * fv * gv))


def lq_norm(f, rule, q, sup_grid=None):
    """L^q norm over the rule's domain; q = inf uses a dense grid
    (the rule's nodes as a fallback)."""
    if q == math.inf or q == "inf":
        points = rule.nodes if sup_grid is None else np.asarray(sup_grid, dtype=float)
        return float(np.max(np.abs(_values(f, points))))
    if q < 1:
        raise ValueError("q must be >= 1 or inf")
    values = evaluate_on_nodes(f, rule)
    return float(np.sum(rule.weights * np.abs(values) ** q) ** (1.0 / q))


def ball_sup_grid(d, count, seed=0):
    """Deterministic dense point set in B^d for sup-norm surrogates."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / d)
    pts *= radii[:, None]
    pts[0] = 0.0
    return pts
