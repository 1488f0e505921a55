"""Quadrature on the unit ball and sphere with declared polynomial exactness.

Rules are tensor products in hyperspherical coordinates: a radial factor with
the r^(d-1) Jacobian folded into Gauss-Jacobi weights, an equispaced circle
factor, and Gauss-Jacobi factors for the polar angles (weight (1-u^2)^((m-3)/2)
in u = cos(angle)).  Every monomial of total degree <= exactness_degree is
integrated to its analytic moment.

A ball rule in d >= 2 dimensions is a product of radii and sphere nodes, and
keeps the two factors as `shells`.  `evaluate_on_nodes`, the one place that
evaluates a function at a rule's nodes, takes a real ridge sum on such a
rule from its graded values at the sphere nodes alone: a unit's degree-k
part scales by r^k on the shell of radius r.  Every other function, and
every rule without shells, is evaluated at every node.
"""

import math

import numpy as np

NODE_CAP = 10**7


class NodeCapError(RuntimeError):
    """Raised when a requested rule would exceed the node-count cap."""


class QuadratureRule:
    """Immutable nodes/weights with a declared exactness degree.  `shells` is
    None, or the read-only (radii, sphere nodes) of a ball rule that
    `build_ball_rule` built as their product."""

    def __init__(self, domain, dim, nodes, weights, exactness_degree):
        if domain not in ("ball", "sphere"):
            raise ValueError("domain must be 'ball' or 'sphere'")
        self.domain = domain
        self.dim = int(dim)  # ambient dimension (ball B^dim, sphere S^(dim-1) in R^dim)
        self.nodes = np.asarray(nodes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.exactness_degree = int(exactness_degree)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != self.dim:
            raise ValueError(f"nodes must have shape (n, {self.dim})")
        if self.weights.shape != self.nodes.shape[:1]:
            raise ValueError("nodes/weights shape mismatch")
        if not np.all(np.isfinite(self.nodes)):
            raise ValueError("nodes must be finite")
        if not np.all(np.isfinite(self.weights) & (self.weights > 0)):
            raise ValueError("weights must be finite and strictly positive")
        if self.exactness_degree < 0:
            raise ValueError("exactness degree must be >= 0")
        radii = np.linalg.norm(self.nodes, axis=1)
        off = radii > 1 + 1e-12 if domain == "ball" else np.abs(radii - 1) > 1e-12
        if np.any(off):
            raise ValueError(f"node {self.nodes[np.argmax(off)].tolist()} is not on the {domain}")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        self.shells = None

    @property
    def node_count(self):
        return self.nodes.shape[0]

    def integrate_values(self, values):
        return float(np.sum(self.weights * np.asarray(values, dtype=float)))


def ball_volume(d):
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def build_sphere_rule(d_minus_1, degree):
    """Quadrature on the sphere S^(d_minus_1) exact for monomials of total
    degree <= degree."""
    if d_minus_1 < 0:
        raise ValueError("sphere dimension must be >= 0")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    m = d_minus_1 + 1  # ambient dimension
    nodes, weights = _sphere_nodes(m, degree)
    return QuadratureRule("sphere", m, nodes, weights, degree)


def _sphere_node_count(m, degree):
    if m == 1:
        return 2
    if m == 2:
        return max(degree + 1, 4)
    return (degree // 2 + 1) * _sphere_node_count(m - 1, degree)


def _sphere_nodes(m, degree):
    count = _sphere_node_count(m, degree)
    if count > NODE_CAP:
        raise NodeCapError(f"sphere rule needs {count} nodes, cap is {NODE_CAP}")
    if m == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    if m == 2:
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
    from scipy.special import roots_jacobi

    sub_nodes, sub_weights = _sphere_nodes(m - 1, degree)
    n_u = degree // 2 + 1
    alpha = (m - 3) / 2
    u, wu = roots_jacobi(n_u, alpha, alpha)
    scale = np.sqrt(np.maximum(0.0, 1 - u**2))
    nodes = np.empty((len(u), sub_nodes.shape[0], m))
    nodes[:, :, : m - 1] = scale[:, None, None] * sub_nodes
    nodes[:, :, m - 1] = u[:, None]
    return nodes.reshape(-1, m), np.outer(wu, sub_weights).ravel()


def build_ball_rule(d, exactness_degree):
    """Quadrature on B^d exact for monomials of total degree <= exactness_degree."""
    from scipy.special import roots_jacobi, roots_legendre

    if d < 1:
        raise ValueError("dimension must be >= 1")
    if exactness_degree < 0:
        raise ValueError("exactness degree must be >= 0")
    n_r = exactness_degree // 2 + 1
    count = n_r if d == 1 else n_r * _sphere_node_count(d, exactness_degree)
    if count > NODE_CAP:
        raise NodeCapError(f"ball rule needs {count} nodes, cap is {NODE_CAP}")
    if d == 1:
        x, w = roots_legendre(n_r)
        return QuadratureRule("ball", 1, x[:, None], w, exactness_degree)
    sub_nodes, sub_weights = _sphere_nodes(d, exactness_degree)
    # weight r^(d-1) on [0,1]: map Gauss-Jacobi (alpha=0, beta=d-1) from [-1,1]
    x, w = roots_jacobi(n_r, 0.0, d - 1.0)
    radii = (x + 1) / 2
    radial_w = w / 2**d
    nodes = (radii[:, None, None] * sub_nodes).reshape(count, d)
    weights = np.outer(radial_w, sub_weights).ravel()
    rule = QuadratureRule("ball", d, nodes, weights, exactness_degree)
    for factor in (radii, sub_nodes):
        factor.setflags(write=False)
    rule.shells = (radii, sub_nodes)
    return rule


class MirrorOrbits:
    """Orbits of a rule's nodes under its exact coordinate reflections.

    `axes` are the coordinates j for which x_j -> -x_j maps the rule's
    (node, weight) pairs bitwise onto themselves.  Each orbit is kept as one
    representative, |x_j| on those axes, with the orbit's summed weight.  A
    function whose parity in each x_j is fixed takes, at every node, its value
    at the node's representative times the node's signs on the odd axes, so a
    quadrature sum of f * g over the rule is fold(f, parity of g) @ g at the
    representatives.  A rule with no exact mirror has one-node orbits.

    One sort of the rows (|x|, w) groups the nodes that differ only in signs.
    A node's code is its group and its sign bits, a zero coordinate of either
    sign counting as positive (it is its own mirror).  Axis j is a mirror when
    every code with x_j != 0 occurs as often as the code with bit j flipped.
    A second row sort numbers the orbits in lexicographic order of their
    representatives.
    """

    def __init__(self, rule):
        nodes, dim = rule.nodes, rule.dim
        magnitudes = np.abs(nodes)
        group, first = _row_groups(np.column_stack([magnitudes, rule.weights]))
        bits = (nodes < 0) @ (1 << np.arange(dim, dtype=np.int64))
        codes, counts = np.unique((group << dim) | bits, return_counts=True)
        moved = nodes[first[codes >> dim]] != 0
        self.axes = [j for j in range(dim) if _is_mirror(codes, counts, moved[:, j], 1 << j)]
        keys = nodes.copy()
        keys[:, self.axes] = magnitudes[:, self.axes]
        self.index, first = _row_groups(keys)   # orbit of each node
        self.representatives = keys[first]
        self.weights = np.bincount(self.index, weights=rule.weights)
        self.node_weights = rule.weights
        self.node_signs = np.sign(nodes[:, self.axes])
        self._signs = {}

    @property
    def count(self):
        return self.representatives.shape[0]

    def signs(self, parity):
        """Per node, the product of sign(x_j) over the axes j where `parity`
        (one exponent parity per coordinate) is odd.  Computed once per set
        of odd axes and returned read-only."""
        odd = tuple(i for i, j in enumerate(self.axes) if parity[j] % 2)
        if odd not in self._signs:
            self._signs[odd] = np.prod(self.node_signs[:, list(odd)], axis=1)
            self._signs[odd].setflags(write=False)
        return self._signs[odd]

    def fold(self, values, parity):
        """Orbit sums of weight * values * signs(parity), one per representative."""
        return np.bincount(self.index, weights=self.node_weights * values * self.signs(parity),
                           minlength=self.count)


def _row_groups(table):
    """Per row of `table`, the number of its set of equal rows in
    lexicographic order, and one row index per set."""
    order = np.lexsort(table.T[::-1])
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(np.diff(table[order], axis=0) != 0, axis=1)
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    return group, order[starts]


def _is_mirror(codes, counts, moved, bit):
    """Whether each of the sorted `codes` where `moved` holds occurs as often
    (`counts`) as the code with `bit` flipped."""
    partner = codes[moved] ^ bit
    at = np.minimum(np.searchsorted(codes, partner), codes.size - 1)
    return bool(np.all((codes[at] == partner) & (counts[at] == counts[moved])))


def pointwise(f):
    """Vectorised form of `f`, a callable that takes one point at a time."""
    return lambda points: np.array([float(f(x)) for x in points])


def _values(f, points):
    """Flat float array of `f` at an (N, d) array of points: an ndarray `f` is
    taken as those values, else `f.eval_many` when it exists, else `f` on all
    points at once (wrap a callable that takes one point at a time in
    `pointwise`)."""
    if not isinstance(f, np.ndarray):
        f = f.eval_many(points) if hasattr(f, "eval_many") else f(points)
    return np.asarray(f, dtype=float).reshape(-1)


def _finite_values(f, points):
    """`f` at an (N, d) array of points, as `_values`, with numpy's
    invalid-value and overflow warnings silenced: a non-finite value raises
    ValueError instead."""
    with np.errstate(invalid="ignore", over="ignore"):
        values = _values(f, points)
    if values.shape[0] != points.shape[0]:
        raise ValueError("function did not return one value per node")
    return _require_finite(values, points)


def _require_finite(values, points):
    """`values`, whose last axis runs over `points`; a non-finite one raises
    ValueError naming its node."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"non-finite evaluation at node {points[bad[0] % len(points)].tolist()}")
    return values


def evaluate_on_nodes(f, rule):
    """Evaluate `f` at the rule's nodes: a polynomial, a vectorised callable
    or an ndarray of its values there.  On a rule with `shells`, a real ridge
    sum (an `f` with `graded_values`) is evaluated at the sphere nodes only: a
    unit's degree-k part scales by r^k on the shell of radius r, so each
    unit's values on the shells are the radii's powers times its graded
    values, and the units are summed at the nodes, in the rule's radius-major
    order.  A non-finite value raises ValueError."""
    if rule.shells is None or not hasattr(f, "graded_values"):
        return _finite_values(f, rule.nodes)
    radii, sphere = rule.shells
    values = np.zeros((len(radii), len(sphere)))
    with np.errstate(invalid="ignore", over="ignore"):
        for parts in f.graded_values(sphere):
            values += radii[:, None] ** np.arange(len(parts)) @ parts
    return _require_finite(values.reshape(-1), rule.nodes)


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
        return float(np.max(np.abs(_finite_values(f, points))))
    if not q >= 1:  # rejects NaN as well
        raise ValueError("q must be >= 1 or inf")
    return lq_of_values(evaluate_on_nodes(f, rule), rule, q)


def lq_of_values(values, rule, q):
    """L^q norm (finite q >= 1) of the values at the rule's nodes."""
    return float(np.sum(rule.weights * np.abs(values) ** q) ** (1.0 / q))


def ball_sup_grid(d, count):
    """Deterministic dense point set in B^d for sup-norm surrogates."""
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((count, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / d)
    pts *= radii[:, None]
    pts[0] = 0.0
    return pts
