"""Quasi-projection onto polynomial spaces on the ball.

The operator filters graded orthogonal-projection coefficients through a
smooth cutoff: f -> sum over degrees <= 2s-1 of eta(deg/s) <f, P_i> P_i.
It fixes every polynomial of degree <= s, maps into degree <= 2s-1, and has
an equivalent representation as a finite combination of Cesaro means coupled
by iterated forward differences of the cutoff.
"""

import math

import numpy as np

from .orthobasis import project_coefficients
from .quadrature import ball_sup_grid, evaluate_on_nodes, lq_norm


def mollifier(t):
    """exp(-1/t) on (0, inf), 0 elsewhere; all derivatives vanish at 0."""
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return float(out[0]) if scalar else out


def smooth_step(t):
    """Smooth monotone step: 0 for t <= 0, 1 for t >= 1."""
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a = np.zeros_like(t)
    pos = t > 0
    a[pos] = np.exp(-1.0 / t[pos])
    b = np.zeros_like(t)
    neg = t < 1
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    out = a / (a + b)
    return float(out[0]) if scalar else out


class CutoffFunction:
    """Smooth even cutoff: 1 on [-1, 1], 0 outside (-2, 2), monotone between."""

    def __init__(self, evaluator=None, smoothness="C-infinity"):
        self._evaluator = evaluator
        self.smoothness = smoothness

    def __call__(self, x):
        if self._evaluator is not None:
            return self._evaluator(x)
        x = np.asarray(x, dtype=float)
        return 1.0 - smooth_step(np.abs(x) - 1.0)


class QuasiProjector:
    """Degree-filtered projection f -> sum a_{i,s} <f, P_i> P_i over I_{2s-1}."""

    def __init__(self, basis, s, eta=None):
        if s < 1:
            raise ValueError("degree parameter s must be >= 1")
        if basis.max_degree < 2 * s - 1:
            raise ValueError(
                f"basis covers degree {basis.max_degree}, need {2 * s - 1}")
        self.basis = basis
        self.s = s
        self.eta = eta if eta is not None else CutoffFunction()
        self.indices = basis.index_set(2 * s - 1)
        degs = np.array([basis.degrees[i] for i in self.indices], dtype=float)
        self.coeffs = np.asarray(self.eta(degs / s), dtype=float)

    @property
    def default_sigma(self):
        """Cesaro order used in operator studies: floor(d/2) + 1."""
        return self.basis.dim // 2 + 1

    def basis_coefficients(self, f):
        return project_coefficients(f, self.basis, 2 * self.s - 1)

    def apply(self, f):
        c = self.basis_coefficients(f)
        return self.basis.combine(self.coeffs * c, self.indices)


def cesaro_mean(f, k, sigma, basis, _coeffs=None):
    """S_k^sigma(f): binomially weighted average of graded projections."""
    if sigma < 0 or k < 0:
        raise ValueError("need k >= 0 and sigma >= 0")
    if k > basis.max_degree:
        raise ValueError("basis does not cover degree k")
    c = project_coefficients(f, basis, k) if _coeffs is None else _coeffs
    weights = np.empty(len(basis.index_set(k)))
    for j in range(k + 1):
        w = math.comb(k - j + sigma, sigma)
        for i in basis.graded_block(j):
            weights[i] = w
    weights /= math.comb(k + sigma, sigma)
    return basis.combine(weights * c[: len(weights)], basis.index_set(k))


def forward_difference(g, sigma, k):
    """Iterated forward difference Delta^(sigma+1) g at k, with
    (Delta g)(x) = g(x) - g(x+1)."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    order = sigma + 1
    total = 0.0
    for j in range(order + 1):
        total += (-1) ** j * math.comb(order, j) * g(k + j)
    return total


def verify_cesaro_identity(proj, f, sigma):
    """Max coefficientwise deviation between apply(proj, f) and the truncated
    Cesaro representation sum_{k < 2s} Delta^(sigma+1) eta*(k) * binom(k+sigma,
    sigma) * S_k^sigma(f)."""
    s = proj.s
    basis = proj.basis
    direct = proj.apply(f)
    eta_star = lambda x: float(np.asarray(proj.eta(np.asarray(x, dtype=float) / s)))
    coeffs = proj.basis_coefficients(f)
    total = None
    for k in range(2 * s):
        factor = forward_difference(eta_star, sigma, k) * math.comb(k + sigma, sigma)
        term = cesaro_mean(f, k, sigma, basis, _coeffs=coeffs[: len(basis.index_set(k))])
        term = term.scale(factor)
        total = term if total is None else total + term
    diff = direct - total
    if diff.is_zero():
        return 0.0
    return max(abs(c) for c in diff.terms.values())


def _random_trial(proj, rng, kind):
    basis = proj.basis
    d, s = basis.dim, proj.s
    if kind == "poly":
        from .polycore import MultiIndexPolynomial, monomials_up_to
        degree = max(1, min(4 * s, basis.rule.exactness_degree - basis.max_degree))
        poly_terms = {k: rng.standard_normal() for k in monomials_up_to(d, degree)}
        return MultiIndexPolynomial(d, poly_terms)
    # localized bump profile centered inside the ball
    center = rng.standard_normal(d)
    center *= rng.random() * 0.6 / max(1e-12, np.linalg.norm(center))
    width = 0.15 + 0.5 * rng.random()

    def bump(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        arg = 1.0 - np.sum(((points - center) / width) ** 2, axis=1)
        return mollifier(arg)

    return bump


def estimate_l1_operator_norm(proj, trial_count, seed=0):
    """Empirical lower estimate of the L1 operator norm of the projector.

    Trials alternate random polynomials of degree <= 4s with localized bump
    profiles; each trial is seeded independently so larger trial counts extend
    (never replace) smaller ones.
    """
    if trial_count < 1:
        raise ValueError("need at least one trial")
    best = 0.0
    rule = proj.basis.rule
    for t in range(trial_count):
        rng = np.random.default_rng([seed, t])
        f = _random_trial(proj, rng, "poly" if t % 2 == 0 else "bump")
        denom = lq_norm(f, rule, 1)
        if denom < 1e-14:
            continue
        image = proj.apply(f)
        best = max(best, lq_norm(image, rule, 1) / denom)
    return best
