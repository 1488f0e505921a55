"""Quasi-projection onto polynomial spaces on the ball.

The operator filters graded orthogonal-projection coefficients through a
smooth cutoff, one weight per degree (orthobasis.filtered_projection):
f -> sum over degrees <= 2s-1 of eta(deg/s) <f, P_i> P_i.
It fixes every polynomial of degree <= s, maps into degree <= 2s-1, and has
an equivalent representation as a finite combination of Cesaro means coupled
by iterated forward differences of the cutoff.  A Cesaro mean is the same
filtered projection with binomial weights.
"""

import math

import numpy as np

from .orthobasis import _monomial_coefficients, filtered_projection
from .polycore import _grlex_multi_indices, contract_terms, terms_layout
from .quadrature import _require_finite, evaluate_on_nodes, lq_of_values


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
    # a / (a + b) with a = exp(-1/t), b = exp(-1/(1-t)) is exactly 0 where
    # t <= 0 (a = 0) and exactly 1 where t >= 1 (b = 0), so only the points
    # strictly between (and NaN, which propagates) need the exponentials
    out = np.where(t >= 1, 1.0, 0.0)
    mid = ~((t <= 0) | (t >= 1))
    a, b = np.exp(-1.0 / t[mid]), np.exp(-1.0 / (1.0 - t[mid]))
    out[mid] = a / (a + b)
    return float(out[0]) if scalar else out


class CutoffFunction:
    """Smooth even cutoff: 1 on [-1, 1], 0 outside (-2, 2), monotone between."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return 1.0 - smooth_step(np.abs(x) - 1.0)


class QuasiProjector:
    """Degree-filtered projection f -> sum a_{i,s} <f, P_i> P_i over I_{2s-1}."""

    def __init__(self, basis, s):
        if s < 1:
            raise ValueError("degree parameter s must be >= 1")
        if basis.max_degree < 2 * s - 1:
            raise ValueError(
                f"basis covers degree {basis.max_degree}, need {2 * s - 1}")
        self.basis = basis
        self.s = s
        self.eta = CutoffFunction()
        self.weights = self.eta(np.arange(2 * s) / s)     # eta(j/s) for degree j < 2s

    def apply(self, f):
        return filtered_projection(f, self.basis, self.weights)


def cesaro_mean(f, k, sigma, basis):
    """S_k^sigma(f): binomially weighted average of graded projections, weight
    binom(k-j+sigma, sigma) / binom(k+sigma, sigma) on degree j <= k."""
    if sigma < 0 or k < 0:
        raise ValueError("need k >= 0 and sigma >= 0")
    weights = np.array([math.comb(k - j + sigma, sigma) for j in range(k + 1)], dtype=float)
    return filtered_projection(f, basis, weights / math.comb(k + sigma, sigma))


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
    total = None
    for k in range(2 * s):
        factor = forward_difference(eta_star, sigma, k) * math.comb(k + sigma, sigma)
        term = cesaro_mean(f, k, sigma, basis).scale(factor)
        total = term if total is None else total + term
    diff = direct - total
    if diff.is_zero():
        return 0.0
    return max(abs(c) for c in diff.terms.values())


def _bump_trial(d, rng):
    """Localized bump centered inside the ball, drawn from `rng`, on (N, d) points."""
    center = rng.standard_normal(d)
    center *= rng.random() * 0.6 / max(1e-12, np.linalg.norm(center))
    width = 0.15 + 0.5 * rng.random()
    return lambda points: mollifier(1.0 - np.sum(((points - center) / width) ** 2, axis=1))


def _rows_on_nodes(keys, rows, rule):
    """Values at the rule's nodes of the polynomials with coefficients `rows`
    over `keys`, by one stacked contraction; non-finite ones raise ValueError."""
    with np.errstate(invalid="ignore", over="ignore"):
        return _require_finite(contract_terms(terms_layout(keys, rows, rule.dim), rule.nodes),
                               rule.nodes)


def estimate_l1_operator_norm(proj, trial_count, seed=0):
    """Empirical lower estimate of the L1 operator norm of the projector.

    Trials alternate random polynomials of degree <= 4s with localized bump
    profiles; each trial is seeded independently so larger trial counts extend
    (never replace) smaller ones.  All polynomial trials are evaluated at the
    rule's nodes from their coefficients in one stacked contraction, and so
    are all images, over the monomials of degree <= 2s-1.  A trial's L1 norm
    and its projection read its node values."""
    if trial_count < 1:
        raise ValueError("need at least one trial")
    basis, rule, d = proj.basis, proj.basis.rule, proj.basis.dim
    degree = max(1, min(4 * proj.s, rule.exactness_degree - basis.max_degree))
    keys = _grlex_multi_indices(d, degree)
    # one draw gives the same stream as one standard_normal() per key
    draws = [np.random.default_rng([seed, t]).standard_normal(len(keys))
             for t in range(0, trial_count, 2)]
    polys = _rows_on_nodes(keys, np.array(draws), rule)
    denoms, images = [], []
    for t in range(trial_count):
        values = polys[t // 2] if t % 2 == 0 else evaluate_on_nodes(
            _bump_trial(d, np.random.default_rng([seed, t])), rule)
        denom = lq_of_values(values, rule, 1)  # the values are checked finite
        if denom >= 1e-14:
            denoms.append(denom)
            images.append(proj.apply(values))
    prefix = _grlex_multi_indices(d, 2 * proj.s - 1)
    rows = np.array([_monomial_coefficients(image, basis)[:len(prefix)]
                     for image in images]).reshape(-1, len(prefix))
    norms = [lq_of_values(values, rule, 1) for values in _rows_on_nodes(prefix, rows, rule)]
    return max([0.0] + [norm / denom for norm, denom in zip(norms, denoms)])
