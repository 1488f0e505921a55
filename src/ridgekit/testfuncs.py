"""Hard test objects: the separated ridge/polynomial inner-product expansion,
the lattice bump family for lower-bound experiments, and the concentrated
singular family whose sup/L1/L2 norm ratio degenerates.

The expansion writes <rho(A .), P> over the ball as a finite sum of products
b_h(rho) * Q_h(sigma; P): the tail variables integrate to closed-form sphere
moments q_k, the head variables are parametrized hyperspherically, and every
power product cos^a sin^b is reduced to a linear combination of cos(h phi),
sin(h phi).
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_legendre

from .polycore import MultiIndexPolynomial, monomial_table, monomials_up_to
from .quadrature import (ball_volume, build_sphere_rule, inner_product,
                         sphere_monomial_integral)
from .quasiproj import smooth_step


def trig_reduce(a, b):
    """Coefficients (alpha_h, beta_h), h = 0..a+b, with
    cos^a(phi) sin^b(phi) = sum_h alpha_h cos(h phi) + beta_h sin(h phi).

    Computed exactly through the Laurent expansion in e^(i phi); the dyadic
    rational coefficients convert to floats without rounding.
    """
    if a < 0 or b < 0:
        raise ValueError("exponents must be non-negative")
    # Laurent coefficients of ((E + E^-1)/2)^a * ((E - E^-1)/(2i))^b,
    # stored as exact Gaussian rationals (re, im).
    coeffs = {0: (Fraction(1), Fraction(0))}

    def multiply(poly, pairs):
        out = {}
        for n, (re, im) in poly.items():
            for shift, (fre, fim) in pairs:
                key = n + shift
                ore, oim = out.get(key, (Fraction(0), Fraction(0)))
                out[key] = (ore + re * fre - im * fim, oim + re * fim + im * fre)
        return out

    half = Fraction(1, 2)
    cos_factor = [(1, (half, Fraction(0))), (-1, (half, Fraction(0)))]
    # 1/(2i) = -i/2
    sin_factor = [(1, (Fraction(0), -half)), (-1, (Fraction(0), half))]
    for _ in range(a):
        coeffs = multiply(coeffs, cos_factor)
    for _ in range(b):
        coeffs = multiply(coeffs, sin_factor)

    alpha = np.zeros(a + b + 1)
    beta = np.zeros(a + b + 1)
    for h in range(a + b + 1):
        re_p, im_p = coeffs.get(h, (Fraction(0), Fraction(0)))
        re_m, im_m = coeffs.get(-h, (Fraction(0), Fraction(0)))
        if h == 0:
            alpha[0] = float(re_p)
            continue
        alpha[h] = float(re_p + re_m)
        beta[h] = float(im_m - im_p)
    return alpha, beta


def q_coefficient(k, d, ell, sphere_rule=None):
    """Tail-moment coefficient: the monomial xi^(k_tail) integrated over
    S^(d-ell-1), divided by (|k_tail| + d - ell)."""
    k = tuple(int(e) for e in k)
    if len(k) != d:
        raise ValueError("multi-index length must be d")
    if not 1 <= ell < d:
        raise ValueError("need 1 <= ell < d")
    tail = k[ell:]
    weight = sum(tail) + (d - ell)
    if d - ell == 1:
        moment = float(1 + (-1) ** tail[0])
        return moment / weight
    if sphere_rule is None:
        sphere_rule = build_sphere_rule(d - ell - 1, max(2, sum(tail)))
    if sphere_rule.dim != d - ell or sphere_rule.exactness_degree < sum(tail):
        raise ValueError("sphere rule does not cover the tail moment")
    vals = monomial_table([tail], sphere_rule.nodes)[0]
    return sphere_rule.integrate_values(vals) / weight


def _angle_grids(ell, points):
    """Gauss-Legendre grids for the head-variable angles: the azimuthal angle
    over [-pi, pi], middle angles over [0, pi], the radial angle over [0, pi/2].
    For ell = 1 a single angle over [-pi/2, pi/2]."""
    x, w = roots_legendre(points)
    grids = []
    if ell == 1:
        lo, hi = -math.pi / 2, math.pi / 2
        grids.append(((hi - lo) / 2 * x + (hi + lo) / 2, (hi - lo) / 2 * w))
        return grids
    lo, hi = -math.pi, math.pi
    grids.append(((hi - lo) / 2 * x + (hi + lo) / 2, (hi - lo) / 2 * w))
    for _ in range(ell - 2):
        grids.append((math.pi / 2 * x + math.pi / 2, math.pi / 2 * w))
    grids.append((math.pi / 4 * x + math.pi / 4, math.pi / 4 * w))
    return grids


def _head_coordinates(ell, mesh):
    """Head variables as functions of the angle mesh (list of ell arrays of a
    common broadcast shape): u_1 = prod sin, u_j = cos(phi_(j-1)) prod_(k>=j) sin."""
    sines = [np.sin(phi) for phi in mesh]
    coords = []
    prod = 1.0
    for s in reversed(sines):
        prod = prod * s
    coords.append(prod)
    for j in range(2, ell + 1):
        val = np.cos(mesh[j - 2])
        for kk in range(j - 1, ell):
            val = val * sines[kk]
        coords.append(val)
    return coords


class ExpansionCertificate:
    """Precomputed coefficient machinery of the separated expansion for fixed
    (d, ell, s)."""

    def __init__(self, d, ell, s, sphere_rule=None):
        if not 1 <= ell < d:
            raise ValueError("need 1 <= ell < d")
        self.d, self.ell, self.s = d, ell, s
        self.freq_count = d + s + 1          # frequencies 0..d+s per angle
        self.mu = (2 * self.freq_count) ** ell
        self.multi_indices = monomials_up_to(d, s)
        if sphere_rule is None and d - ell >= 2:
            sphere_rule = build_sphere_rule(d - ell - 1, max(2, s))
        self.q = {k: q_coefficient(k, d, ell, sphere_rule) for k in self.multi_indices}
        self.zeta_factors = {k: self._slot_coefficients(k) for k in self.multi_indices}

    def _slot_coefficients(self, k):
        """Per-angle reduction coefficients: for each angle slot a vector of
        length 2 * freq_count, cosine block then sine block."""
        d, ell, H = self.d, self.ell, self.freq_count
        slots = []
        for kk in range(1, ell):  # azimuthal/middle angles
            a = k[kk]                       # cos exponent: k_(kk+1), 1-based
            b = kk - 1 + sum(k[:kk])        # Jacobian + accumulated sines
            slots.append(self._padded(a, b))
        tail_sum = sum(k[ell:])
        a_last = tail_sum + d - ell + 1
        b_last = ell - 1 + sum(k[:ell])
        slots.append(self._padded(a_last, b_last))
        return slots

    def _padded(self, a, b):
        alpha, beta = trig_reduce(a, b)
        vec = np.zeros(2 * self.freq_count)
        vec[: a + b + 1] = alpha
        vec[self.freq_count: self.freq_count + a + b + 1] = beta
        return vec

    def b_tensor(self, rho, points=48):
        """Angle integrals b_h(rho) for every composite trig index h, returned
        as a tensor with one axis of size 2*freq_count per angle."""
        grids = _angle_grids(self.ell, points)
        mesh = np.meshgrid(*[g[0] for g in grids], indexing="ij")
        if self.ell == 1:
            coords = [np.sin(mesh[0])]
        else:
            coords = _head_coordinates(self.ell, mesh)
        pts = np.stack([c.reshape(-1) for c in coords], axis=1)
        rho_vals = np.asarray(rho(pts), dtype=float).reshape(mesh[0].shape)
        weight = rho_vals
        for axis, (_, w) in enumerate(grids):
            shape = [1] * self.ell
            shape[axis] = -1
            weight = weight * w.reshape(shape)
        tensor = weight
        H = self.freq_count
        for axis, (phi, _) in enumerate(grids):
            table = np.empty((2 * H, len(phi)))
            hs = np.arange(H)[:, None]
            table[:H] = np.cos(hs * phi[None, :])
            table[H:] = np.sin(hs * phi[None, :])
            tensor = np.tensordot(table, tensor, axes=([1], [0]))
            tensor = np.moveaxis(tensor, 0, self.ell - 1)
        return tensor

    def head_weights(self, b_tensor):
        """Contract the b tensor against the per-multi-index reduction
        coefficients: w_k = sum_h zeta~_{h,k} b_h."""
        out = {}
        for k, slots in self.zeta_factors.items():
            t = b_tensor
            for vec in reversed(slots):
                t = t @ vec
            out[k] = float(t)
        return out


def change_of_variables_coefficients(P, sigma):
    """Coefficients P_k(sigma; P) of P(sigma y) = sum_k P_k y^k."""
    composed = P.compose_linear(np.asarray(sigma, dtype=float))
    return {tuple(k): float(c) for k, c in composed.terms.items()}


def random_coefficient_frame(d, ell, rng):
    """A with orthonormal rows and orthogonal sigma with A sigma = I_(ell x d)."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = Q.T[:ell]
    return A, Q


def verify_inner_product_expansion(rho, A, sigma, P, ball_rule,
                                   certificate=None, points=48):
    """Deviation |<rho(A .), P> - sum_h b_h(rho) Q_h(sigma; P)|."""
    A = np.asarray(A, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    ell, d = A.shape
    if np.max(np.abs(A @ sigma - np.eye(ell, d))) > 1e-10:
        raise ValueError("A sigma must equal the truncated identity")
    if certificate is None:
        certificate = ExpansionCertificate(d, ell, max(0, int(P.degree())))

    def ridge_side(points_arr):
        return np.asarray(rho(np.atleast_2d(points_arr) @ A.T), dtype=float)

    lhs = inner_product(ridge_side, P, ball_rule)
    b = certificate.b_tensor(rho, points=points)
    weights = certificate.head_weights(b)
    comps = change_of_variables_coefficients(P, sigma)
    rhs = sum(certificate.q[k] * weights[k] * comps.get(k, 0.0)
              for k in certificate.multi_indices)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Lattice bump family


class BumpFamily:
    """Signed combinations of disjoint rescaled bumps on a lattice in the ball,
    normalized so all sampled derivatives up to order r stay within 1."""

    def __init__(self, d, r, m, theta, points, side, derivative_sups, safety):
        self.d, self.r, self.m = d, r, m
        self.theta = theta
        self.points = np.asarray(points, dtype=float)
        self.side = side                    # 1-D plateau half-width 1/sqrt(d)
        self.derivative_sups = derivative_sups
        self.safety = safety
        # normalization so that max over |k| <= r of prod sup|u^(k_j)| <= 1
        worst = max(
            math.prod(derivative_sups[e] for e in k)
            for k in monomials_up_to(d, r)
        )
        self.normalization = worst * (1.0 + safety)

    def omega(self, x):
        """Normalized product bump; supported in the centered cube of
        half-width 1/sqrt(d), flat near the center."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.ones(x.shape[0])
        for j in range(self.d):
            out *= _plateau(x[:, j], self.side)
        return out / self.normalization

    def eval_f_eps(self, eps, x):
        eps = np.asarray(eps, dtype=float)
        if eps.shape[0] != self.m:
            raise ValueError(f"need {self.m} signs, got {eps.shape[0]}")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0])
        scale = (2 * self.theta) ** (-self.r)
        for sign, xi in zip(eps, self.points):
            out += sign * self.omega(2 * self.theta * (x - xi))
        return scale * out


def _plateau(t, side):
    """1-D smooth plateau: 1 on [-side/2, side/2], 0 outside (-side, side)."""
    return smooth_step((side - np.abs(t)) / (side / 2))


def _estimate_derivative_sups(side, r, grid_points=6000):
    """Finite-difference sup estimates of the plateau's derivatives 0..r."""
    lo, hi = -1.1 * side, 1.1 * side
    t = np.linspace(lo, hi, grid_points)
    h = t[1] - t[0]
    vals = _plateau(t, side)
    sups = [float(np.max(np.abs(vals)))]
    current = vals
    for _ in range(r):
        current = np.diff(current) / h
        sups.append(float(np.max(np.abs(current))))
    return sups


def make_bump_family(d, r, m, seed=None, safety=5e-3):
    """Family of hard test inputs: m disjoint bumps on the lattice
    {((i + 1/2)/(sqrt(d) theta)) : i in Z^d, -theta <= i < theta}."""
    if d < 1 or r < 0 or m < 1:
        raise ValueError("need d >= 1, r >= 0, m >= 1")
    root = m ** (1.0 / d)
    theta = max(1, math.ceil(root / 2 - 1e-9))
    while (2 * theta) ** d < m:
        theta += 1  # guard against floating roundoff in the root
    if theta > root + 1e-9:
        raise ValueError(f"no admissible lattice scale for d={d}, m={m}")
    lattice = []
    for idx in np.ndindex(*([2 * theta] * d)):
        point = tuple((i - theta + 0.5) / (math.sqrt(d) * theta) for i in idx)
        lattice.append(point)
    if seed is not None:
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(lattice))
        lattice = [lattice[i] for i in order]
    points = lattice[:m]
    side = 1.0 / math.sqrt(d)
    sups = _estimate_derivative_sups(side, r)
    return BumpFamily(d, r, m, theta, points, side, sups, safety)


# ---------------------------------------------------------------------------
# Concentrated singular family


def _ramp(x, n):
    """Continuous ramp: 0 below 1/n, linear up to 1 at 2/n, then 1."""
    return np.clip(n * x - 1.0, 0.0, 1.0)


def counterexample_ratio(n, d):
    """Ratio 2 ||P_n||_2^2 / (||P_n||_inf ||P_n||_1) for the family
    P_n(x) = x_1^(-1/3) * ramp_n(x_1) on the unit ball; tends to zero as the
    mass concentrates near the boundary of integrability."""
    if n < math.ceil(4 * math.sqrt(d)):
        raise ValueError(f"n below the family's regime (need n >= {math.ceil(4 * math.sqrt(d))})")
    slab = ball_volume(d - 1) if d > 1 else 1.0

    def cross_section(x):
        return slab * (1.0 - x * x) ** ((d - 1) / 2.0)

    def p_val(x):
        return x ** (-1.0 / 3.0) * float(_ramp(np.asarray(x), n))

    breakpoints = [2.0 / n]
    l2, _ = quad(lambda x: p_val(x) ** 2 * cross_section(x), 1.0 / n, 1.0,
                 points=breakpoints, limit=200)
    l1, _ = quad(lambda x: abs(p_val(x)) * cross_section(x), 1.0 / n, 1.0,
                 points=breakpoints, limit=200)
    sup = sup_norm_counterexample(n)
    return 2.0 * l2 / (sup * l1)


def sup_norm_counterexample(n):
    """Sup norm of the family member: attained at x_1 = 2/n where the ramp
    saturates and the singular factor is largest."""
    return (n / 2.0) ** (1.0 / 3.0)
