"""End-to-end acceptance checks for the whole toolkit, one test per claim.

Each test pins the tolerances and parameter grids the package commits to;
module-level unit tests cover the finer-grained contracts.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ridgekit.orthobasis import build_basis
from ridgekit.polycore import (ComplexBiPolynomial, ExactComplex,
                               MultiIndexPolynomial, _homogeneous_exponents,
                               dim_complex_bihomogeneous, dim_homogeneous,
                               monomials_up_to)
from ridgekit.quadrature import ball_sup_grid, build_ball_rule, lq_norm
from ridgekit.quasiproj import (QuasiProjector, estimate_l1_operator_norm,
                                verify_cesaro_identity)
from ridgekit.ridge_real import (decompose, sample_spanning_directions,
                                 spanning_rank)

from conftest import cached_basis, cached_rule

FIXED_POINT_TOL = 1e-8
CESARO_TOL = 1e-8
NORM_FLATNESS_FACTOR = 10.0
DECOMPOSITION_TOL = 1e-8
WIRTINGER_MAX_ORDER = 4
TRIG_TOL = 1e-10
EXPANSION_TOL = 1e-6
BUMP_DERIVATIVE_BOUND = 1.0 + 1e-6
NETWORK_DELTA = 1e-6
MONOTONE_JITTER = 1e-9


def random_poly(d, degree, rng):
    return MultiIndexPolynomial(d, {k: rng.standard_normal()
                                    for k in monomials_up_to(d, degree)})


# ---------------------------------------------------------------------------
# 1. Quasi-projection fixes every polynomial of degree <= s


def test_acceptance_01_quasi_projection_fixed_point():
    rng = np.random.default_rng(101)
    for d in (1, 2, 3):
        for s in range(1, 7):
            basis = cached_basis(d, 2 * s - 1, 4 * s + 2)
            proj = QuasiProjector(basis, s)
            rule = basis.rule
            for _ in range(20):
                p = random_poly(d, s, rng)
                diff = proj.apply(p) - p
                rel = lq_norm(diff, rule, 2) / lq_norm(p, rule, 2)
                assert rel < FIXED_POINT_TOL, (d, s, rel)


# ---------------------------------------------------------------------------
# 2. Cesaro / forward-difference representation of the projector


def test_acceptance_02_cesaro_identity():
    rng = np.random.default_rng(102)
    for d in (1, 2):
        for s in range(1, 5):
            basis = cached_basis(d, 2 * s - 1, 4 * s + 2)
            proj = QuasiProjector(basis, s)
            for sigma in (0, 1, 2):
                for _ in range(20):
                    f = random_poly(d, 2 * s - 1, rng)
                    assert verify_cesaro_identity(proj, f, sigma) < CESARO_TOL, \
                        (d, s, sigma)


# ---------------------------------------------------------------------------
# 3. Empirical L1 operator norms stay flat across degrees


def test_acceptance_03_l1_operator_norm_flatness():
    d = 2
    basis = cached_basis(d, 15, 48)
    estimates = []
    for s in range(1, 9):
        proj = QuasiProjector(basis, s)
        estimates.append(estimate_l1_operator_norm(proj, 16, seed=103))
    low = min(estimates)
    assert low > 0
    assert max(estimates) <= NORM_FLATNESS_FACTOR * low, estimates


# ---------------------------------------------------------------------------
# 4. Real ridge decompositions reconstruct exactly; fewer directions fail


def test_acceptance_04_real_ridge_decomposition():
    rng = np.random.default_rng(104)
    for d in (2, 3, 4):
        grid = ball_sup_grid(d, 512)
        for ell in range(1, d):
            m = d - ell + 1
            for s in range(1, 6):
                n = dim_homogeneous(m, s)
                dirs = sample_spanning_directions(m, s, n, seed=1000 * d + 10 * ell + s)
                for _ in range(50):
                    P = random_poly(d, s, rng)
                    dec = decompose(P, dirs, d, ell)
                    residual = float(np.max(np.abs(dec.eval_many(grid) - P.eval_many(grid))))
                    scale = 1.0 + float(np.max(np.abs(P.eval_many(grid))))
                    assert residual < DECOMPOSITION_TOL * scale, (d, ell, s)
                if n > 1:
                    rank, _ = spanning_rank(dirs.vectors[: n - 1], s)
                    assert rank < n, (d, ell, s)


# ---------------------------------------------------------------------------
# 5. Complex ridge decompositions reconstruct exactly


def test_acceptance_05_complex_ridge_decomposition():
    from conftest import complex_sup_grid
    from ridgekit.ridge_complex import complex_decompose, sample_complex_directions
    rng = np.random.default_rng(105)
    for d in (2, 3):
        for s in range(1, 4):
            terms = {}
            for a in range(s + 1):
                for b in range(s + 1):
                    for k in _homogeneous_exponents(d, a):
                        for l in _homogeneous_exponents(d, b):
                            terms[(k, l)] = complex(rng.standard_normal(),
                                                    rng.standard_normal())
            P = ComplexBiPolynomial(d, terms)
            n = dim_complex_bihomogeneous(d, s, s)
            dirs = sample_complex_directions(d, s, s, n, seed=10 * d + s)
            dec = complex_decompose(P, dirs)
            grid = complex_sup_grid(d, 512)
            residual = float(np.max(np.abs(dec.eval_many(grid) - P.eval_many(grid))))
            scale = 1.0 + float(np.max(np.abs(P.eval_many(grid))))
            assert residual < DECOMPOSITION_TOL * scale, (d, s)


# ---------------------------------------------------------------------------
# 6. Wirtinger identities hold exactly in rational arithmetic


def test_acceptance_06_wirtinger_identities():
    from ridgekit.ridge_complex import (verify_power_identity,
                                        verify_wirtinger_monomial_identity)
    # exhaustive monomial identity: all equal-order index pairs with orders <= 4
    for d in (1, 2, 3):
        max_total = WIRTINGER_MAX_ORDER if d < 3 else 3
        for total_k in range(max_total + 1):
            for total_l in range(max_total + 1 - total_k):
                ks = _homogeneous_exponents(d, total_k)
                ls = _homogeneous_exponents(d, total_l)
                for k in ks:
                    for kp in ks:
                        for l in ls:
                            for lp in ls:
                                assert verify_wirtinger_monomial_identity(k, l, kp, lp)
    # power identity at 100 random rational directions with s, t <= 3
    rng = np.random.default_rng(106)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        a = [ExactComplex(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))),
                          Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))))
             for _ in range(d)]
        s = int(rng.integers(0, 4))
        t = int(rng.integers(0, 4))
        k = list(_homogeneous_exponents(d, s))[int(rng.integers(0, dim_homogeneous(d, s)))]
        l = list(_homogeneous_exponents(d, t))[int(rng.integers(0, dim_homogeneous(d, t)))]
        assert verify_power_identity(a, k, l)


# ---------------------------------------------------------------------------
# 7. Trigonometric power reduction


def test_acceptance_07_trig_power_reduction():
    from ridgekit.testfuncs import trig_reduce
    grid = np.linspace(-math.pi, math.pi, 10_000)
    for a in range(11):
        for b in range(11 - a):
            alphas, betas = trig_reduce(a, b)
            lhs = np.cos(grid) ** a * np.sin(grid) ** b
            rhs = np.zeros_like(grid)
            for h, (al, be) in enumerate(zip(alphas, betas)):
                if al:
                    rhs += float(al) * np.cos(h * grid)
                if be:
                    rhs += float(be) * np.sin(h * grid)
            assert float(np.max(np.abs(lhs - rhs))) < TRIG_TOL, (a, b)


# ---------------------------------------------------------------------------
# 8. Ridge-profile inner products expand through angular moments


def test_acceptance_08_inner_product_expansion():
    from ridgekit.testfuncs import (ExpansionCertificate,
                                    random_coefficient_frame,
                                    verify_inner_product_expansion)
    d = 3
    rule = cached_rule(d, 40)
    rng = np.random.default_rng(108)
    for ell in (1, 2):
        for s in (1, 2, 3):
            cert = ExpansionCertificate(d, ell, s)
            for _ in range(10):
                rho = random_poly(ell, s, rng)
                P = random_poly(d, s, rng)
                A, sigma = random_coefficient_frame(d, ell, rng)
                deviation = verify_inner_product_expansion(
                    rho, A, sigma, P, rule, certificate=cert)
                assert deviation < EXPANSION_TOL, (ell, s, deviation)
    # raising the angular quadrature exactness tightens the identity
    cert = ExpansionCertificate(d, 2, 2)
    rho = random_poly(2, 2, rng)
    P = random_poly(d, 2, rng)
    A, sigma = random_coefficient_frame(d, 2, rng)
    coarse = verify_inner_product_expansion(rho, A, sigma, P, rule,
                                            certificate=cert, points=4)
    fine = verify_inner_product_expansion(rho, A, sigma, P, rule,
                                          certificate=cert, points=32)
    assert fine < coarse


# ---------------------------------------------------------------------------
# 9. Concentrating family: norm ratio decays, sup norm exact


def test_acceptance_09_counterexample_family():
    from ridgekit.testfuncs import counterexample_ratio, sup_norm_counterexample
    ratios = [counterexample_ratio(n, 2) for n in (16, 64, 256, 1024)]
    assert all(b < a for a, b in zip(ratios, ratios[1:])), ratios
    for n in (16, 64, 256, 1024):
        assert sup_norm_counterexample(n) >= (n / 2.0) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# 10. Bump families stay inside the unit derivative ball


def sampled_derivative_bound(family, eps, r, points_per_axis):
    """Max over |k| <= r of finite-difference quotients on a uniform grid; by
    the mean value theorem each quotient equals a true mixed partial at an
    intermediate point, so the sample never exceeds the true sup."""
    d = family.d
    axes = [np.linspace(-1.0, 1.0, points_per_axis) for _ in range(d)]
    h = axes[0][1] - axes[0][0]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    values = family.eval_f_eps(eps, pts).reshape([points_per_axis] * d)
    worst = 0.0
    for k in monomials_up_to(d, r):
        arr = values
        for axis, order in enumerate(k):
            for _ in range(order):
                arr = np.diff(arr, axis=axis)
        worst = max(worst, float(np.max(np.abs(arr))) / h ** sum(k))
    return worst


def test_acceptance_10_bump_family_derivative_bounds():
    from ridgekit.testfuncs import make_bump_family
    rng = np.random.default_rng(110)
    cells = [(1, 1, 2), (1, 3, 4), (1, 3, 16), (2, 2, 4), (2, 3, 16)]
    for d, r, m in cells:
        family = make_bump_family(d, r, m, seed=0)
        eps = rng.choice([-1.0, 1.0], size=m)
        points_per_axis = 6001 if d == 1 else 401
        bound = sampled_derivative_bound(family, eps, r, points_per_axis)
        assert bound <= BUMP_DERIVATIVE_BOUND, (d, r, m, bound)


# ---------------------------------------------------------------------------
# 11. Dictionary networks emulate ridge sums within a certificate of at most n * delta


def test_acceptance_11_network_emulation():
    from ridgekit.networks import (ComplexPolynomialDictionary,
                                   PolynomialDictionary,
                                   cvnn_from_decomposition,
                                   gtn_from_decomposition, phi_eval, tau_eval)
    from ridgekit.ridge_real import RidgeDecomposition, orthonormalize_rows

    # cell-exactness of the activations at tested dictionary indices
    real_dict = PolynomialDictionary(2)
    assert tau_eval(real_dict, np.array([3.0, 0.0])) == 0.0  # index 1: zero
    ident = MultiIndexPolynomial(2, {(1, 0): Fraction(1)})
    m_id = real_dict.index_of(ident)
    assert tau_eval(real_dict, np.array([3.0 * m_id + 0.25, 0.5])) == 0.25
    complex_dict = ComplexPolynomialDictionary()
    wwbar = ComplexBiPolynomial(1, {((1,), (1,)): ExactComplex(1, 0)})
    m_ww = complex_dict.index_of(wwbar)
    w = 0.5 - 0.5j
    assert phi_eval(complex_dict, w + 3.0 * m_ww) == w * w.conjugate()

    # GTN emulation
    rng = np.random.default_rng(111)
    d, ell, s = 3, 2, 3
    P = random_poly(d, s, rng)
    dirs = sample_spanning_directions(d - ell + 1, s,
                                      dim_homogeneous(d - ell + 1, s), seed=11)
    dec = decompose(P, dirs, d, ell)
    mats, profs = zip(*(orthonormalize_rows(A, pr)
                        for A, pr in zip(dec.matrices, dec.profiles)))
    dec = RidgeDecomposition(d, ell, list(mats), list(profs))
    net = gtn_from_decomposition(dec, real_dict, NETWORK_DELTA)
    grid = ball_sup_grid(d, 1000)
    gtn_err = float(np.max(np.abs(net.eval_many(grid) - P.eval_many(grid))))
    assert gtn_err <= net.n * NETWORK_DELTA, gtn_err
    # the certificate bounds the emulation error itself, net against ridge sum
    emulation_err = float(np.max(np.abs(net.eval_many(grid) - dec.eval_many(grid))))
    assert emulation_err <= net.certificate <= net.n * NETWORK_DELTA, (
        emulation_err, net.certificate)

    # CVNN emulation
    from conftest import complex_sup_grid
    from ridgekit.ridge_complex import complex_decompose, sample_complex_directions
    dc, sc = 2, 2
    terms = {}
    for a in range(sc + 1):
        for b in range(sc + 1):
            for k in _homogeneous_exponents(dc, a):
                for l in _homogeneous_exponents(dc, b):
                    terms[(k, l)] = complex(rng.standard_normal(),
                                            rng.standard_normal())
    PC = ComplexBiPolynomial(dc, terms)
    n = dim_complex_bihomogeneous(dc, sc, sc)
    cdirs = sample_complex_directions(dc, sc, sc, n, seed=12)
    cdec = complex_decompose(PC, cdirs)
    cnet = cvnn_from_decomposition(cdec, complex_dict, NETWORK_DELTA)
    cgrid = complex_sup_grid(dc, 1000)
    cvnn_err = float(np.max(np.abs(cnet.eval_many(cgrid) - PC.eval_many(cgrid))))
    assert cvnn_err <= cnet.n * NETWORK_DELTA, cvnn_err
    emulation_err = float(np.max(np.abs(cnet.eval_many(cgrid) - cdec.eval_many(cgrid))))
    assert emulation_err <= cnet.certificate <= cnet.n * NETWORK_DELTA, (
        emulation_err, cnet.certificate)


# ---------------------------------------------------------------------------
# 12. More activation variables means a steeper error decay


def test_acceptance_12_rate_ordering():
    from ridgekit.pipeline import ExperimentConfig, rate_sweep

    slopes = {}
    errors = {}
    for ell in (1, 2):
        cfg = ExperimentConfig(
            d=3, ell=ell, r=3, q=2, n_list=(4, 8, 16, 32, 64),
            target="ramp_cubed", seed=112, budget_factor=4, max_degree=15,
            record_timing=False)
        report = rate_sweep(cfg)
        slopes[ell] = report.slope
        errors[ell] = [row["error_lq"] for row in report.rows]
    assert slopes[2] < slopes[1], slopes
    for ell in (1, 2):
        seq = errors[ell]
        assert all(b <= a + MONOTONE_JITTER for a, b in zip(seq, seq[1:])), (ell, seq)
