import math
from fractions import Fraction

import numpy as np
import pytest

from ridgekit.polycore import MultiIndexPolynomial, monomials_up_to
from ridgekit.quadrature import build_ball_rule
from ridgekit.testfuncs import (ExpansionCertificate, counterexample_ratio,
                                make_bump_family, q_coefficient,
                                random_coefficient_frame,
                                sup_norm_counterexample, trig_reduce,
                                verify_inner_product_expansion)

TRIG_TOL = 1e-12
EXPANSION_TOL = 1e-6


def trig_error(a, b, grid):
    alphas, betas = trig_reduce(a, b)
    lhs = np.cos(grid) ** a * np.sin(grid) ** b
    rhs = np.zeros_like(grid)
    for h, (al, be) in enumerate(zip(alphas, betas)):
        rhs += float(al) * np.cos(h * grid) + float(be) * np.sin(h * grid)
    return float(np.max(np.abs(lhs - rhs)))


def test_trig_reduce_known_cases():
    # cos^2 = 1/2 + cos(2phi)/2 ; sin^2 = 1/2 - cos(2phi)/2 ; cos sin = sin(2phi)/2
    alphas, betas = trig_reduce(2, 0)
    assert alphas[0] == 0.5 and alphas[2] == 0.5 and np.all(betas == 0)
    alphas, betas = trig_reduce(0, 2)
    assert alphas[0] == 0.5 and alphas[2] == -0.5
    alphas, betas = trig_reduce(1, 1)
    assert betas[2] == 0.5 and np.all(alphas == 0)


def test_trig_reduce_pointwise():
    grid = np.linspace(-math.pi, math.pi, 1501)
    for a in range(5):
        for b in range(5):
            assert trig_error(a, b, grid) < TRIG_TOL


def test_trig_reduce_coefficients_dyadic():
    # the Laurent expansion only introduces powers of 1/2, so every
    # coefficient times 2^(a+b) must be an exact integer
    a, b = 3, 2
    alphas, betas = trig_reduce(a, b)
    scaled = np.concatenate([alphas, betas]) * 2.0 ** (a + b)
    assert np.all(scaled == np.round(scaled))


def test_q_coefficient_constant_two_dim():
    # ell = d - 1: the tail is one variable on {-1, 1}; even exponent integrates
    # to 2, odd to 0, then divide by |k_tail| + 1
    assert q_coefficient((0, 0, 0), 3, 2) == pytest.approx(2.0)
    assert q_coefficient((0, 0, 1), 3, 2) == pytest.approx(0.0)
    assert q_coefficient((0, 0, 2), 3, 2) == pytest.approx(2.0 / 3.0)


def test_q_coefficient_sphere_oracle():
    # d=3, ell=1: tail is two variables; moment of 1 over S^1 is 2*pi, divided
    # by 0 + 2
    assert q_coefficient((0, 0, 0), 3, 1) == pytest.approx(math.pi)


@pytest.mark.parametrize("ell", [1, 2])
def test_inner_product_expansion(ell):
    d, s = 3, 2
    rng = np.random.default_rng(10 + ell)
    rule = build_ball_rule(d, 40)
    cert = ExpansionCertificate(d, ell, s)
    rho = MultiIndexPolynomial(ell, {k: rng.standard_normal()
                                     for k in monomials_up_to(ell, s)})
    P = MultiIndexPolynomial(d, {k: rng.standard_normal()
                                 for k in monomials_up_to(d, s)})
    A, sigma = random_coefficient_frame(d, ell, rng)
    deviation = verify_inner_product_expansion(rho, A, sigma, P, rule, certificate=cert)
    assert deviation < EXPANSION_TOL


def test_expansion_deviation_decreases_with_quadrature():
    d, ell, s = 3, 1, 2
    rng = np.random.default_rng(3)
    rule = build_ball_rule(d, 40)
    cert = ExpansionCertificate(d, ell, s)
    rho = MultiIndexPolynomial(ell, {k: rng.standard_normal()
                                     for k in monomials_up_to(ell, s)})
    P = MultiIndexPolynomial(d, {k: rng.standard_normal()
                                 for k in monomials_up_to(d, s)})
    A, sigma = random_coefficient_frame(d, ell, rng)
    coarse = verify_inner_product_expansion(rho, A, sigma, P, rule,
                                            certificate=cert, points=4)
    fine = verify_inner_product_expansion(rho, A, sigma, P, rule,
                                          certificate=cert, points=24)
    assert fine < coarse


def test_bump_lattice_example():
    family = make_bump_family(d=1, r=2, m=2)
    assert family.theta == 1
    assert sorted(p[0] for p in family.points) == [-0.5, 0.5]


def test_bump_lattice_sandwich():
    for d in (1, 2):
        for m in (1, 2, 4, 9, 16):
            family = make_bump_family(d=d, r=1, m=m)
            root = m ** (1.0 / d)
            assert root / 2 - 1e-9 <= family.theta
            assert (2 * family.theta) ** d >= m


def test_bumps_disjoint_supports():
    family = make_bump_family(d=2, r=1, m=4)
    # each bump is supported in a cube of half-width side/(2 theta) around its
    # center; evaluating single bumps at other centers must give zero
    for i, xi in enumerate(family.points):
        eps = np.zeros(family.m)
        eps[i] = 1.0
        others = np.array([p for j, p in enumerate(family.points) if j != i])
        assert np.max(np.abs(family.eval_f_eps(eps, others))) == 0.0


def test_bump_value_at_center():
    family = make_bump_family(d=1, r=2, m=2)
    eps = np.array([1.0, -1.0])
    x = family.points[:1]
    expected = (2 * family.theta) ** (-family.r) / family.normalization
    assert family.eval_f_eps(eps, x)[0] == pytest.approx(expected)


def test_bump_values_bounded():
    family = make_bump_family(d=2, r=1, m=4, seed=0)
    rng = np.random.default_rng(1)
    eps = rng.choice([-1.0, 1.0], size=family.m)
    grid = rng.uniform(-1, 1, size=(4000, 2))
    assert np.max(np.abs(family.eval_f_eps(eps, grid))) <= 1.0 + 1e-9


def test_bump_family_invalid_m():
    with pytest.raises(ValueError):
        make_bump_family(d=1, r=1, m=0)


def test_counterexample_ratio_decreasing():
    ratios = [counterexample_ratio(n, 2) for n in (16, 64, 256)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_counterexample_sup_norm_exact():
    for n in (16, 64):
        assert sup_norm_counterexample(n) == (n / 2.0) ** (1.0 / 3.0)


def test_counterexample_rejects_small_n():
    with pytest.raises(ValueError):
        counterexample_ratio(4, 2)
