import functools

import numpy as np
import pytest
from hypothesis import settings

import ridgekit.ridge_real
from ridgekit.compensated import dd_add, dd_monomials, dd_mul
from ridgekit.orthobasis import build_basis
from ridgekit.quadrature import build_ball_rule

# Same example counts as the default profile, drawn from a fixed seed, so a CI
# run tests the same examples every time (select with --hypothesis-profile=ci).
settings.register_profile("ci", derandomize=True)


@functools.lru_cache(maxsize=None)
def cached_rule(d, exactness):
    return build_ball_rule(d, exactness)


@functools.lru_cache(maxsize=None)
def cached_basis(d, max_degree, exactness=None):
    if exactness is None:
        exactness = 2 * max_degree + 2
    return build_basis(d, max_degree, cached_rule(d, exactness))


@pytest.fixture(scope="session")
def rule_factory():
    return cached_rule


@pytest.fixture(scope="session")
def basis_factory():
    return cached_basis


@pytest.fixture
def residual_dot_calls(monkeypatch):
    """A list that grows by one entry per `compensated.residual_dot` call
    made for a ridge certificate."""
    calls = []
    residual_dot = ridgekit.ridge_real.residual_dot

    def counting(*args):
        calls.append(args)
        return residual_dot(*args)

    monkeypatch.setattr(ridgekit.ridge_real, "residual_dot", counting)
    return calls


# Double-double evaluation, for tests whose reference must be far more
# accurate than double: about 1e-32 relative, the same on every platform.

def dd_total(pair):
    """Double-double sum over axis 0 of a (hi, lo) pair of real or complex
    arrays, one term after another."""
    hi, lo = pair
    if np.iscomplexobj(hi):
        re, im = dd_total((hi.real, lo.real)), dd_total((hi.imag, lo.imag))
        return re[0] + 1j * im[0], re[1] + 1j * im[1]
    acc = (np.zeros(hi.shape[1:]), np.zeros(hi.shape[1:]))
    for t in range(hi.shape[0]):
        acc = dd_add(acc, (hi[t], lo[t]))
    return acc


def dd_linear(points, matrix):
    """(hi, lo) of points @ matrix.T, for double points (N, k) and a double
    matrix (ell, k), real or complex."""
    columns = np.asarray(points)[None, :, :]
    rows = np.asarray(matrix)[:, None, :]
    products = dd_mul((columns, np.zeros_like(columns)), (rows, np.zeros_like(rows)))
    hi, lo = dd_total(tuple(np.moveaxis(part, 2, 0) for part in products))
    return hi.T, lo.T


def dd_poly_values(exponents, coeffs, points):
    """(hi, lo) of sum_t coeffs[t] * points ** exponents[t] at the
    double-double points (hi, lo) of shape (N, k)."""
    exponents = np.asarray(exponents, dtype=np.intp).reshape(-1, points[0].shape[1])
    return dd_total(dd_monomials(exponents, points, np.asarray(coeffs)))
