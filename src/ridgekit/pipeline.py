"""End-to-end approximation pipeline and verification suites.

The pipeline chain is: project a target function onto a polynomial space by
polynomial-exact discrete least squares, decompose the polynomial into a sum
of few-variable ridge terms, and measure the approximation error in the
requested L^q norm as the ridge budget n grows.
"""

import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .orthobasis import build_basis, filtered_projection
from .polycore import MultiIndexPolynomial, dim_homogeneous, monomials_up_to
from .quadrature import _finite_values, ball_sup_grid, build_ball_rule, evaluate_on_nodes, lq_norm
from .ridge_real import decompose, sample_spanning_directions

CSV_HEADER = "n,s,error_lq,residual,seconds"
# a sweep's rule is exact to degree 2 s + RULE_EXTRA_EXACTNESS
RULE_EXTRA_EXACTNESS = 2
# points of the `ball_sup_grid` that q = inf errors are taken on
SUP_GRID_SIZE = 4096


# ---------------------------------------------------------------------------
# Target functions


def _gaussian(points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.exp(-np.sum(points ** 2, axis=1))


def _ramp_cubed(points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.maximum(points[:, 0], 0.0) ** 3


def _cosine(points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.cos(np.pi * points[:, 0])


def _random_polynomial(d, params):
    rng = np.random.default_rng(int(params.get("seed", 0)))
    degree = int(params.get("degree", 3))
    return MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, degree)})


# each target's maker, called with the dimension and the target's params, and
# the params it reads
TARGETS = {
    "gaussian": (lambda d, params: _gaussian, ()),
    "ramp_cubed": (lambda d, params: _ramp_cubed, ()),
    "cosine": (lambda d, params: _cosine, ()),
    "random_polynomial": (_random_polynomial, ("degree", "seed")),
}


def _target_maker(name, params):
    """The maker of the target `name`; an unknown name, or a param the target
    does not read, raises ValueError."""
    if name not in TARGETS:
        raise ValueError(f"unknown target {name!r}")
    maker, reads = TARGETS[name]
    unread = sorted(set(params) - set(reads))
    if unread:
        raise ValueError(f"target {name!r} does not read params {unread}")
    return maker


def make_target(name, d, params=None):
    """Named target function on B^d; `random_polynomial` takes degree/seed params."""
    params = params or {}
    return _target_maker(name, params)(d, params)


# ---------------------------------------------------------------------------
# Configuration and report types


@dataclass
class ExperimentConfig:
    d: int
    ell: int
    r: int
    q: float
    n_list: tuple
    target: str = "gaussian"
    target_params: dict = field(default_factory=dict)
    seed: int = 0
    budget_factor: int = 1
    max_degree: int = 15
    record_timing: bool = True
    csv_path: str = None
    json_path: str = None

    def __post_init__(self):
        if not 1 <= self.ell < self.d:
            raise ValueError("need 1 <= ell < d")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not (self.q == math.inf or 1 <= self.q):
            raise ValueError("q must lie in [1, inf]")
        self.n_list = tuple(int(n) for n in self.n_list)
        if not self.n_list:
            raise ValueError("n_list must be non-empty")
        if any(b >= a for a, b in zip(self.n_list[1:], self.n_list)):
            raise ValueError("n_list must be strictly increasing")
        m = self.d - self.ell + 1
        if self.n_list[0] < m:
            raise ValueError(f"n_list entries must be >= {m}, the minimal direction count, "
                             f"got {self.n_list[0]}")
        if self.budget_factor < 1:
            raise ValueError("budget_factor must be >= 1")
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _target_maker(self.target, self.target_params or {})

    def to_json_dict(self):
        """Every field that is set, in declaration order; q = inf as "inf"."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if getattr(self, f.name) is not None}
        out["q"] = "inf" if self.q == math.inf else self.q
        out["n_list"] = list(self.n_list)
        return out

    @classmethod
    def from_json_dict(cls, obj):
        obj = dict(obj)
        if obj.get("q") == "inf":
            obj["q"] = math.inf
        return cls(**obj)


@dataclass
class RateReport:
    config: ExperimentConfig
    rows: list  # dicts: n, s, error_lq, residual, seconds
    slope: float  # None when fewer than 2 positive-error rows

    @property
    def theoretical_slope(self):
        return -self.config.r / (self.config.d - self.config.ell)

    def to_csv_text(self):
        lines = [CSV_HEADER]
        for row in self.rows:
            seconds = row["seconds"] if self.config.record_timing else 0.0
            lines.append(
                f"{row['n']},{row['s']},{row['error_lq']:.12e},"
                f"{row['residual']:.12e},{seconds:.12e}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "config": self.config.to_json_dict(),
            "rows": self.rows,
            "slope": self.slope,
            "theoretical_slope": self.theoretical_slope,
        }


# ---------------------------------------------------------------------------
# Pipeline stages


def fit_polynomial(f, s, basis):
    """Discrete-L^2 best polynomial approximation of degree <= s: the sharp
    cutoff, weight 1 on every degree.  `f` is a polynomial, a vectorised
    callable or an ndarray of its values at the basis rule's nodes."""
    return filtered_projection(f, basis, np.ones(s + 1))


def select_degree(n, d, ell, budget_factor=1, max_degree=15):
    """Largest s with dim_homogeneous(d - ell + 1, s) <= n / budget_factor,
    clipped into [1, max_degree]."""
    m = d - ell + 1
    budget = n // budget_factor
    s = 1
    while s + 1 <= max_degree and dim_homogeneous(m, s + 1) <= budget:
        s += 1
    return s


def _lq_error(f_values, g, rule, q, sup_grid):
    """L^q norm of f - g on the rule, or for q = inf on the sup grid, from the
    values `f_values` of f there.  At a finite q, `evaluate_on_nodes` takes g
    (a ridge sum shell by shell on a rule with shells)."""
    g_values = evaluate_on_nodes(g, rule) if sup_grid is None else _finite_values(g, sup_grid)
    return lq_norm(f_values - g_values, rule, q, sup_grid=sup_grid)


def approximate_by_ridge(f, n, cfg, basis, rule):
    """Fit + decompose with budget n on `basis`, which is built on the nodes
    of `rule`; returns (decomposition, error report dict).  f is evaluated
    once on the rule, and at q = inf once on the sup grid; both errors, and
    the fit of a target that is not a polynomial, read those values."""
    d, ell = cfg.d, cfg.ell
    m = d - ell + 1
    if n < m:
        raise ValueError(f"budget n={n} below the minimal direction count {m}")
    if not np.array_equal(basis.rule.nodes, rule.nodes):
        raise ValueError("the basis is not built on the rule's nodes")
    s = select_degree(n, d, ell, cfg.budget_factor, cfg.max_degree)
    on_rule = evaluate_on_nodes(f, rule)
    sup_grid = ball_sup_grid(d, SUP_GRID_SIZE) if cfg.q == math.inf else None
    f_values = on_rule if sup_grid is None else _finite_values(f, sup_grid)

    # a polynomial keeps its coefficient-space projection, exact to rounding
    fitted = fit_polynomial(f if isinstance(f, MultiIndexPolynomial) else on_rule, s, basis)
    fit_error = _lq_error(f_values, fitted, rule, cfg.q, sup_grid)

    n_dirs = dim_homogeneous(m, s)
    dirs = sample_spanning_directions(m, s, n_dirs, seed=int(np.random.default_rng(
        [cfg.seed, n]).integers(0, 2 ** 31)))
    dec = decompose(fitted, dirs, d, ell)
    total_error = _lq_error(f_values, dec, rule, cfg.q, sup_grid)

    # triangle inequality guard (residual is a sup-norm bound, so it dominates
    # every L^q norm on the unit-volume ball)
    bound = fit_error + dec.residual + 1e-12 * (1.0 + fit_error)
    if total_error > bound * (1.0 + 1e-9) + 1e-12:
        raise RuntimeError(
            f"total error {total_error:.3e} exceeds fit + residual bound {bound:.3e}")

    report = {
        "n": n,
        "s": s,
        "n_directions": n_dirs,
        "fit_error": fit_error,
        "residual": dec.residual,
        "error_lq": total_error,
        "direction_condition": dirs.condition_number,
    }
    return dec, report


def _fit_slope(rows):
    pts = [(math.log(r["n"]), math.log(r["error_lq"])) for r in rows if r["error_lq"] > 0]
    if len(pts) < 2:
        return None
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def rate_sweep(cfg):
    """Run the pipeline over cfg.n_list; emit CSV/JSON when paths are set.
    Each path is opened for appending before any work, so one that cannot be
    written raises OSError before the rule is built; a file that the probe
    creates is removed again, so a failed sweep leaves none behind."""
    for path in filter(None, (cfg.csv_path, cfg.json_path)):
        existed = Path(path).exists()
        open(path, "a").close()
        if not existed:
            Path(path).unlink()
    d = cfg.d
    s_max = max(select_degree(n, d, cfg.ell, cfg.budget_factor, cfg.max_degree)
                for n in cfg.n_list)
    rule = build_ball_rule(d, 2 * s_max + RULE_EXTRA_EXACTNESS)
    basis = build_basis(d, s_max, rule)
    target = make_target(cfg.target, d, cfg.target_params)

    rows = []
    for n in cfg.n_list:
        start = time.perf_counter()
        _, row = approximate_by_ridge(target, n, cfg, basis, rule)
        rows.append({**row, "seconds": time.perf_counter() - start})
    report = RateReport(cfg, rows, _fit_slope(rows))
    if cfg.csv_path:
        Path(cfg.csv_path).write_text(report.to_csv_text())
    if cfg.json_path:
        Path(cfg.json_path).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return report


# ---------------------------------------------------------------------------
# Verification suites


def _verify_projector():
    from .quasiproj import QuasiProjector
    d, s = 2, 2
    rule = build_ball_rule(d, 4 * s + 2)
    basis = build_basis(d, 2 * s - 1, rule)
    proj = QuasiProjector(basis, s)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        P = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, s)})
        image = proj.apply(P)
        diff = image - P
        num = math.sqrt(sum(float(c) ** 2 for c in diff.terms.values())) if diff.terms else 0.0
        den = math.sqrt(sum(float(c) ** 2 for c in P.terms.values()))
        worst = max(worst, num / den)
    return {"suite": "projector", "worst_relative_residual": worst,
            "passed": worst < 1e-8}


def _verify_expansion():
    from .testfuncs import (ExpansionCertificate, random_coefficient_frame,
                            verify_inner_product_expansion)
    d, ell, s = 3, 1, 2
    rule = build_ball_rule(d, 40)
    cert = ExpansionCertificate(d, ell, s)
    rng = np.random.default_rng(1)
    rho = MultiIndexPolynomial(ell, {k: rng.standard_normal()
                                     for k in monomials_up_to(ell, s)})
    P = MultiIndexPolynomial(d, {k: rng.standard_normal() for k in monomials_up_to(d, s)})
    A, sigma = random_coefficient_frame(d, ell, rng)
    deviation = verify_inner_product_expansion(rho, A, sigma, P, rule, certificate=cert)
    return {"suite": "expansion", "deviation": deviation, "passed": deviation < 1e-6}


def _verify_trig():
    from .testfuncs import trig_reduce
    grid = np.linspace(-math.pi, math.pi, 2001)
    worst = 0.0
    for a in range(0, 7):
        for b in range(0, 7 - a):
            alphas, betas = trig_reduce(a, b)
            lhs = np.cos(grid) ** a * np.sin(grid) ** b
            rhs = np.zeros_like(grid)
            for h, (al, be) in enumerate(zip(alphas, betas)):
                rhs += float(al) * np.cos(h * grid) + float(be) * np.sin(h * grid)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return {"suite": "trig", "worst_deviation": worst, "passed": worst < 1e-10}


def _verify_bumps():
    from .testfuncs import make_bump_family
    family = make_bump_family(d=1, r=2, m=4, seed=0)
    grid = np.linspace(-1, 1, 4001)[:, None]
    eps = np.ones(len(family.points))
    values = family.eval_f_eps(eps, grid)
    bound = float(np.max(np.abs(values)))
    return {"suite": "bumps", "max_abs_value": bound, "passed": bound <= 1.0 + 1e-6}


def _verify_counterexample():
    from .testfuncs import counterexample_ratio, sup_norm_counterexample
    ratios = [counterexample_ratio(n, 2) for n in (16, 64, 256)]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    sup_ok = abs(sup_norm_counterexample(16) - (16 / 2) ** (1 / 3)) == 0.0
    return {"suite": "counterexample", "ratios": ratios,
            "passed": decreasing and sup_ok}


VERIFY_SUITES = {
    "projector": _verify_projector,
    "expansion": _verify_expansion,
    "trig": _verify_trig,
    "bumps": _verify_bumps,
    "counterexample": _verify_counterexample,
}


def verify(suite):
    """Run one named verification suite ("all" runs every suite)."""
    if suite == "all":
        reports = [fn() for fn in VERIFY_SUITES.values()]
        return {"suite": "all", "reports": reports,
                "passed": all(r["passed"] for r in reports)}
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(VERIFY_SUITES)} or 'all'")
    return VERIFY_SUITES[suite]()
