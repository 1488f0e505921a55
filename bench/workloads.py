"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in `setup` (input
generation and one-time builds, timed as set-up) and returns the fixed work of
one pass from `tasks`.  A task's `run` is timed; its `check` runs outside the
timed region and returns the number of failed correctness checks.  Workloads
with `op_targets` count one operation per call of those ridgekit callables;
the others count one operation per task, or per run of consecutive tasks that
share an `op` key.

See README.md in this directory for why each workload was chosen.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import ridgekit as rk
from tracer import Target

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_REFERENCE = os.path.join(HERE, "sweep_reference.json")

# The package's own acceptance tolerances (tests/test_acceptance.py).
SWEEP_RELATIVE_TOL = 1e-9
DECOMPOSITION_TOL = 1e-8
FIXED_POINT_TOL = 1e-8
NETWORK_DELTA = 1e-6


@dataclass
class Task:
    """`run` is timed; `check(result)` returns the failed checks.  Consecutive
    tasks with the same `op` key are timed parts of one operation."""

    run: object
    check: object
    op: object = None


def _rng(seed, tag):
    return np.random.default_rng([seed, tag])


def _child_seed(rng):
    return int(rng.integers(0, 2 ** 31))


def random_poly(d, degree, rng):
    return rk.MultiIndexPolynomial(d, {k: rng.standard_normal()
                                       for k in rk.monomials_up_to(d, degree)})


def random_complex_poly(d, s, rng):
    """Every z^k conj(z)^l with |k|, |l| <= s gets a random complex coefficient."""
    exponents = rk.monomials_up_to(d, s)
    terms = {(k, l): complex(rng.standard_normal(), rng.standard_normal())
             for k in exponents for l in exponents}
    return rk.ComplexBiPolynomial(d, terms)


def ball_points(d, count, rng):
    """Points spread over the unit ball B^d."""
    pts = rng.standard_normal((count, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.random((count, 1)) ** (1.0 / d)


def complex_ball_points(d, count, rng):
    """Points spread over the unit ball of C^d."""
    pts = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.random((count, 1)) ** (1.0 / (2 * d))


def real_directions(d, ell, s, rng):
    """Directions in R^(d-ell+1) certified to span degree s."""
    m = d - ell + 1
    return rk.sample_spanning_directions(m, s, rk.dim_homogeneous(m, s), seed=_child_seed(rng))


def complex_directions(d, s, rng):
    """Directions in C^d certified at bidegree (s, s)."""
    return rk.sample_complex_directions(d, s, s, rk.dim_complex_bihomogeneous(d, s, s),
                                        seed=_child_seed(rng))


def _within(values, target, tol):
    """True when max|values - target| <= tol * (1 + max|target|)."""
    residual = float(np.max(np.abs(values - target)))
    return residual <= tol * (1.0 + float(np.max(np.abs(target))))


# ---------------------------------------------------------------------------
# sweep: the paper's rate experiment


SWEEP_N_LIST = {"full": (4, 8, 16, 32, 64), "smoke": (4, 8, 16)}
# d=4, ell=3 is capped at max_degree=7: the default 15 asks for a 3876-term
# basis and was OOM-killed on an 8 GB machine (see README.md).
SWEEP_CONFIGS = {
    "full": {"d3_ell2": (3, 2, 15), "d4_ell3": (4, 3, 7)},
    "smoke": {"d3_ell2": (3, 2, 3), "d4_ell3": (4, 3, 2)},
}
SWEEP_CONFIG_SEEDS = 8


def sweep_config(size, label, config_seed):
    d, ell, max_degree = SWEEP_CONFIGS[size][label]
    return rk.ExperimentConfig(
        d=d, ell=ell, r=3, q=2, n_list=SWEEP_N_LIST[size], target="ramp_cubed",
        seed=config_seed, budget_factor=4, max_degree=max_degree,
        record_timing=True)


class Sweep:
    name = "sweep"
    op_targets = (Target("op", "pipeline", "approximate_by_ridge"),)

    def setup(self, seed, size):
        with open(SWEEP_REFERENCE) as handle:
            reference = json.load(handle)[size]
        # error_lq depends on the sampled directions at the 1e-8 level for
        # s=15, so the seed picks one of the configurations recorded from the
        # seed commit rather than an unrecorded one.
        config_seed = seed % SWEEP_CONFIG_SEEDS
        return [(sweep_config(size, label, config_seed), reference[label][str(config_seed)])
                for label in SWEEP_CONFIGS[size]]

    def tasks(self, state):
        return [Task(run=lambda cfg=cfg: rk.rate_sweep(cfg),
                     check=lambda report, expected=expected: _check_sweep(report, expected))
                for cfg, expected in state]


def _check_sweep(report, expected):
    errors = [row["error_lq"] for row in report.rows]
    failed = abs(len(errors) - len(expected))
    for got, want in zip(errors, expected):
        if not abs(got - want) <= SWEEP_RELATIVE_TOL * abs(want):
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# decompose_stream: many exact decompositions along certified directions, a
# few of them carried on to dictionary networks evaluated on 2000 points


STREAM_REAL_CASES = {
    "full": [(d, ell, s) for d in (3, 4) for ell in range(1, d) for s in (3, 5, 7)],
    "smoke": [(3, 1, 2), (3, 2, 3)],
}
STREAM_COMPLEX_CASES = {
    "full": [(d, s) for d in (2, 3) for s in (1, 2, 3)],
    "smoke": [(2, 1), (2, 2)],
}
# Polynomials per real case, by degree s.  Operation costs fall into clusters
# with gaps between them; these counts put the median operation inside the
# 17-18 ms cluster (d=3, s=7 and d=4, ell<3, s=5) instead of on a gap, where
# op_p50_ms would jump between clusters from run to run.
STREAM_REAL_PER_DEGREE = {"full": {3: 2, 5: 6, 7: 10}, "smoke": {2: 1, 3: 1}}
STREAM_COMPLEX_PER_CASE = {"full": 2, "smoke": 1}
CHECK_GRID_SIZE = 512


class DecomposeStream:
    name = "decompose_stream"
    op_targets = ()

    def setup(self, seed, size):
        rng = _rng(seed, 1)
        grids = {d: ball_points(d, CHECK_GRID_SIZE, rng) for d in (3, 4)}
        cgrids = {d: complex_ball_points(d, CHECK_GRID_SIZE, rng) for d in (2, 3)}
        ops = []
        for d, ell, s in STREAM_REAL_CASES[size]:
            dirs = real_directions(d, ell, s, rng)
            for _ in range(STREAM_REAL_PER_DEGREE[size][s]):
                ops.append(("real", random_poly(d, s, rng), dirs, d, ell, grids[d], {}))
        for d, s in STREAM_COMPLEX_CASES[size]:
            dirs = complex_directions(d, s, rng)
            for _ in range(STREAM_COMPLEX_PER_CASE[size]):
                ops.append(("complex", random_complex_poly(d, s, rng), dirs, d, None, cgrids[d],
                            {}))
        return {"ops": [ops[i] for i in rng.permutation(len(ops))],
                "emulations": _emulation_cases(seed, size)}

    def tasks(self, state):
        tasks = []
        for kind, poly, dirs, d, ell, grid, cache in state["ops"]:
            if kind == "real":
                run = lambda P=poly, D=dirs, d=d, ell=ell: rk.decompose(P, D, d, ell)
            else:
                run = lambda P=poly, D=dirs: rk.complex_decompose(P, D)
            check = lambda dec, P=poly, grid=grid, cache=cache: _check_decomposition(
                dec, P, grid, cache)
            tasks.append(Task(run=run, check=check))
        return tasks + _emulation_tasks(state["emulations"])


def _check_decomposition(dec, P, grid, cache):
    # P is fixed for the run, so its grid values are computed at the first check
    if "target" not in cache:
        cache["target"] = P.eval_many(grid)
    return int(not _within(dec.eval_many(grid), cache["target"], DECOMPOSITION_TOL))


# ---------------------------------------------------------------------------
# Emulations in decompose_stream: decomposition -> dictionary network -> values


# Network evaluation is a Python loop over points, the part of ridgekit most
# slowed by a busy host.  The slow-downs come and go faster than one
# evaluation of 2000 points takes, so each emulation is timed in parts (the
# network build, then its evaluation on each chunk of 100 points) and its
# latency is the sum of the parts' best times.  Splitting the points costs
# about 2% in per-call overhead.
EMULATE_REAL = {"full": [(3, 2, 3), (3, 1, 2), (4, 3, 3)], "smoke": [(3, 2, 2)]}
EMULATE_COMPLEX = {"full": [(2, 2)], "smoke": [(2, 1)]}
EMULATE_POINTS = {"full": 2000, "smoke": 200}
EMULATE_CHUNKS = {"full": 20, "smoke": 2}


def _emulation_cases(seed, size):
    rng = _rng(seed, 3)
    count = EMULATE_POINTS[size]
    grids = {d: ball_points(d, count, rng) for d in (3, 4)}
    cgrids = {d: complex_ball_points(d, count, rng) for d in (2, 3)}
    cases = []
    for d, ell, s in EMULATE_REAL[size]:
        P, dirs = random_poly(d, s, rng), real_directions(d, ell, s, rng)
        build = lambda P=P, D=dirs, d=d, ell=ell: _build_gtn(P, D, d, ell)
        cases.append((build, P, np.array_split(grids[d], EMULATE_CHUNKS[size])))
    for d, s in EMULATE_COMPLEX[size]:
        P, dirs = random_complex_poly(d, s, rng), complex_directions(d, s, rng)
        build = lambda P=P, D=dirs: _build_cvnn(P, D)
        cases.append((build, P, np.array_split(cgrids[d], EMULATE_CHUNKS[size])))
    return cases


def _emulation_tasks(cases):
    """One operation per emulation: a fresh network build, then one task per
    chunk of points, so every pass does the same work."""
    tasks = []
    for index, (build, poly, chunks) in enumerate(cases):
        op, built = ("emulation", index), {}
        tasks.append(Task(run=lambda build=build, built=built: built.update(net=build()),
                          check=lambda _: 0, op=op))
        for chunk in chunks:
            run = lambda built=built, chunk=chunk: (built["net"].n, built["net"].eval_many(chunk))
            check = lambda out, P=poly, chunk=chunk: _check_emulation(out, P, chunk)
            tasks.append(Task(run=run, check=check, op=op))
    return tasks


def _check_emulation(out, P, points):
    units, values = out
    return int(not np.max(np.abs(values - P.eval_many(points))) <= units * NETWORK_DELTA)


def _build_gtn(P, dirs, d, ell):
    dec = rk.decompose(P, dirs, d, ell)
    mats, profiles = zip(*(rk.orthonormalize_rows(A, profile)
                           for A, profile in zip(dec.matrices, dec.profiles)))
    dec = rk.RidgeDecomposition(d, ell, list(mats), list(profiles))
    return rk.gtn_from_decomposition(dec, rk.PolynomialDictionary(ell), NETWORK_DELTA)


def _build_cvnn(P, dirs):
    dec = rk.complex_decompose(P, dirs)
    return rk.cvnn_from_decomposition(dec, rk.ComplexPolynomialDictionary(), NETWORK_DELTA)


# ---------------------------------------------------------------------------
# projector_study: quasi-projection operator study


PROJECTOR_SIZES = {
    # (L1 basis degree, L1 rule exactness, L1 s range, trials per s,
    #  fixed-point s range, fixed-point polynomials per s)
    "full": (15, 48, range(1, 9), 16, range(1, 7), 10),
    "smoke": (5, 16, range(1, 4), 4, range(1, 3), 2),
}


class ProjectorStudy:
    name = "projector_study"
    op_targets = (Target("op", "quasiproj", "QuasiProjector.apply"),)

    def setup(self, seed, size):
        degree, exactness, l1_range, trials, fixed_range, per_s = PROJECTOR_SIZES[size]
        rng = _rng(seed, 2)
        basis2 = rk.build_basis(2, degree, rk.build_ball_rule(2, exactness))
        l1 = [rk.QuasiProjector(basis2, s) for s in l1_range]
        fixed = []
        for s in fixed_range:
            basis3 = rk.build_basis(3, 2 * s - 1, rk.build_ball_rule(3, 4 * s + 2))
            proj = rk.QuasiProjector(basis3, s)
            fixed.extend((proj, random_poly(3, s, rng)) for _ in range(per_s))
        return {"l1": l1, "trials": trials, "l1_seed": _child_seed(rng), "fixed": fixed}

    def tasks(self, state):
        tasks = [Task(run=lambda P=proj: rk.estimate_l1_operator_norm(
                          P, state["trials"], seed=state["l1_seed"]),
                      check=lambda norm: int(not (math.isfinite(norm) and norm > 0)))
                 for proj in state["l1"]]
        tasks.extend(Task(run=lambda P=proj, p=p: P.apply(p),
                          check=lambda image, P=proj, p=p: _check_fixed_point(image, p, P))
                     for proj, p in state["fixed"])
        return tasks


def _check_fixed_point(image, p, proj):
    rule = proj.basis.rule
    rel = rk.lq_norm(image - p, rule, 2) / rk.lq_norm(p, rule, 2)
    return int(not rel < FIXED_POINT_TOL)


WORKLOADS = {w.name: w for w in (Sweep(), DecomposeStream(), ProjectorStudy())}
