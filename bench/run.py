"""ridgekit benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports `ridgekit` from its
`src/`.  The import is timed here and in IMPORT_ROUNDS - 1 fresh interpreters,
run one after another.  Set-up (input generation and one-time builds) is
repeated SETUP_ROUNDS times; then passes of the workload's fixed work run while
another pass is expected to end within `--seconds`.  Each task and operation
keeps its best time over the passes.  Correctness checks run outside the timed
region.

`--trace 0` prints the end-to-end metrics of the untraced passes.  `--trace 1`
alternates untraced and traced passes and prints the per-layer metrics of one
set-up round plus one pass.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracer import Target, Tracer, paused

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_ROUNDS = 3
IMPORT_ROUNDS = 3
IMPORT_PROBE = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import ridgekit; print(time.perf_counter() - start)")
WORKLOAD_NAMES = ("sweep", "decompose_stream", "projector_study")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# Per-layer tracing table


def _term_points(args, kwargs, values):
    return {"term_points": len(args[0].terms) * len(values)}


def _unit_points(args, kwargs, values):
    return {"unit_points": args[0].n * len(values)}


LAYER_TARGETS = (
    Target("polycore.eval_many", "polycore", "MultiIndexPolynomial.eval_many", _term_points),
    Target("polycore.complex_eval_many", "polycore", "ComplexBiPolynomial.eval_many",
           _term_points),
    Target("orthobasis.build_basis", "orthobasis", "build_basis",
           lambda a, k, basis: {"basis_size": basis.size}, keep=True),
    Target("orthobasis.project_coefficients", "orthobasis", "project_coefficients"),
    Target("orthobasis.combine", "orthobasis", "OrthoBasis.combine"),
    Target("quadrature.build_ball_rule", "quadrature", "build_ball_rule",
           lambda a, k, rule: {"nodes": rule.node_count}),
    Target("quadrature.lq_norm", "quadrature", "lq_norm"),
    Target("quadrature.evaluate_on_nodes", "quadrature", "evaluate_on_nodes"),
    Target("quasiproj.apply", "quasiproj", "QuasiProjector.apply"),
    Target("quasiproj.l1_norm", "quasiproj", "estimate_l1_operator_norm"),
    Target("ridge_real.decompose", "ridge_real", "decompose"),
    Target("ridge_real.directions", "ridge_real", "sample_spanning_directions"),
    Target("ridge_real.directions", "ridge_real", "spanning_rank",
           lambda a, k, r: {"attempts": 1}, span=False),
    Target("ridge_real.ridge_eval", "ridge_real", "RidgeDecomposition.eval_many"),
    Target("ridge_complex.decompose", "ridge_complex", "complex_decompose"),
    Target("ridge_complex.directions", "ridge_complex", "sample_complex_directions"),
    Target("ridge_complex.ridge_eval", "ridge_complex", "ComplexRidgeDecomposition.eval_many"),
    Target("networks.build", "networks", "gtn_from_decomposition"),
    Target("networks.build", "networks", "cvnn_from_decomposition"),
    Target("networks.find_index", "networks", "PolynomialDictionary.find_index"),
    Target("networks.find_index", "networks", "ComplexPolynomialDictionary.find_index"),
    Target("networks.eval", "networks", "GTNetwork.eval_many", _unit_points),
    Target("networks.eval", "networks", "CVNNetwork.eval_many", _unit_points),
    Target("pipeline.rate_sweep", "pipeline", "rate_sweep"),
    Target("pipeline.approximate_by_ridge", "pipeline", "approximate_by_ridge"),
    Target("pipeline.fit_polynomial", "pipeline", "fit_polynomial"),
)


# (metric, unit); "<span>.<field>" reads the span's summed stats.
LAYER_METRICS = (
    ("polycore.eval_many.calls", "count"),
    ("polycore.eval_many.self_s", "s"),
    ("polycore.eval_many.term_points", "count"),
    ("polycore.eval_many.term_points_per_s", "1/s"),
    ("polycore.complex_eval_many.self_s", "s"),
    ("polycore.complex_eval_many.term_points", "count"),
    ("orthobasis.build_basis.calls", "count"),
    ("orthobasis.build_basis.self_s", "s"),
    ("orthobasis.build_basis.basis_size", "count"),
    ("orthobasis.build_basis.gram_dev", "ratio"),
    ("orthobasis.project_coefficients.calls", "count"),
    ("orthobasis.project_coefficients.self_s", "s"),
    ("orthobasis.combine.self_s", "s"),
    ("quadrature.build_ball_rule.self_s", "s"),
    ("quadrature.build_ball_rule.nodes", "count"),
    ("quadrature.lq_norm.calls", "count"),
    ("quadrature.lq_norm.self_s", "s"),
    ("quadrature.evaluate_on_nodes.self_s", "s"),
    ("quasiproj.apply.calls", "count"),
    ("quasiproj.apply.self_s", "s"),
    ("quasiproj.l1_norm.self_s", "s"),
    ("ridge_real.decompose.calls", "count"),
    ("ridge_real.decompose.self_s", "s"),
    ("ridge_real.decompose.failed", "count"),
    ("ridge_real.directions.self_s", "s"),
    ("ridge_real.directions.attempts", "count"),
    ("ridge_real.directions.yield", "ratio"),
    ("ridge_real.ridge_eval.self_s", "s"),
    ("ridge_complex.decompose.calls", "count"),
    ("ridge_complex.decompose.self_s", "s"),
    ("ridge_complex.decompose.failed", "count"),
    ("ridge_complex.directions.self_s", "s"),
    ("ridge_complex.ridge_eval.self_s", "s"),
    ("networks.build.calls", "count"),
    ("networks.build.self_s", "s"),
    ("networks.find_index.calls", "count"),
    ("networks.find_index.self_s", "s"),
    ("networks.eval.self_s", "s"),
    ("networks.eval.unit_points", "count"),
    ("pipeline.rate_sweep.self_s", "s"),
    ("pipeline.approximate_by_ridge.calls", "count"),
    ("pipeline.approximate_by_ridge.self_s", "s"),
    ("pipeline.fit_polynomial.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.top_level_frac", "ratio"),
)


def _gram_deviation(basis):
    import numpy as np
    return float(np.max(np.abs(basis.gram_matrix() - np.eye(basis.size))))


def _collect(tracer):
    """Layer stats of the spans recorded since the last clear (untimed)."""
    stats, top_level = tracer.layer_stats()
    bases = tracer.kept("orthobasis.build_basis")
    if bases:
        stats["orthobasis.build_basis"]["gram_dev"] = max(map(_gram_deviation, bases))
    tracer.clear()
    return stats, top_level


def _accumulate(session, stats, weight):
    for name, fields in stats.items():
        entry = session.setdefault(name, {})
        for key, value in fields.items():
            if key == "gram_dev":
                entry[key] = max(entry.get(key, 0.0), value)
            else:
                entry[key] = entry.get(key, 0) + weight * value


def layer_metrics(setup_stats, pass_stats):
    """Per-layer metrics of one set-up round plus one traced pass, each the
    mean over the rounds or passes recorded; gram_dev keeps its maximum."""
    session = {}
    for samples in (setup_stats, pass_stats):
        for stats in samples:
            _accumulate(session, stats, 1.0 / len(samples))
    for name, fields in session.items():
        if fields.get("term_points") and fields["self_s"] > 0:
            fields["term_points_per_s"] = fields["term_points"] / fields["self_s"]
        if "attempts" in fields:
            certified = fields.get("calls", 0) - fields.get("failed", 0)
            fields["yield"] = certified / fields["attempts"] if fields["attempts"] else 0.0
    metrics = {}
    for metric, unit in LAYER_METRICS:
        if metric.startswith("trace."):
            continue
        name, _, field = metric.rpartition(".")
        metrics[metric] = {"value": session.get(name, {}).get(field, 0), "unit": unit}
    return metrics


# ---------------------------------------------------------------------------
# Measurement loop


def run_pass(workload, state, op_clock, layers=None):
    """One pass of the workload's fixed work; checks run untimed and untraced.

    An operation is a span of the workload's op targets or, in a task where
    none ran, the task itself.  Consecutive tasks with the same `Task.op` key
    are the timed parts of one operation, which fails at most once."""
    quiet = [op_clock] + ([layers] if layers is not None else [])
    task_times, parts, part_ops, attempted, failed, errors = [], [], [], 0, 0, []
    key, key_failed = None, False
    for task in workload.tasks(state):
        op_clock.clear()
        start = time.perf_counter()
        try:
            result, error = task.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        elapsed = time.perf_counter() - start
        task_times.append(elapsed)
        spans = op_clock.durations()
        joined = not spans and task.op is not None and task.op == key
        if joined:
            parts.append(elapsed)
            part_ops.append(attempted - 1)
            raised = int(error is not None)
        else:
            ops = spans or [(elapsed, error is not None)]
            for duration, _ in ops:
                parts.append(duration)
                part_ops.append(attempted)
                attempted += 1
            raised = sum(failed_op for _, failed_op in ops)
            key_failed = False
        key = task.op
        if error is not None:
            new_failures = max(1, raised)
            errors.append(f"{type(error).__name__}: {error}")
        else:
            with paused(*quiet):
                new_failures = raised + task.check(result)
        if key is not None:
            new_failures = min(new_failures, int(not key_failed))
            key_failed = key_failed or new_failures > 0
        failed += new_failures
    return {"wall": sum(task_times), "task_times": task_times, "parts": parts,
            "part_ops": part_ops, "attempted": attempted, "failed": failed, "errors": errors}


def run_workload(name, seed, seconds, trace, size="full", setup_rounds=SETUP_ROUNDS):
    """Set up `setup_rounds` times, then run passes while another pass is
    expected to end within `seconds` (at least one pass; with `trace`,
    untraced and traced passes alternate, at least one of each)."""
    from workloads import WORKLOADS  # imports ridgekit

    workload = WORKLOADS[name]
    op_clock = Tracer(workload.op_targets).install()
    layers = Tracer(LAYER_TARGETS) if trace else None
    setup_times, setup_stats, passes = [], [], []
    try:
        for _ in range(setup_rounds):
            state = None
            if layers is not None:
                layers.install()
            start = time.perf_counter()
            try:
                state = workload.setup(seed, size)
            finally:
                setup_times.append(time.perf_counter() - start)
                if layers is not None:
                    layers.uninstall()
            if layers is not None:
                setup_stats.append(_collect(layers)[0])
        start = time.perf_counter()
        while True:
            traced = layers is not None and len(passes) % 2 == 1
            if traced:
                layers.install()
            try:
                result = run_pass(workload, state, op_clock, layers if traced else None)
            finally:
                if traced:
                    layers.uninstall()
            result["traced"] = traced
            if traced:
                result["stats"], result["top_level"] = _collect(layers)
            passes.append(result)
            elapsed = time.perf_counter() - start
            # stop before a pass of average length would overrun `seconds`
            if elapsed * (len(passes) + 1) / len(passes) > seconds and (
                    layers is None or len(passes) >= 2):
                break
    finally:
        op_clock.uninstall()
    summary = summarize(passes, setup_times, setup_stats, layers)
    summary["untraced_targets"] = op_clock.missing + (layers.missing if layers else [])
    return summary


def best_of_passes(passes, key):
    """Element-wise minimum over passes of the per-task or per-part times
    under `key`.  Every pass repeats the same fixed work in the same order,
    and interference from other tenants of a shared host only adds time, so
    the best of the passes is the steadiest estimate of each.  When failures
    changed the count, all samples are returned."""
    rows = [p[key] for p in passes]
    if len({len(row) for row in rows}) != 1:
        return [x for row in rows for x in row]
    return [min(column) for column in zip(*rows)]


def _sum_by_op(parts, part_ops):
    sums = [0.0] * (part_ops[-1] + 1 if part_ops else 0)
    for duration, op in zip(parts, part_ops):
        sums[op] += duration
    return sums


def op_latencies(passes):
    """Latency of each operation: the sum of its parts' best times over the
    passes.  When failures changed the parts, every pass's operations are
    returned."""
    layouts = {tuple(p["part_ops"]) for p in passes}
    if len(layouts) != 1:
        return [x for p in passes for x in _sum_by_op(p["parts"], p["part_ops"])]
    return _sum_by_op(best_of_passes(passes, "parts"), passes[0]["part_ops"])


def summarize(passes, setup_times, setup_stats, layers):
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    latencies = op_latencies(untraced)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall_s = sum(best_of_passes(untraced, "task_times"))
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    beyond = sum(1 for x in latencies if x > p90)
    summary = {
        "passes": len(untraced),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "errors": [e for p in passes for e in p["errors"]],
        "setup_round_s": statistics.median(setup_times),
        "end_to_end": {
            "wall_s": wall_s,
            "ops_per_s": statistics.median(p["attempted"] for p in untraced) / wall_s,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        # p90 is reported only with at least 10 samples beyond it
        "op_p90_ms": 1e3 * p90 if beyond >= 10 else None,
        "op_samples": len(latencies),
        "op_samples_beyond_p90": beyond,
    }
    if layers is not None:
        layers_out = layer_metrics(setup_stats, [p["stats"] for p in traced])
        traced_wall = sum(best_of_passes(traced, "task_times"))
        layers_out["trace.overhead_frac"] = {"value": traced_wall / wall_s - 1.0, "unit": "ratio"}
        layers_out["trace.top_level_frac"] = {
            "value": sum(p["top_level"] for p in traced) / sum(p["wall"] for p in traced),
            "unit": "ratio"}
        summary["per_layer"] = layers_out
    return summary


# ---------------------------------------------------------------------------
# Environment record


def _git_commit():
    """Commit of the checkout when it is a git work tree, read without git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "ridgekit")
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            digest.update(fname.encode())
            with open(os.path.join(package, fname), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment(args, ridgekit_threads):
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "RIDGEKIT_THREADS": ridgekit_threads,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# Command line


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs that run in seconds; no timing meaning")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ridgekit", "__init__.py")):
        print(f"error: no ridgekit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Unset, RIDGEKIT_THREADS keeps sweeps single-threaded; the value found is recorded.
    ridgekit_threads = os.environ.pop("RIDGEKIT_THREADS", None)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import ridgekit
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.realpath(ridgekit.__file__)) != os.path.realpath(
            os.path.join(SRC, "ridgekit")):
        print(f"error: ridgekit imported from {ridgekit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # the import cannot be repeated in this process; fresh interpreters repeat it
    import_times = [import_s] + [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                             text=True, timeout=120, check=True).stdout)
        for _ in range(IMPORT_ROUNDS - 1)]
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          size="smoke" if args.smoke else "full")
    e2e = dict(result["end_to_end"],
               setup_s=statistics.median(import_times) + result["setup_round_s"])
    units = {"wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}
    for error in result["errors"][:5]:
        print(f"error: {error}", file=sys.stderr)
    if result["untraced_targets"]:
        print("warning: not defined by ridgekit, so not traced: "
              + ", ".join(result["untraced_targets"]), file=sys.stderr)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={result['passes']} traced_passes={result['traced_passes']}")
    for key in ("wall_s", "ops_per_s", "op_p50_ms"):
        print(f"{key:<14} {e2e[key]:.6g} {units[key]}")
    p90 = result["op_p90_ms"]
    p90_text = f"{p90:.6g} ms" if p90 is not None else "not reported"
    print(f"{'op_p90_ms':<14} {p90_text} ({result['op_samples']} samples, "
          f"{result['op_samples_beyond_p90']} beyond p90)")
    for key in ("setup_s", "peak_rss_mb"):
        print(f"{key:<14} {e2e[key]:.6g} {units[key]}")
    print(f"{'failed_frac':<14} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    print("# env " + json.dumps(environment(args, ridgekit_threads), sort_keys=True))

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {key: {"value": e2e[key], "unit": units[key]} for key in units}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
