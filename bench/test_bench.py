"""Tests of the benchmark harness:  python3 -m pytest bench

They use the smoke sizes and make no timing assertions.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ridgekit as rk  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

END_TO_END = {"wall_s", "ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb"}


def tiny_sweep_config():
    return rk.ExperimentConfig(d=3, ell=2, r=3, q=2, n_list=(4, 8, 16), target="ramp_cubed",
                               seed=5, budget_factor=4, max_degree=3, record_timing=False)


def ridgekit_bindings():
    """Every (owner, name) -> object binding in the ridgekit modules and classes."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "ridgekit" or key.startswith("ridgekit."):
            for name, value in vars(mod).items():
                out[(key, name)] = value
                if isinstance(value, type) and value.__module__.startswith("ridgekit"):
                    for cname, cvalue in vars(value).items():
                        out[(key, name, cname)] = cvalue
    return out


def test_tracer_counts_exact_calls_of_one_sweep():
    cfg = tiny_sweep_config()
    tracer = Tracer(run.LAYER_TARGETS).install()
    try:
        rk.rate_sweep(cfg)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    stats, top_level = tracer.layer_stats()
    points = len(cfg.n_list)
    assert stats["pipeline.rate_sweep"]["calls"] == 1
    assert stats["quadrature.build_ball_rule"]["calls"] == 1
    assert stats["orthobasis.build_basis"]["calls"] == 1
    # the by-name imports in pipeline are rebound, not only the defining modules
    assert stats["pipeline.approximate_by_ridge"]["calls"] == points
    assert stats["pipeline.fit_polynomial"]["calls"] == points
    assert stats["ridge_real.decompose"]["calls"] == points
    assert stats["ridge_real.directions"]["calls"] == points
    assert stats["ridge_real.directions"]["attempts"] >= points
    assert stats["quadrature.lq_norm"]["calls"] == 2 * points
    assert stats["polycore.eval_many"]["calls"] > 0
    assert top_level == pytest.approx(sum(
        end - start for _, start, end, parent, _ in tracer.spans if parent < 0))


def test_uninstall_restores_every_binding():
    before = ridgekit_bindings()
    tracer = Tracer(run.LAYER_TARGETS).install()
    try:
        patched = ridgekit_bindings()
        assert patched[("ridgekit.pipeline", "decompose")] is not before[("ridgekit.pipeline", "decompose")]
        assert (patched[("ridgekit.polycore", "MultiIndexPolynomial", "__call__")]
                is patched[("ridgekit.polycore", "MultiIndexPolynomial", "eval_many")])
    finally:
        tracer.uninstall()
    after = ridgekit_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_and_untraced_sweep_csv_are_byte_identical():
    untraced = rk.rate_sweep(tiny_sweep_config()).to_csv_text()
    tracer = Tracer(run.LAYER_TARGETS).install()
    try:
        traced = rk.rate_sweep(tiny_sweep_config()).to_csv_text()
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert traced == untraced


def test_missing_target_is_reported_and_skipped():
    tracer = Tracer([Target("polycore.gone", "polycore", "no_such_function")]).install()
    tracer.uninstall()
    assert tracer.missing == ["polycore.gone"]


def test_sweep_check_counts_each_mismatch():
    class Report:
        rows = [{"error_lq": 1.0}, {"error_lq": 2.0}]

    assert workloads._check_sweep(Report, [1.0, 2.0]) == 0
    assert workloads._check_sweep(Report, [1.0, 2.0 * (1 + 1e-8)]) == 1
    assert workloads._check_sweep(Report, [1.0, 2.0, 3.0]) == 1


def test_best_of_passes_is_elementwise_minimum():
    passes = [{"t": [3.0, 1.0, 2.0]}, {"t": [2.0, 4.0, 2.5]}]
    assert run.best_of_passes(passes, "t") == [2.0, 1.0, 2.0]
    # a pass whose operation count changed keeps every sample
    assert run.best_of_passes([{"t": [1.0]}, {"t": [2.0, 3.0]}], "t") == [1.0, 2.0, 3.0]


def test_op_latencies_sum_best_parts():
    passes = [{"parts": [1.0, 2.0, 3.0], "part_ops": [0, 0, 1]},
              {"parts": [2.0, 1.0, 1.0], "part_ops": [0, 0, 1]}]
    assert run.op_latencies(passes) == [2.0, 1.0]
    # a pass whose parts changed keeps every operation of every pass
    changed = [passes[0], {"parts": [4.0], "part_ops": [0]}]
    assert run.op_latencies(changed) == [3.0, 3.0, 4.0]


def test_parts_of_one_operation_fail_once():
    def boom():
        raise RuntimeError("no net")

    class Parts:
        op_targets = ()

        def tasks(self, state):
            return [workloads.Task(run=lambda: 1, check=lambda _: 1, op=0),
                    workloads.Task(run=boom, check=lambda _: 0, op=0),
                    workloads.Task(run=lambda: 1, check=lambda _: 0, op=1),
                    workloads.Task(run=lambda: 1, check=lambda _: 0, op=1),
                    workloads.Task(run=lambda: 1, check=lambda _: 2)]

    result = run.run_pass(Parts(), None, Tracer([]).install())
    assert result["part_ops"] == [0, 0, 1, 1, 2]
    assert result["attempted"] == 3
    assert result["failed"] == 1 + 0 + 2
    assert result["errors"] == ["RuntimeError: no net"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_workload(name, trace):
    result = run.run_workload(name, seed=3, seconds=0, trace=trace, size="smoke", setup_rounds=1)
    assert result["errors"] == []
    assert result["untraced_targets"] == []
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["end_to_end"]) | {"setup_s"} == END_TO_END
    if trace:
        assert set(result["per_layer"]) == {name for name, _ in run.LAYER_METRICS}
        assert result["traced_passes"] >= 1


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in bench["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.LAYER_METRICS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])


def test_cli_prints_result_as_last_line():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decompose_stream", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == END_TO_END


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
