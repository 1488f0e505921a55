import json
import math
import os

import numpy as np
import pytest

from conftest import cached_basis
from ridgekit.pipeline import (CSV_HEADER, RULE_EXTRA_EXACTNESS, SUP_GRID_SIZE,
                               ExperimentConfig, RateReport, approximate_by_ridge,
                               fit_polynomial, make_target, rate_sweep, select_degree, verify)
from ridgekit.orthobasis import build_basis
from ridgekit.polycore import MultiIndexPolynomial, monomials_up_to
from ridgekit.quadrature import QuadratureRule, ball_sup_grid, build_ball_rule, lq_norm


def coeff_max(poly):
    return max((abs(c) for c in poly.terms.values()), default=0.0)


def small_cfg(**overrides):
    base = dict(d=3, ell=2, r=3, q=2, n_list=(4, 8, 16), target="gaussian",
                seed=0, budget_factor=4, max_degree=6, record_timing=False)
    base.update(overrides)
    return ExperimentConfig(**base)


def point_basis_and_rule(cfg, n):
    """A basis of the degree s that budget n selects, on a rule exact to
    degree 2 s + RULE_EXTRA_EXACTNESS: a sweep over n alone."""
    s = select_degree(n, cfg.d, cfg.ell, cfg.budget_factor, cfg.max_degree)
    basis = cached_basis(cfg.d, s, 2 * s + RULE_EXTRA_EXACTNESS)
    return basis, basis.rule


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(ell=3)  # needs ell < d
    with pytest.raises(ValueError):
        small_cfg(n_list=(8, 4))  # must increase
    with pytest.raises(ValueError):
        small_cfg(n_list=())
    with pytest.raises(ValueError):
        small_cfg(q=0.5)
    with pytest.raises(ValueError):
        small_cfg(target="nope")


@pytest.mark.parametrize("overrides, message", [
    ({"max_degree": 0}, "max_degree must be >= 1, got 0"),
    ({"max_degree": -3}, "max_degree must be >= 1, got -3"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"target_params": {"degree": 2}}, "target 'gaussian' does not read params \\['degree'\\]"),
    ({"target": "ramp_cubed", "target_params": {"seed": 1}},
     "target 'ramp_cubed' does not read params \\['seed'\\]"),
    ({"target": "cosine", "target_params": {"width": 1}},
     "target 'cosine' does not read params \\['width'\\]"),
    ({"target": "random_polynomial", "target_params": {"degree": 2, "sede": 1}},
     "target 'random_polynomial' does not read params \\['sede'\\]"),
    ({"r": 0}, "r must be >= 1, got 0"),
    ({"r": -3}, "r must be >= 1, got -3"),
    ({"n_list": (1, 2)}, "n_list entries must be >= 2, the minimal direction count, got 1"),
    ({"ell": 1, "n_list": (2, 4)},
     "n_list entries must be >= 3, the minimal direction count, got 2"),
], ids=["max-degree-0", "max-degree-negative", "seed", "gaussian", "ramp", "cosine", "typo",
        "r-0", "r-negative", "n-below-directions", "n-below-directions-ell-1"])
def test_config_rejects_a_degree_cap_below_one_and_unread_target_params(overrides, message):
    with pytest.raises(ValueError, match=message):
        small_cfg(**overrides)


def test_config_keeps_the_params_its_target_reads():
    cfg = small_cfg(target="random_polynomial", target_params={"degree": 2, "seed": 3},
                    max_degree=1)
    assert cfg.target_params == {"degree": 2, "seed": 3} and cfg.max_degree == 1
    assert small_cfg(target="cosine", target_params={}).target_params == {}


def test_config_json_round_trip():
    cfg = small_cfg(q=math.inf)
    clone = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
    assert clone == cfg


def test_config_json_keeps_output_paths_and_omits_unset_ones():
    cfg = small_cfg(csv_path="rates.csv", json_path="rates.json")
    payload = cfg.to_json_dict()
    assert (payload["csv_path"], payload["json_path"]) == ("rates.csv", "rates.json")
    assert ExperimentConfig.from_json_dict(json.loads(json.dumps(payload))) == cfg
    assert list(small_cfg().to_json_dict()) == [
        "d", "ell", "r", "q", "n_list", "target", "target_params", "seed", "budget_factor",
        "max_degree", "record_timing"]


def test_make_target_registry():
    g = make_target("gaussian", 2)
    assert g(np.zeros((1, 2)))[0] == pytest.approx(1.0)
    p = make_target("random_polynomial", 2, {"degree": 2, "seed": 1})
    assert p.degree() == 2
    with pytest.raises(ValueError):
        make_target("unknown", 2)
    with pytest.raises(ValueError, match="target 'gaussian' does not read params"):
        make_target("gaussian", 2, {"degree": 2})


def test_select_degree_budget():
    # d=3, ell=2: head dimension 2, dim of degree-s homogeneous space is s+1
    assert select_degree(4, 3, 2) == 3
    assert select_degree(4, 3, 2, budget_factor=4) == 1
    assert select_degree(64, 3, 2, budget_factor=4, max_degree=10) == 10
    # d=3, ell=1: head dimension 3
    assert select_degree(64, 3, 1, budget_factor=4) == 4


def test_fit_polynomial_fixed_point(basis_factory):
    basis = basis_factory(2, 4)
    rng = np.random.default_rng(0)
    p = MultiIndexPolynomial(2, {k: rng.standard_normal()
                                 for k in monomials_up_to(2, 3)})
    fitted = fit_polynomial(p, 3, basis)
    assert coeff_max(fitted - p) < 1e-8


def test_fit_polynomial_idempotent(basis_factory):
    basis = basis_factory(2, 4)
    fitted = fit_polynomial(make_target("gaussian", 2), 4, basis)
    again = fit_polynomial(fitted, 4, basis)
    assert coeff_max(again - fitted) < 1e-9


def test_fit_error_decreases_with_degree(basis_factory):
    target = make_target("gaussian", 2)
    rule = build_ball_rule(2, 16)
    from ridgekit.orthobasis import build_basis
    from ridgekit.quadrature import lq_norm
    basis = build_basis(2, 6, rule)
    errors = []
    for s in (2, 4, 6):
        fitted = fit_polynomial(target, s, basis)
        diff = lambda pts: target(pts) - fitted.eval_many(np.atleast_2d(pts))
        errors.append(lq_norm(diff, rule, 2))
    assert errors[0] > errors[1] > errors[2]


def test_approximate_by_ridge_polynomial_target():
    cfg = small_cfg(target="random_polynomial",
                    target_params={"degree": 2, "seed": 3})
    dec, report = approximate_by_ridge(
        make_target("random_polynomial", 3, {"degree": 2, "seed": 3}), 16, cfg,
        *point_basis_and_rule(cfg, 16))
    assert report["error_lq"] < 1e-7  # fit and decomposition are both exact
    assert report["s"] >= 2


@pytest.mark.parametrize("q", [1, 2, 3])
def test_ridge_error_on_shells_matches_the_error_at_every_node(q):
    # a hand-built rule over the same nodes has no shells, so it evaluates the
    # ridge sum at every node; the fitted polynomial takes eval_many on both
    cfg = small_cfg(target="ramp_cubed", q=q)
    rule = build_ball_rule(3, 2 * 6 + 2)
    hand = QuadratureRule("ball", 3, rule.nodes, rule.weights, rule.exactness_degree)
    basis = build_basis(3, 6, rule)
    _, shells = approximate_by_ridge(make_target("ramp_cubed", 3), 64, cfg, basis=basis, rule=rule)
    _, nodes = approximate_by_ridge(make_target("ramp_cubed", 3), 64, cfg, basis=basis, rule=hand)
    assert shells["fit_error"] == nodes["fit_error"]
    assert shells["error_lq"] == pytest.approx(nodes["error_lq"], rel=1e-12)


def test_approximate_by_ridge_error_report_fields():
    cfg = small_cfg()
    dec, report = approximate_by_ridge(make_target("gaussian", 3), 8, cfg,
                                       *point_basis_and_rule(cfg, 8))
    for key in ("n", "s", "fit_error", "residual", "error_lq", "n_directions"):
        assert key in report
    assert report["error_lq"] <= report["fit_error"] + report["residual"] + 1e-10


def test_sup_norm_errors_are_taken_on_the_sup_grid():
    cfg = small_cfg(q=math.inf)
    target = make_target("gaussian", 3)
    dec, report = approximate_by_ridge(target, 8, cfg, *point_basis_and_rule(cfg, 8))
    rule = build_ball_rule(3, 2 * report["s"] + RULE_EXTRA_EXACTNESS)
    fitted = fit_polynomial(target, report["s"], build_basis(3, report["s"], rule))
    grid = ball_sup_grid(3, SUP_GRID_SIZE)
    assert report["fit_error"] == np.max(np.abs(target(grid) - fitted.eval_many(grid)))
    assert report["error_lq"] == np.max(np.abs(target(grid) - dec.eval_many(grid)))


def test_approximate_by_ridge_rejects_tiny_budget():
    cfg = small_cfg(ell=1)
    with pytest.raises(ValueError):
        approximate_by_ridge(make_target("gaussian", 3), 1, cfg, *point_basis_and_rule(cfg, 1))


def test_approximate_by_ridge_rejects_a_basis_on_other_nodes():
    cfg = small_cfg()
    basis, _ = point_basis_and_rule(cfg, 8)
    with pytest.raises(ValueError, match="the basis is not built on the rule's nodes"):
        approximate_by_ridge(make_target("gaussian", 3), 8, cfg, basis,
                             build_ball_rule(3, basis.rule.exactness_degree + 2))


class CountingTarget:
    """`ramp_cubed` that records the number of points of each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, points):
        self.calls.append(len(points))
        return make_target("ramp_cubed", 3)(points)


@pytest.mark.parametrize("q", [1, 2, math.inf])
def test_approximate_by_ridge_evaluates_the_target_once_per_point_set(q):
    cfg = small_cfg(target="ramp_cubed", q=q)
    basis = cached_basis(3, 6)
    target = CountingTarget()
    _, report = approximate_by_ridge(target, 64, cfg, basis, basis.rule)
    _, expected = approximate_by_ridge(make_target("ramp_cubed", 3), 64, cfg, basis, basis.rule)
    on_grid = [SUP_GRID_SIZE] if q == math.inf else []
    assert target.calls == [basis.rule.node_count] + on_grid
    assert report == expected


def test_fit_polynomial_reads_node_values(basis_factory):
    basis = basis_factory(2, 4)
    target = make_target("gaussian", 2)
    from_values = fit_polynomial(target(basis.rule.nodes), 4, basis)
    assert from_values.terms == fit_polynomial(target, 4, basis).terms


@pytest.mark.parametrize("q", [1, math.inf])
def test_node_values_of_the_wrong_length_raise(q, basis_factory):
    rule = basis_factory(2, 2).rule
    values = np.ones(rule.node_count + 1)
    with pytest.raises(ValueError, match="function did not return one value per node"):
        lq_norm(values, rule, q)
    with pytest.raises(ValueError, match="function did not return one value per node"):
        fit_polynomial(values, 2, basis_factory(2, 2))


def test_rate_sweep_rows_and_csv(tmp_path):
    csv_path = tmp_path / "rates.csv"
    json_path = tmp_path / "rates.json"
    cfg = small_cfg(csv_path=str(csv_path), json_path=str(json_path))
    report = rate_sweep(cfg)
    assert len(report.rows) == 3
    text = csv_path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    payload = json.loads(json_path.read_text())
    assert payload["theoretical_slope"] == -3.0
    assert [row["n"] for row in payload["rows"]] == [4, 8, 16]


def test_rate_sweep_deterministic_bytes():
    cfg = small_cfg()
    a = rate_sweep(cfg).to_csv_text()
    b = rate_sweep(cfg).to_csv_text()
    assert a == b


def test_rate_sweep_single_point_slope_null():
    cfg = small_cfg(n_list=(8,))
    report = rate_sweep(cfg)
    assert report.slope is None
    assert report.to_json_dict()["slope"] is None


def test_verify_suites_pass():
    report = verify("all")
    assert report["passed"]
    assert {r["suite"] for r in report["reports"]} == {
        "projector", "expansion", "trig", "bumps", "counterexample"}
    with pytest.raises(ValueError):
        verify("bogus")


def test_cli_verify_and_counterexample(capsys):
    from ridgekit.cli import main
    assert main(["verify", "--suite", "trig"]) == 0
    assert main(["counterexample", "--n-list", "16,64"]) == 0
    capsys.readouterr()


def test_cli_decompose_and_basis(tmp_path, capsys):
    from ridgekit.cli import main
    out = tmp_path / "dec.json"
    assert main(["decompose", "--dim", "3", "--ell", "2", "--degree", "2",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["residual"] < 1e-8
    summary = json.loads(capsys.readouterr().out)
    assert summary["direction_condition"] == payload["direction_condition"] >= 1.0
    assert main(["basis", "--dim", "2", "--max-degree", "3"]) == 0
    capsys.readouterr()


def test_cli_decompose_output_loads_with_its_residual(tmp_path, capsys):
    from ridgekit.cli import main
    from ridgekit.ridge_real import RidgeDecomposition
    out = tmp_path / "dec.json"
    assert main(["decompose", "--dim", "4", "--ell", "1", "--degree", "4", "--seed", "3",
                 "--output", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)["residual"]
    with open(out) as handle:
        assert RidgeDecomposition.from_json_dict(json.load(handle)).residual == printed


def test_cli_decompose_prints_direction_condition(capsys):
    from ridgekit.cli import main
    assert main(["decompose", "--dim", "3", "--ell", "1", "--degree", "3", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] < 1e-8
    assert 1.0 <= payload["direction_condition"] < 1e3


def test_cli_rate_sweep(tmp_path, capsys):
    from ridgekit.cli import main
    csv_path = tmp_path / "r.csv"
    assert main(["rate-sweep", "--dim", "3", "--ell", "2", "--n-list", "4,8",
                 "--budget-factor", "4", "--max-degree", "4",
                 "--csv", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines()[0] == CSV_HEADER
    capsys.readouterr()


def test_cli_reports_library_errors_without_traceback(capsys):
    from ridgekit.cli import LIBRARY_ERROR_STATUS, main
    # a degree-40 basis in 6 variables needs a ball rule of about 1e10 nodes
    assert main(["basis", "--dim", "6", "--max-degree", "40"]) == LIBRARY_ERROR_STATUS != 0
    err = capsys.readouterr().err
    assert err.startswith("NodeCapError: ball rule needs ") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--dim", "3", "--ell", "3"], "need 1 <= --ell < --dim, got --ell 3 and --dim 3"),
    (["decompose", "--dim", "3", "--ell", "0"], "need 1 <= --ell < --dim, got --ell 0 and --dim 3"),
    (["decompose", "--dim", "3", "--ell", "1", "--degree", "-1"],
     "--degree must be non-negative, got -1"),
    (["rate-sweep", "--ell", "3"], "need 1 <= --ell < --dim, got --ell 3 and --dim 3"),
    (["rate-sweep", "--max-degree", "0"], "max_degree must be >= 1, got 0"),
    (["rate-sweep", "--q", "0.5"], "q must lie in [1, inf]"),
    (["rate-sweep", "--seed", "-1", "--n-list", "4,8"], "seed must be >= 0, got -1"),
    (["decompose", "--dim", "3", "--ell", "1", "--seed", "-1"], "--seed must be non-negative, got -1"),
    (["basis", "--dim", "3", "--max-degree", "-1"], "max degree must be >= 0, got -1"),
    (["basis", "--dim", "0", "--max-degree", "2"], "dimension must be >= 1"),
    (["basis", "--dim", "2", "--max-degree", "3", "--exactness", "2"],
     "rule exactness 2 insufficient for degree 3"),
    (["counterexample", "--n-list", "4"], "n below the family's regime (need n >= 6)"),
    (["counterexample", "--dim", "0"], "dimension must be >= 1, got 0"),
    (["rate-sweep", "--n-list", "1,2"],
     "n_list entries must be >= 2, the minimal direction count, got 1"),
    (["rate-sweep", "--smoothness", "-3"], "r must be >= 1, got -3"),
    (["rate-sweep", "--smoothness", "0", "--n-list", "4,8"], "r must be >= 1, got 0"),
])
def test_cli_rejects_out_of_range_ell_and_degree_as_usage_errors(argv, message, capsys):
    from ridgekit.cli import main
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2  # argparse's usage-error status
    captured = capsys.readouterr()
    assert captured.out == "" and f"ridgekit {argv[0]}: error: {message}" in captured.err


@pytest.mark.parametrize("command, text, message", [
    (["rate-sweep", "--config"], '{"d": 3, "ell": 3, "r": 3, "q": 2, "n_list": [4, 8]}',
     "ValueError: need 1 <= ell < d"),
    (["rate-sweep", "--config"],
     '{"d": 3, "ell": 2, "r": 3, "q": 2, "n_list": [4, 8], "bogus": 1}',
     "TypeError: ExperimentConfig.__init__() got an unexpected keyword argument 'bogus'"),
    (["decompose", "--dim", "2", "--ell", "1", "--input"],
     '{"dim": 2, "terms": [{"k": [1.5, 0], "c": 1.0}]}',
     "TypeError: multi-index entries must be integers, got (1.5, 0)"),
    (["decompose", "--dim", "2", "--ell", "1", "--input"], '{"dim": 2, ',
     "JSONDecodeError: Expecting property name"),
    (["rate-sweep", "--config"], None, "FileNotFoundError: "),
    (["rate-sweep", "--config"], '{"d": 3, "ell": 2, "r": 3, "q": 2, "n_list": [4], "max_degree": 0}',
     "ValueError: max_degree must be >= 1, got 0"),
    (["rate-sweep", "--config"],
     '{"d": 3, "ell": 2, "r": 3, "q": 2, "n_list": [4], "target_params": {"degree": 4}}',
     "ValueError: target 'gaussian' does not read params ['degree']"),
    (["decompose", "--dim", "3", "--ell", "1", "--input"],
     '{"dim": 2, "terms": [{"k": [1, 0], "c": 1.0}]}',
     "ValueError: input polynomial has dim 2, expected 3"),
    (["rate-sweep", "--config"],
     '{"d": 3, "ell": 2, "r": 3, "q": 2, "n_list": [4], "rule_extra_exactness": 2}',
     "TypeError: ExperimentConfig.__init__() got an unexpected keyword argument "
     "'rule_extra_exactness'"),
    (["rate-sweep", "--config"], '{"d": 3, "ell": 2, "r": 3, "q": 2, "n_list": [4], '
     '"sup_grid_size": 512}',
     "TypeError: ExperimentConfig.__init__() got an unexpected keyword argument 'sup_grid_size'"),
    (["rate-sweep", "--config"], '{"d": 3, "ell": 2, "r": -3, "q": 2, "n_list": [4, 8]}',
     "ValueError: r must be >= 1, got -3"),
    (["rate-sweep", "--config"], '{"d": 3, "ell": 2, "r": 3, "q": 2, "n_list": [1, 2]}',
     "ValueError: n_list entries must be >= 2, the minimal direction count, got 1"),
], ids=["config-ell", "config-field", "input-float-exponent", "input-malformed", "config-missing",
        "config-max-degree", "config-target-params", "input-dimension", "config-rule-exactness",
        "config-sup-grid", "config-smoothness", "config-n-below-directions"])
def test_cli_rejects_bad_input_files_as_usage_errors(command, text, message, tmp_path, capsys):
    from ridgekit.cli import main
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exit_info:
        main(command + [str(path)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"ridgekit {command[0]}: error: bad input file {path}: {message}" in captured.err


@pytest.mark.parametrize("argv", [
    ["basis", "--dim", "2", "--max-degree", "2", "--output"],
    ["decompose", "--dim", "3", "--ell", "2", "--output"],
    ["rate-sweep", "--n-list", "4,8", "--max-degree", "2", "--csv"],
    ["rate-sweep", "--n-list", "4,8", "--max-degree", "2", "--json-out"],
], ids=["basis", "decompose", "rate-sweep-csv", "rate-sweep-json"])
def test_cli_rejects_unwritable_output_paths_as_usage_errors(argv, tmp_path, capsys):
    from ridgekit.cli import main
    path = tmp_path / "missing" / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [str(path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert (f"ridgekit {argv[0]}: error: FileNotFoundError: [Errno 2] "
            f"No such file or directory: '{path}'") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["csv_path", "json_path"])
def test_rate_sweep_rejects_an_unwritable_output_path_before_building_the_rule(
        field, tmp_path, monkeypatch):
    import ridgekit.pipeline as pipeline

    def no_rule(*args):
        raise AssertionError("the rule was built")

    monkeypatch.setattr(pipeline, "build_ball_rule", no_rule)
    path = tmp_path / "missing" / "out"
    with pytest.raises(FileNotFoundError, match="No such file or directory"):
        rate_sweep(small_cfg(**{field: str(path)}))


def test_a_failed_rate_sweep_leaves_its_output_paths_as_they_were(tmp_path, monkeypatch):
    import ridgekit.pipeline as pipeline

    def failing_rule(*args):
        raise RuntimeError("no rule")

    monkeypatch.setattr(pipeline, "build_ball_rule", failing_rule)
    new, old = tmp_path / "new.csv", tmp_path / "old.json"
    old.write_text("kept\n")
    with pytest.raises(RuntimeError, match="no rule"):
        rate_sweep(small_cfg(csv_path=str(new), json_path=str(old)))
    assert not new.exists()
    assert old.read_text() == "kept\n"


def test_cli_rate_sweep_writes_the_config_paths_unless_flags_override(tmp_path, capsys):
    from ridgekit.cli import main
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_cfg(
        n_list=(4, 8), csv_path=str(tmp_path / "file.csv"),
        json_path=str(tmp_path / "file.json")).to_json_dict()))
    assert main(["rate-sweep", "--config", str(config)]) == 0
    csv_text = (tmp_path / "file.csv").read_text()
    assert csv_text.splitlines()[0] == CSV_HEADER
    assert json.loads((tmp_path / "file.json").read_text())["config"]["n_list"] == [4, 8]
    assert main(["rate-sweep", "--config", str(config), "--csv", str(tmp_path / "flag.csv"),
                 "--json-out", str(tmp_path / "flag.json")]) == 0
    assert (tmp_path / "flag.csv").read_text() == csv_text
    assert json.loads((tmp_path / "flag.json").read_text())["config"]["csv_path"] == str(
        tmp_path / "flag.csv")
    capsys.readouterr()


def test_cli_decompose_draws_the_random_polynomial_target(tmp_path, capsys):
    from ridgekit.cli import main
    path = tmp_path / "poly.json"
    poly = make_target("random_polynomial", 3, {"degree": 3, "seed": 4})
    path.write_text(json.dumps(poly.to_json_dict()))
    assert main(["decompose", "--dim", "3", "--ell", "2", "--seed", "4"]) == 0
    drawn = capsys.readouterr().out
    assert main(["decompose", "--dim", "3", "--ell", "2", "--seed", "4", "--input", str(path)]) == 0
    assert capsys.readouterr().out == drawn
