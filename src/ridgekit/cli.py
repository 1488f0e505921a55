"""Command-line interface: basis, decompose, verify, rate-sweep, counterexample."""

import argparse
import json
import math
import sys

import numpy as np

from .orthobasis import ConditioningError
from .quadrature import NodeCapError
from .ridge_real import DecompositionError, SpanningError

# Exit status of a command stopped by one of LIBRARY_ERRORS; 1 is a failed
# check, and argparse exits with 2 on a usage error, an output file that
# cannot be written among them.
LIBRARY_ERROR_STATUS = 3
LIBRARY_ERRORS = (ConditioningError, DecompositionError, NodeCapError, SpanningError)


def _cmd_basis(args):
    from .orthobasis import build_basis
    from .quadrature import build_ball_rule

    exactness = args.exactness if args.exactness is not None else 2 * args.max_degree + 2
    try:
        rule = build_ball_rule(args.dim, exactness)
        basis = build_basis(args.dim, args.max_degree, rule)
    except ValueError as exc:
        args.usage_error(str(exc))
    gram = basis.gram_matrix()
    report = {
        "dim": basis.dim,
        "max_degree": basis.max_degree,
        "size": basis.size,
        "degrees": basis.degrees.tolist(),
        "rule_exactness": rule.exactness_degree,
        "rule_nodes": len(rule.weights),
        "gram_deviation": float(np.max(np.abs(gram - np.eye(basis.size)))),
    }
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(basis.to_json_dict(), handle)
        report["output"] = args.output
    print(json.dumps(report, indent=2))
    return 0 if report["gram_deviation"] < 1e-8 else 1


def _cmd_decompose(args):
    from .pipeline import make_target
    from .polycore import MultiIndexPolynomial, dim_homogeneous
    from .ridge_real import decompose, sample_spanning_directions

    _check_ell(args)
    for name in ("degree", "seed"):
        if getattr(args, name) < 0:
            args.usage_error(f"--{name} must be non-negative, got {getattr(args, name)}")
    if args.input:
        def parse(obj):
            poly = MultiIndexPolynomial.from_json_dict(obj)
            if poly.dim != args.dim:
                raise ValueError(f"input polynomial has dim {poly.dim}, expected {args.dim}")
            return poly

        poly = _read_input(args, args.input, parse)
    else:
        poly = make_target("random_polynomial", args.dim,
                           {"degree": args.degree, "seed": args.seed})
    s = max(1, poly.degree())
    m = args.dim - args.ell + 1
    dirs = sample_spanning_directions(m, s, dim_homogeneous(m, s), seed=args.seed)
    dec = decompose(poly, dirs, args.dim, args.ell)
    out = dec.to_json_dict()
    out["direction_condition"] = dirs.condition_number
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(out, handle)
        print(json.dumps({"residual": dec.residual,
                          "direction_condition": dirs.condition_number,
                          "terms": dec.count, "output": args.output}, indent=2))
    else:
        print(json.dumps(out))
    return 0


def _read_input(args, path, parse):
    """`parse` of the JSON in the file `path`.  A file that cannot be read,
    malformed JSON or a value `parse` rejects is a usage error."""
    try:
        with open(path) as handle:
            return parse(json.load(handle))
    except (OSError, ValueError, TypeError, KeyError) as exc:
        args.usage_error(f"bad input file {path}: {type(exc).__name__}: {exc}")


def _check_ell(args):
    """Exit with a usage error unless 1 <= --ell < --dim."""
    if not 1 <= args.ell < args.dim:
        args.usage_error(f"need 1 <= --ell < --dim, got --ell {args.ell} and --dim {args.dim}")


def _cmd_verify(args):
    from .pipeline import verify

    report = verify(args.suite)
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


def _cmd_rate_sweep(args):
    from .pipeline import ExperimentConfig, rate_sweep

    if args.config:
        cfg = _read_input(args, args.config, ExperimentConfig.from_json_dict)
        cfg.csv_path = args.csv or cfg.csv_path
        cfg.json_path = args.json_out or cfg.json_path
    else:
        _check_ell(args)
        try:
            cfg = ExperimentConfig(
                d=args.dim, ell=args.ell, r=args.smoothness,
                q=math.inf if args.q == "inf" else float(args.q),
                n_list=tuple(int(n) for n in args.n_list.split(",")),
                target=args.target, seed=args.seed,
                budget_factor=args.budget_factor, max_degree=args.max_degree,
                csv_path=args.csv, json_path=args.json_out)
        except ValueError as exc:
            args.usage_error(str(exc))
    report = rate_sweep(cfg)
    print(report.to_csv_text(), end="")
    print(json.dumps({"slope": report.slope,
                      "theoretical_slope": report.theoretical_slope}, indent=2))
    return 0


def _cmd_counterexample(args):
    from .testfuncs import counterexample_ratio, sup_norm_counterexample

    try:
        rows = [{"n": n, "ratio": counterexample_ratio(n, args.dim),
                 "sup_norm": sup_norm_counterexample(n)}
                for n in map(int, args.n_list.split(","))]
    except ValueError as exc:
        args.usage_error(str(exc))
    decreasing = all(b["ratio"] < a["ratio"] for a, b in zip(rows, rows[1:]))
    print(json.dumps({"rows": rows, "strictly_decreasing": decreasing}, indent=2))
    return 0 if decreasing else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ridgekit",
        description="Polynomial ridge-decomposition toolkit: bases, decompositions, "
                    "verification suites, and approximation-rate experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="build an orthonormal polynomial basis on the ball")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--exactness", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_basis, usage_error=p.error)

    p = sub.add_parser("decompose", help="decompose a polynomial into ridge terms")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--degree", type=int, default=3,
                   help="degree of the random polynomial when --input is not given")
    p.add_argument("--input", default=None, help="polynomial JSON file")
    p.add_argument("--output", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_decompose, usage_error=p.error)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=["projector", "expansion", "trig", "bumps",
                            "counterexample", "all"])
    p.set_defaults(func=_cmd_verify, usage_error=p.error)

    p = sub.add_parser("rate-sweep", help="run the approximation-rate experiment")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--smoothness", type=int, default=3)
    p.add_argument("--q", default="2")
    p.add_argument("--n-list", default="4,8,16,32,64")
    p.add_argument("--target", default="gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-factor", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=15)
    p.add_argument("--csv", default=None)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=_cmd_rate_sweep, usage_error=p.error)

    p = sub.add_parser("counterexample", help="norm-ratio decay of the worst-case family")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n-list", default="16,64,256,1024")
    p.set_defaults(func=_cmd_counterexample, usage_error=p.error)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LIBRARY_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return LIBRARY_ERROR_STATUS
    except OSError as exc:  # an output file that cannot be written
        args.usage_error(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
