"""Command-line entry point for the benchmark experiments.

Subcommands: ``qp``, ``cutest``, ``logreg``, ``toy`` run the corresponding
experiment and write CSVs into --out; ``proptest`` runs a quick sweep of the
randomized property checks.  Exit codes: 0 success, 1 failed property checks,
2 configuration errors, 3 dataset errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checks import ALL_CHECKS
from .config import ConfigError, coerce_params, load_config
from .experiments import (
    CUTEST_DEFAULTS,
    LOGREG_DEFAULTS,
    QP_DEFAULTS,
    TOY_DEFAULTS,
    run_cutest,
    run_logreg,
    run_qp,
    run_toy,
)
from .problems import DatasetFormatError

_EXPERIMENTS = {
    "qp": (run_qp, QP_DEFAULTS),
    "cutest": (run_cutest, CUTEST_DEFAULTS),
    "logreg": (run_logreg, LOGREG_DEFAULTS),
    "toy": (run_toy, TOY_DEFAULTS),
}


def _check_seed(value, error):
    """Return ``value`` if it lies in [0, 2**64); raise ``error`` otherwise."""
    if not 0 <= value < 2**64:
        raise error(f"seed {value} out of unsigned 64-bit range")
    return value


def _u64(text):
    return _check_seed(int(text), argparse.ArgumentTypeError)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="softqn-bench",
        description="Benchmark runner for the soft quasi-Newton update and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trials=True):
        p.add_argument("--config", metavar="PATH", help="INI config file (section per experiment)")
        p.add_argument("--seed", type=_u64, metavar="U64", help="base seed override")
        if trials:
            p.add_argument("--trials", type=int, metavar="N", help="number of Monte Carlo trials")
        p.add_argument("--out", metavar="DIR", default="results", help="output directory (default: results)")
        p.add_argument("--method", metavar="NAME[,NAME...]", help="comma-separated method subset")

    add_common(sub.add_parser("qp", help="random convex QPs with Gaussian gradient noise"))
    cutest = sub.add_parser("cutest", help="analytic smooth test problems with relative noise")
    add_common(cutest)
    cutest.add_argument("--problem", metavar="NAME", help="test problem name (e.g. DIXMAANA, ARWHEAD)")
    logreg = sub.add_parser("logreg", help="regularized logistic regression with minibatch gradients")
    add_common(logreg)
    logreg.add_argument("--dataset", metavar="PATH", help="LIBSVM file (default: bundled fixture)")
    add_common(sub.add_parser("toy", help="deterministic 2-D saddle walk"), trials=False)
    sub.add_parser("proptest", help="quick randomized property-check sweep")
    return parser


def _resolve_params(args, defaults):
    params = {}
    if args.config:
        sections = load_config(args.config)
        section = sections.get(args.command, {})
        params.update(coerce_params(section, defaults))
        if "seed" in params:
            _check_seed(params["seed"], ConfigError)
    if args.seed is not None:
        params["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        params["trials"] = args.trials
    if args.method:
        params["methods"] = [m.strip() for m in args.method.split(",") if m.strip()]
    if getattr(args, "dataset", None):
        params["dataset"] = args.dataset
    if getattr(args, "problem", None):
        params["problem"] = args.problem
    if params.get("trials", 1) < 1:
        raise ConfigError(f"trials must be >= 1, got {params['trials']}")
    return params


def _run_proptest():
    failures = 0
    for name, (check, quick_kwargs) in ALL_CHECKS.items():
        result = check(**quick_kwargs)
        status = "PASS" if result.passed else "FAIL"
        failures += 0 if result.passed else 1
        worst = "n/a" if result.worst is None else f"{result.worst:.3e}"
        print(f"{status} {name}: {result.samples} samples, {result.note} = {worst}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)

    if args.command == "proptest":
        return _run_proptest()

    runner, defaults = _EXPERIMENTS[args.command]
    try:
        params = _resolve_params(args, defaults)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "logreg" and params.get("dataset"):
        if not os.path.isfile(params["dataset"]):
            print(
                f"dataset not found: {params['dataset']}\n"
                "supply a LIBSVM-format file (e.g. ijcnn1 from the LIBSVM collection), "
                "or omit --dataset to use the bundled synthetic fixture",
                file=sys.stderr,
            )
            return 3

    try:
        _, written = runner(params, args.out)
    except DatasetFormatError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # unknown method or problem name
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
