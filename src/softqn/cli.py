"""Command-line entry point for the benchmark experiments.

Subcommands: ``qp``, ``cutest``, ``logreg``, ``toy`` run the corresponding
experiment and write CSVs into --out; ``proptest`` runs a quick sweep of the
randomized property checks.  Exit codes: 0 success, 1 failed property checks,
2 configuration errors, 3 dataset errors, 4 any other exception (a crash; its
traceback goes to stderr).

The parameters of an experiment come from its section of an optional INI file
(``[qp]``, ``[cutest]``, ``[logreg]``, ``[toy]``; flat key=value pairs) with
the non-empty flags over it.  Each value is coerced against the experiment's
defaults table, so the defaults double as the schema: an int default means the
key parses as int, a float as float, and ``methods`` is a comma-separated
list.  An unknown key or an unparseable value is a config error; the ranges of
the values are checked by the experiment that takes them.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import traceback

from . import checks
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="softqn-bench",
        description="Benchmark runner for the soft quasi-Newton update and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trials=True):
        p.add_argument("--config", metavar="PATH", help="INI config file (section per experiment)")
        p.add_argument("--seed", metavar="U64", help="base seed override")
        if trials:
            p.add_argument("--trials", metavar="N", help="number of Monte Carlo trials")
        p.add_argument("--out", metavar="DIR", default="results", help="output directory (default: results)")
        p.add_argument("--method", dest="methods", metavar="NAME[,NAME...]", help="comma-separated method subset")

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


class ConfigError(Exception):
    """Unreadable config file, unknown key, or malformed value."""


def _config_section(path, section):
    """The raw key=value strings of one section of an INI file ({} when it has none)."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError, OSError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return dict(parser[section]) if parser.has_section(section) else {}


def _resolve_params(args, defaults):
    """The config section with the non-empty flag strings over it, each value
    typed like its default (lists split on commas, whitespace stripped)."""
    raw = _config_section(args.config, args.command) if args.config else {}
    flags = ("seed", "trials", "methods", "dataset", "problem")
    raw.update((key, value) for key in flags if (value := getattr(args, key, None)))
    params = {}
    for key, text in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' (known: {', '.join(sorted(defaults))})")
        template = defaults[key]
        try:
            if isinstance(template, list):
                params[key] = [part.strip() for part in text.split(",") if part.strip()]
            else:
                params[key] = type(template)(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {text!r}") from exc
    return params


def _run_proptest():
    failures = 0
    for name, (check, quick_kwargs) in checks.ALL_CHECKS.items():
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
    try:
        return _run(args)
    except Exception:  # a crash must not read as a failed check (1) or a config error (2)
        traceback.print_exc()
        return 4


def _run(args):
    if args.command == "proptest":
        return _run_proptest()

    runner, defaults = _EXPERIMENTS[args.command]
    try:
        _, written = runner(_resolve_params(args, defaults), args.out)
    except DatasetFormatError as exc:
        print(
            f"dataset error: {exc}\nsupply a LIBSVM-format file (e.g. ijcnn1 from the LIBSVM "
            "collection), or omit --dataset to use the bundled synthetic fixture",
            file=sys.stderr,
        )
        return 3
    except (ConfigError, ValueError) as exc:  # a config file, or a parameter the runner refuses
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
