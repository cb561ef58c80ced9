"""End-to-end tests for the ``softqn-bench`` command-line interface."""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import softqn
from softqn.cli import _resolve_params, build_parser, main
from softqn.experiments import run_cutest, run_logreg, run_qp, run_toy


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "softqn-bench" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_seed_out_of_range_is_usage_error(capsys):
    assert main(["toy", "--seed", "-1"]) == 2
    assert main(["toy", "--seed", str(2**64)]) == 2


@pytest.mark.parametrize("flag, value", [("--trials", "abc"), ("--seed", "1.5")])
def test_malformed_flag_value_is_a_config_error(tmp_path, capsys, flag, value):
    # a flag is coerced like the same key in a config file
    out = tmp_path / "out"
    assert main(["qp", flag, value, "--out", str(out)]) == 2
    assert f"config error: bad value for '{flag[2:]}': '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_config_seed_is_range_checked(tmp_path, capsys):
    cfg = tmp_path / "bench.ini"
    for seed in (-1, 2**64):
        cfg.write_text(f"[toy]\nseed = {seed}\niterations = 2\n")
        capsys.readouterr()
        assert main(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config error: seed {seed} out of unsigned 64-bit range" in capsys.readouterr().err
    cfg.write_text(f"[toy]\nseed = {2**64 - 1}\niterations = 2\n")
    assert main(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_toy_run_writes_csvs(tmp_path, capsys):
    code = main(["toy", "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    names = sorted(p.rsplit("/", 1)[-1] for p in printed)
    assert "toy_long.csv" in names
    assert any(n.startswith("fig_toy_") for n in names)
    for line in printed:
        assert (tmp_path / line.rsplit("/", 1)[-1]).is_file()


def test_unknown_method_exits_two(tmp_path, capsys):
    assert main(["toy", "--method", "bogus", "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_unknown_cutest_problem_exits_two(tmp_path, capsys):
    code = main(["cutest", "--problem", "NOSUCH", "--trials", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "NOSUCH" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[toy]\nbogus = 1\n")
    assert main(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err


def test_malformed_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bench.ini"
    cfg.write_text("not an ini file [[[")
    assert main(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert main(["toy", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path)]) == 2


def test_missing_dataset_exits_three(tmp_path, capsys):
    code = main(["logreg", "--dataset", str(tmp_path / "absent.libsvm"), "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "LIBSVM" in err  # tells the user how to obtain a dataset


@pytest.mark.parametrize(
    "content",
    [b"+1 7:not_a_number\n", b"-1 2:\xff\n", b"-1 99999999999999:1\n"],
    ids=["bad_entry", "not_utf8", "index_too_large"],
)
def test_malformed_dataset_exits_three(tmp_path, capsys, content):
    bad = tmp_path / "bad.libsvm"
    bad.write_bytes(content)
    code = main(["logreg", "--dataset", str(bad), "--out", str(tmp_path)])
    assert code == 3
    assert "bad.libsvm" in capsys.readouterr().err


def test_negative_rho_is_refused_before_the_dataset_is_read(tmp_path, capsys):
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[logreg]\nrho = -1.0\n")
    out = tmp_path / "out"
    argv = ["logreg", "--config", str(cfg), "--dataset", str(tmp_path / "absent.libsvm"), "--out", str(out)]
    assert main(argv) == 2
    assert "config error: rho must be nonnegative and finite, got -1.0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[qp]\ntrials = 3\nseed = 7\n")
    parser = build_parser()

    from softqn.experiments import QP_DEFAULTS

    args = parser.parse_args(["qp", "--config", str(cfg), "--trials", "2"])
    params = _resolve_params(args, QP_DEFAULTS)
    assert params["trials"] == 2  # command line wins
    assert params["seed"] == 7  # config still supplies the rest

    args = parser.parse_args(["qp", "--config", str(cfg)])
    params = _resolve_params(args, QP_DEFAULTS)
    assert params["trials"] == 3


def test_nonpositive_trials_rejected(tmp_path, capsys):
    assert main(["qp", "--trials", "0", "--out", str(tmp_path)]) == 2
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[qp]\ntrials = 0\n")
    capsys.readouterr()
    assert main(["qp", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "trials must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [("cutest", "budget", 0), ("toy", "iterations", -1)])
def test_counts_below_one_are_config_errors(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "bench.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main([section, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {key} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("qp", "noise_scale", -1.0, "cov_scale must be nonnegative and finite, got -1.0"),
        ("qp", "step_scale", -1.0, "scale must be positive and finite, got -1.0"),
        ("qp", "relax", 1.0, "relax must lie in (0, 1), got 1.0"),
        ("cutest", "noise_rel", -1e-4, "half_width must be nonnegative and finite, got -"),
        ("cutest", "alpha", 0.0, "alpha must be positive and finite, got 0.0"),
        ("cutest", "tau", 1.0, "tau must lie in (0, 1), got 1.0"),
        ("logreg", "eta", -0.1, "eta must be positive and finite, got -0.1"),
        ("logreg", "beta_coeff", -1.0, "coeff must be nonnegative and finite, got -1.0"),
        ("logreg", "batch", -1, "batch must be >= 0, got -1"),
    ],
)
def test_bad_scales_and_penalties_are_config_errors(tmp_path, capsys, section, key, value, message):
    # each noise model, step and penalty policy refuses a bad value where it is made,
    # so the run stops before any trial and writes nothing
    cfg = tmp_path / "bench.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main([section, "--config", str(cfg), "--trials", "1", "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "runner, params, message",
    [
        (run_cutest, {"budget": 0}, "budget must be >= 1, got 0"),
        (run_cutest, {"noise_rel": float("nan")}, "bad value for 'noise_rel': 'nan'"),
        (run_qp, {"seed": 2**130}, f"seed {2**130} out of unsigned 64-bit range"),
        (run_qp, {"trials": 0}, "trials must be >= 1, got 0"),
        (run_toy, {"seed": -1}, "seed -1 out of unsigned 64-bit range"),
        (run_toy, {"iterations": -1}, "iterations must be >= 1, got -1"),
        (run_logreg, {"iterations": 0}, "iterations must be >= 1, got 0"),
        # both ran: 3.7 as seed 3, and True as seed 1
        (run_toy, {"seed": 3.7}, "seed must be an integer, got 3.7"),
        (run_qp, {"seed": True}, "seed must be an integer, got True"),
    ],
    ids=[
        "budget_0", "noise_rel_nan", "seed_2**130", "trials_0", "seed_-1", "iterations_-1", "logreg_iterations_0",
        "seed_3.7", "seed_True",
    ],
)
def test_runners_refuse_what_the_cli_refuses(tmp_path, runner, params, message):
    # the rules hold for any caller of a runner, with the CLI's messages
    out = tmp_path / "out"
    with pytest.raises(ValueError) as exc:
        runner(params, str(out))
    assert str(exc.value) == message
    assert not out.exists()


@pytest.mark.parametrize("value", [1.5, 2.5, -0.5])
@pytest.mark.parametrize(
    "runner, key",
    [
        (run_qp, "trials"),
        (run_qp, "iterations"),
        (run_qp, "n"),
        (run_cutest, "budget"),
        (run_cutest, "max_backtracks"),
        (run_logreg, "batch"),
        (run_toy, "iterations"),
    ],
    ids=["qp_trials", "qp_iterations", "qp_n", "cutest_budget", "cutest_max_backtracks",
         "logreg_batch", "toy_iterations"],
)
def test_runners_refuse_fractional_counts(tmp_path, runner, key, value):
    # a fractional count was once truncated: trials = 1.5 ran 1 trial
    out = tmp_path / "out"
    with pytest.raises(ValueError) as exc:
        runner({key: value}, str(out))
    assert str(exc.value) == f"{key} must be an integer, got {value!r}"
    assert not out.exists()


def test_failed_update_ends_only_its_trial(tmp_path, capsys):
    # at this alpha the soft QN update of the second trial fails its positive-definiteness
    # check; that trial is marked diverged and the run still writes its CSVs
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[qp]\nalpha = 1e150\nn = 5\niterations = 50\ntrials = 2\nmethods = softqn\n")
    out = tmp_path / "out"
    assert main(["qp", "--config", str(cfg), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert len((out / "qp_long.csv").read_text().splitlines()) == 1 + 2 * 51
    assert (out / "qp_summary.csv").is_file()


def test_one_iteration_runs(tmp_path):
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[toy]\niterations = 1\n")
    assert main(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    # the start point and one iterate per method
    assert len((tmp_path / "toy_long.csv").read_text().splitlines()) == 1 + 2 * 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_floats_are_config_errors(tmp_path, capsys, value):
    cfg = tmp_path / "bench.ini"
    cfg.write_text(f"[cutest]\nnoise_rel = {value}\nbudget = 40\n")
    assert main(["cutest", "--config", str(cfg), "--trials", "1", "--out", str(tmp_path / "out")]) == 2
    assert f"config error: bad value for 'noise_rel': '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["toy", "qp", "cutest", "logreg"])
def test_empty_method_flag_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--method", ",", "--out", str(out)]) == 2
    assert "config error: no method selected; available: " in capsys.readouterr().err
    assert not out.exists()


def test_empty_method_list_in_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[toy]\nmethods =\n")
    out = tmp_path / "out"
    assert main(["toy", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: no method selected; available: " in capsys.readouterr().err
    assert not out.exists()


def test_cutest_without_gradient_noise(tmp_path, capsys):
    # SP-BFGS's beta scales with 1/e_g; with e_g = 0 the run is refused before any trial
    cfg = tmp_path / "bench.ini"
    cfg.write_text("[cutest]\nnoise_rel = 0\nbudget = 40\n")
    out = tmp_path / "out"
    assert main(["cutest", "--config", str(cfg), "--trials", "1", "--out", str(out)]) == 2
    assert "spbfgs" in capsys.readouterr().err
    assert not out.exists()
    code = main(
        ["cutest", "--config", str(cfg), "--trials", "1", "--method", "softqn", "--out", str(out)]
    )
    assert code == 0
    assert (out / "cutest_dixmaana_long.csv").is_file()


def test_unexpected_exception_exits_four_with_its_traceback(tmp_path, capsys, monkeypatch):
    # exit 1 means failed property checks and 2 a config error; a crash gets its own code
    def crash(*args, **kwargs):
        raise RuntimeError("runner crashed")

    defaults = softqn.cli._EXPERIMENTS["toy"][1]
    monkeypatch.setitem(softqn.cli._EXPERIMENTS, "toy", (crash, defaults))
    assert main(["toy", "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: runner crashed" in err

    from softqn import checks

    monkeypatch.setattr(checks, "ALL_CHECKS", {"crash": (crash, {})})
    assert main(["proptest"]) == 4
    assert "RuntimeError: runner crashed" in capsys.readouterr().err


def test_method_list_parsing():
    parser = build_parser()
    from softqn.experiments import QP_DEFAULTS

    args = parser.parse_args(["qp", "--method", "softqn, sgd"])
    params = _resolve_params(args, QP_DEFAULTS)
    assert params["methods"] == ["softqn", "sgd"]


def test_proptest_exits_one_on_a_failed_check(monkeypatch, capsys):
    from softqn import checks

    def failing():
        return checks.CheckResult("failing", 3, False, 0.5, "worst margin")

    monkeypatch.setattr(checks, "ALL_CHECKS", {"failing": (failing, {})})
    assert main(["proptest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL failing: 3 samples, worst margin = 5.000e-01" in out
    assert "1 check(s) failed" in out


def test_proptest_quick_sweep_passes(capsys):
    assert main(["proptest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("PASS") == 10


_NO_SCIPY_SCRIPT = """
import contextlib, importlib, io, json, os, pkgutil, sys, tempfile


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"{name} is refused")


sys.meta_path.insert(0, RefuseScipy())
report = {}
try:
    import scipy  # noqa: F401
except ImportError:
    report["scipy refused"] = True
import softqn

for module in pkgutil.iter_modules(softqn.__path__):
    if module.name != "__main__":  # it runs the CLI on import
        importlib.import_module(f"softqn.{module.name}")
from softqn.cli import main

smallest = {
    "toy": "iterations = 1",
    "qp": "trials = 1\\nn = 2\\niterations = 1",
    "cutest": "trials = 1\\nbudget = 1",
    "logreg": "trials = 1\\niterations = 1",
}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
    report["proptest"] = main(["proptest"])
    report["PASS lines"] = sum(line.startswith("PASS ") for line in out.getvalue().splitlines())
    for command, section in smallest.items():
        cfg = os.path.join(tmp, f"{command}.ini")
        with open(cfg, "w") as f:
            f.write(f"[{command}]\\n{section}\\n")
        report[command] = main([command, "--config", cfg, "--out", os.path.join(tmp, command)])
report["scipy loaded"] = sorted(name for name in sys.modules if name.startswith("scipy"))
print(json.dumps(report))
"""


def test_nothing_in_softqn_needs_scipy():
    # numpy is the only runtime dependency: with every scipy import refused, every
    # module imports, the property checks pass and each experiment runs at its
    # smallest size
    env = {**os.environ, "PYTHONPATH": str(Path(softqn.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT], capture_output=True, text=True, check=True, env=env
    )
    assert json.loads(proc.stdout) == {
        "scipy refused": True,
        "proptest": 0,
        "PASS lines": 10,
        "toy": 0,
        "qp": 0,
        "cutest": 0,
        "logreg": 0,
        "scipy loaded": [],
    }


def test_console_script_is_installed():
    import shutil

    exe = shutil.which("softqn-bench")
    if exe is None:
        pytest.skip("console script not on PATH (package not installed)")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "proptest" in proc.stdout


def test_console_script_entry_point_runs_without_an_install():
    # each callable that [project.scripts] names, run as the installed script would
    # run it, so a renamed or broken entry point fails without an install
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts
    env = {**os.environ, "PYTHONPATH": str(Path(softqn.__file__).resolve().parents[1])}
    for name, target in scripts.items():
        module, attr = target.split(":")
        code = f"import sys; from {module} import {attr}; sys.argv = [{name!r}, '--help']; {attr}()"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"usage: {name} ")
