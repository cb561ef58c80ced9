"""Acceptance suite: one test per headline guarantee, at full sample counts.

Each test prints the measured quantities it gates on, so a ``pytest -v`` run
gives one pass/fail line per criterion and the captured output shows the
numbers behind it.  Randomized checks use their fixed default seeds; the
experiment-level tests run the real benchmark protocols end to end.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from softqn.checks import (
    check_bfgs_limit,
    check_bounded_chains,
    check_oracle_agreement,
    check_pd_guarantee,
    check_scale_invariance,
    check_sign_symmetry,
    check_stationarity,
    check_trace_bound,
)
from softqn.bench import align_trace, metric_log10_grad, metric_normalized_subopt
from softqn.experiments import QP_DEFAULTS, run_cutest, run_logreg, run_qp, run_toy
from softqn.noise import NoisyOracle
from softqn.problems import toy_2d
from softqn.solver import Budget, FixedStep, SaddleFreeNewton, SoftQn, run, saddle_free_abs
from softqn.updates import ConstantAlpha, lambda_max_upper_bound


def _report(result, budget_s, elapsed):
    line = (
        f"{result.samples} samples, {result.note} = "
        f"{'n/a' if result.worst is None else format(result.worst, '.3e')}, "
        f"{elapsed:.1f}s (budget {budget_s:.0f}s)"
    )
    print(line)
    return line


def test_criterion_01_pd_for_all_penalties_and_pairs():
    t0 = time.monotonic()
    result = check_pd_guarantee(samples=10_000)
    elapsed = time.monotonic() - t0
    line = _report(result, 30, elapsed)
    assert result.passed, line
    assert elapsed < 30, line


def test_criterion_02_update_minimizes_the_penalty_objective():
    t0 = time.monotonic()
    stat = check_stationarity(samples=200)
    agree = check_oracle_agreement(samples=100)
    elapsed = time.monotonic() - t0
    line = _report(stat, 300, elapsed) + " | " + _report(agree, 300, elapsed)
    assert stat.passed and agree.passed, line
    assert elapsed < 300, line


def test_criterion_03_bfgs_recovered_in_the_large_penalty_limit():
    result = check_bfgs_limit(samples=100)
    line = _report(result, 60, 0.0)
    assert result.passed, line


def test_criterion_04_sign_symmetry_and_scale_invariance():
    sym = check_sign_symmetry(samples=100)
    scale = check_scale_invariance(samples=100)
    line = _report(sym, 60, 0.0) + " | " + _report(scale, 60, 0.0)
    assert sym.passed and scale.passed, line


def test_criterion_05_clamped_chains_keep_bounded_spectra():
    result = check_bounded_chains(chains=20, iterations=500)
    line = _report(result, 60, 0.0)
    assert result.passed, line


def test_criterion_06_trace_based_eigenvalue_bound():
    result = check_trace_bound(samples=10_000)
    line = _report(result, 60, 0.0)
    assert result.passed, line
    witness = lambda_max_upper_bound(np.diag([1.0, 2.0, 3.0]))
    print(f"witness diag(1,2,3): bound = {witness:.6f}")
    assert witness >= 3.0
    assert witness == pytest.approx(3.1547, abs=1e-4)


def test_criterion_07_saddle_escape_on_the_toy_landscape():
    t0 = time.monotonic()
    problem = toy_2d()
    step = FixedStep(0.01)
    budget = Budget(iterations=500)
    h0 = np.linalg.inv(saddle_free_abs(problem.hess(problem.x0)))

    soft = run(
        NoisyOracle(problem, seed=0),
        SoftQn(ConstantAlpha(8e5)),
        step,
        budget,
        h0=h0,
        keep_iterates=True,
    )
    sfn = run(NoisyOracle(problem, seed=0), SaddleFreeNewton(), step, budget, keep_iterates=True)
    elapsed = time.monotonic() - t0

    saddle = np.array([0.827, -0.230])
    minimum = np.array([0.7, -0.7])
    d_saddle = min(np.linalg.norm(xk - saddle) for xk in soft.iterates)
    d_soft_end = float(np.linalg.norm(soft.iterates[-1] - minimum))
    d_sfn_end = float(np.linalg.norm(sfn.iterates[-1] - minimum))
    print(
        f"(a) min dist to saddle = {d_saddle:.4f}, (b) final dist to minimum = "
        f"{d_soft_end:.4f}, (c) saddle-free Newton final dist = {d_sfn_end:.4f}, "
        f"{elapsed:.2f}s (budget 1s)"
    )
    assert d_saddle <= 0.05  # (a) the walk visits the saddle
    assert d_soft_end <= 0.05  # (b) and still ends at the minimum
    assert d_sfn_end > 0.05  # (c) the comparison walk stays attracted to the saddle
    assert elapsed < 1.0


def test_criterion_08_qp_ordering_between_methods(tmp_path):
    # With alpha*y'Hy << 1 and pairs dominated by the noise difference
    # (E[yy'] ~= 2*sigma^2*I), each soft update contracts H ~= hI by about
    # 2*alpha*sigma^2*h^2, so H_k ~= I/(1 + 2*alpha*sigma^2*k): soft QN is SGD
    # whose step scale falls from 1 to c_K at the last iteration K.  Its final
    # suboptimality is then expected to sit strictly between SGD at scale 1 and
    # SGD at scale c_K, run on the same seed so that all arms share problems and
    # noise.  Which end of the band is better is not part of that argument, so
    # the test does not assert it (at the defaults SGD at scale 1 was measured to
    # be the better end).  The scale of the noise term is pinned by the
    # contraction unit test in test_updates.py, not by this band.
    p = QP_DEFAULTS
    c_k = 1.0 / (1.0 + 2.0 * p["alpha"] * p["noise_scale"] * p["iterations"])
    t0 = time.monotonic()
    records, _ = run_qp({}, str(tmp_path / "qp"))
    sgd_ck, _ = run_qp(
        {"methods": ["sgd"], "step_scale": c_k * p["step_scale"]}, str(tmp_path / "sgd_ck")
    )
    records["sgd_ck"] = sgd_ck["sgd"]
    elapsed = time.monotonic() - t0

    def final_mean(method):
        values = []
        for rec in records[method]:
            phi0 = rec.suboptimality[0] + rec.phi_star
            values.append(metric_normalized_subopt(rec, phi0)[-1])
        return float(np.mean(values))

    def initial_mean(method):
        values = []
        for rec in records[method]:
            phi0 = rec.suboptimality[0] + rec.phi_star
            values.append(metric_normalized_subopt(rec, phi0)[0])
        return float(np.mean(values))

    means = {m: final_mean(m) for m in ["newton", "softqn", "spbfgs", "bfgs", "sgd", "sgd_ck"]}
    print(
        "mean final normalized log10 suboptimality: "
        + ", ".join(f"{m}={v:+.3f}" for m, v in means.items())
        + f"; c_K={c_k:.4f}, want softqn={means['softqn']:+.4f} strictly between"
        + f" sgd={means['sgd']:+.4f} and sgd_ck={means['sgd_ck']:+.4f}"
        + f", {elapsed:.0f}s (budget 120s)"
    )
    assert elapsed < 120
    assert means["newton"] < means["softqn"]
    assert means["softqn"] < means["spbfgs"] + 0.3
    assert final_mean("bfgs") > initial_mean("bfgs")  # stochastic BFGS degrades
    low, high = sorted([means["sgd"], means["sgd_ck"]])
    assert low < means["softqn"] < high


def test_criterion_09_noisy_line_search_benchmark_medians(tmp_path):
    t0 = time.monotonic()
    bands = {"DIXMAANA": (2.3e-8, 2.3e-6), "ARWHEAD": (2.17e-7, 2.17e-5)}
    medians = {}
    for name in bands:
        records, _ = run_cutest({"problem": name, "methods": ["softqn"]}, str(tmp_path / name))
        finals = [align_trace(rec, 2000).values[-1] for rec in records["softqn"]]
        medians[name] = float(np.median(finals))
    elapsed = time.monotonic() - t0
    print(
        ", ".join(f"{n}: median = {medians[n]:.3e}, accept {b}" for n, b in bands.items())
        + f", {elapsed:.0f}s (budget 300s)"
    )
    assert elapsed < 300
    for name, (lo, hi) in bands.items():
        assert lo <= medians[name] <= hi, f"{name} median {medians[name]:.3e} outside [{lo}, {hi}]"


def test_criterion_10_logistic_regression_beats_stochastic_bfgs(tmp_path):
    records, _ = run_logreg({"methods": ["softqn", "bfgs"]}, str(tmp_path))
    means = {
        m: float(np.mean([metric_log10_grad(rec)[-1] for rec in records[m]]))
        for m in ["softqn", "bfgs"]
    }
    print(f"mean log10 gradient norm at iteration 300: {means}")
    assert means["softqn"] <= means["bfgs"]


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    def digest(run_fn, params, out):
        _, written = run_fn(params, str(out))
        return {Path(p).name: Path(p).read_bytes() for p in written}

    first = digest(run_toy, {}, tmp_path / "toy_a")
    second = digest(run_toy, {}, tmp_path / "toy_b")
    assert first.keys() == second.keys()
    assert all(first[k] == second[k] for k in first), "toy rerun differs"

    params = {"trials": 2, "iterations": 40}
    first = digest(run_logreg, params, tmp_path / "lr_a")
    second = digest(run_logreg, params, tmp_path / "lr_b")
    assert first.keys() == second.keys()
    assert all(first[k] == second[k] for k in first), "logreg rerun differs"
    print(f"byte-identical reruns for {sorted(first)}")
