"""Tests for metrics, trace alignment, summary statistics, and CSV emission."""

import numpy as np
import numpy.testing as npt
import pytest

from softqn.bench import (
    LOG_FLOOR,
    MetricSpec,
    align_trace,
    emit_csv,
    metric_log10_grad,
    metric_normalized_subopt,
    monte_carlo,
    summarize,
)
from softqn.solver import TrialRecord


def _record(grad_norms=(1.0,), subopt=(1.0,), eval_trace=None, phi_star=0.0):
    grad_norms = np.asarray(grad_norms, dtype=float)
    subopt = np.asarray(subopt, dtype=float)
    if eval_trace is None:
        eval_trace = [(0, float(subopt[0]) + (phi_star or 0.0))]
    return TrialRecord(
        grad_norms=grad_norms,
        suboptimality=subopt,
        eval_trace=eval_trace,
        final_x=np.zeros(1),
        iterations=len(grad_norms) - 1,
        fun_evals=0,
        grad_evals=len(grad_norms),
        step_rejections=0,
        skipped_updates=0,
        diverged=False,
        phi_star=phi_star,
    )


# ---------------------------------------------------------------------------
# metrics


def test_log10_grad_metric():
    rec = _record(grad_norms=(1.0, 0.1))
    npt.assert_allclose(metric_log10_grad(rec), [0.0, -1.0])


def test_log10_grad_clamps_zero_norm():
    rec = _record(grad_norms=(1.0, 0.0))
    assert metric_log10_grad(rec)[1] == LOG_FLOOR


def test_normalized_subopt_starts_at_zero():
    rec = _record(subopt=(2.0, 1.0, 0.5))
    values = metric_normalized_subopt(rec, phi0=2.0, phi_star=0.0)
    assert values[0] == 0.0
    # halving per step is an arithmetic sequence with slope -log10(2)
    npt.assert_allclose(np.diff(values), -np.log10(2.0) * np.ones(2))


def test_normalized_subopt_clamps_below_optimum():
    rec = _record(subopt=(1.0, -1e-17))
    values = metric_normalized_subopt(rec, phi0=1.0, phi_star=0.0)
    assert values[1] == LOG_FLOOR


def test_normalized_subopt_positive_for_divergent_traces():
    rec = _record(subopt=(1.0, 1e4))
    values = metric_normalized_subopt(rec, phi0=1.0, phi_star=0.0)
    assert values[1] == pytest.approx(4.0)


def test_normalized_subopt_validates_inputs():
    rec = _record(subopt=(1.0, 0.5), phi_star=None)
    with pytest.raises(ValueError):
        metric_normalized_subopt(rec, phi0=1.0, phi_star=0.0)
    rec = _record(subopt=(1.0, 0.5))
    with pytest.raises(ValueError):
        metric_normalized_subopt(rec, phi0=0.0, phi_star=0.0)


# ---------------------------------------------------------------------------
# evaluation-aligned traces


def test_align_trace_single_iterate_is_constant():
    rec = _record(eval_trace=[(0, 5.0)], phi_star=1.0)
    aligned = align_trace(rec, grid_max=10)
    npt.assert_array_equal(aligned.grid, np.arange(1, 11))
    npt.assert_allclose(aligned.values, np.full(10, 4.0))


def test_align_trace_steps_exactly_at_eval_index():
    rec = _record(eval_trace=[(0, 5.0), (10, 3.0)], phi_star=0.0)
    aligned = align_trace(rec, grid_max=12)
    # "last iterate before j evaluations": the value changes at grid index 10
    npt.assert_allclose(aligned.values[:9], np.full(9, 5.0))
    npt.assert_allclose(aligned.values[9:], np.full(3, 3.0))


def test_align_trace_needs_phi_star():
    rec = _record(eval_trace=[(0, 5.0)], phi_star=None)
    with pytest.raises(ValueError):
        align_trace(rec, 5)


# ---------------------------------------------------------------------------
# summaries


def test_summarize_hand_values():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert (s.min, s.max, s.mean, s.median) == (1.0, 4.0, 2.5, 2.5)
    assert s.variance == pytest.approx(5.0 / 3.0)
    assert (s.q1, s.q3) == (1.75, 3.25)


def test_summarize_constant_vector():
    s = summarize([2.0, 2.0, 2.0])
    assert s.variance == 0.0
    assert s.min == s.max == s.median == 2.0


def test_summarize_single_value_and_empty():
    assert summarize([3.0]).variance == 0.0
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_ordering_invariant():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(101)
    s = summarize(v)
    assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
    assert s.variance >= 0


# ---------------------------------------------------------------------------
# Monte Carlo driver and CSV emission


def test_monte_carlo_grid_and_determinism():
    calls = []

    def trial_fn(m, t):
        calls.append((m, t))
        return _record(grad_norms=(1.0, 0.5 + 0.1 * t))

    records = monte_carlo(trial_fn, ["a", "b"], 3)
    assert calls == [("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1), ("b", 2)]
    assert set(records) == {"a", "b"}
    assert all(len(v) == 3 for v in records.values())


def test_emit_csv_schemas(tmp_path):
    records = {
        "softqn": [_record(grad_norms=(1.0, 0.1)), _record(grad_norms=(1.0, 0.2))],
        "sgd": [_record(grad_norms=(1.0, 0.5)), _record(grad_norms=(1.0, 0.6))],
    }
    metric = MetricSpec("log10_grad_norm", "iteration", metric_log10_grad, band="mean3sd")
    written = emit_csv(tmp_path, "unit", "toyprob", records, metric, summary=True)
    paths = {p.rsplit("/", 1)[-1] for p in written}
    assert paths == {
        "unit_long.csv",
        "fig_unit_log10_grad_norm_softqn.csv",
        "fig_unit_log10_grad_norm_sgd.csv",
        "unit_summary.csv",
    }

    long_lines = (tmp_path / "unit_long.csv").read_text().splitlines()
    assert long_lines[0] == "method,trial,index_kind,index,metric_name,value"
    assert len(long_lines) == 1 + 2 * 2 * 2  # methods x trials x indices
    assert long_lines[1].startswith("softqn,0,iteration,0,log10_grad_norm,")

    summary_lines = (tmp_path / "unit_summary.csv").read_text().splitlines()
    assert summary_lines[0] == "problem,method,min,max,mean,median,variance"
    assert summary_lines[1].startswith("toyprob,softqn,")

    fig_lines = (tmp_path / "fig_unit_log10_grad_norm_softqn.csv").read_text().splitlines()
    assert fig_lines[0] == "index,mean,lo3sd,hi3sd,lo3sd_pop,hi3sd_pop"

    # scientific notation with >= 6 significant digits, LF endings, UTF-8
    value = long_lines[1].rsplit(",", 1)[1]
    mantissa = value.split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) >= 6
    raw = (tmp_path / "unit_long.csv").read_bytes()
    assert b"\r" not in raw


def test_emit_csv_quartile_band(tmp_path):
    records = {"m": [_record(grad_norms=(1.0, 10.0 ** (-i))) for i in range(5)]}
    metric = MetricSpec("log10_grad_norm", "fun_eval", metric_log10_grad, band="quartiles")
    emit_csv(tmp_path, "q", "prob", records, metric)
    lines = (tmp_path / "fig_q_log10_grad_norm_m.csv").read_text().splitlines()
    assert lines[0] == "index,median,q1,q3,min,max"
    # fun_eval grids start at 1
    assert lines[1].startswith("1,")


def test_emit_csv_quartile_band_matches_summarize_per_column(tmp_path):
    # 7 trials x 6 indices of signed zeros and ones: a quartile that falls between
    # a +0 and a -0 keeps the sign a single-column percentile gives it
    stacked = np.array(
        [
            [0.0, 1.0, -1.0, -1.0, -0.0, -0.0],
            [-1.0, -1.0, -0.0, 0.0, -1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0, 1.0, 1.0],
            [-0.0, -0.0, -1.0, -1.0, -1.0, 1.0],
            [-1.0, 0.0, 0.0, -1.0, -0.0, 0.0],
            [-0.0, 0.0, -1.0, -0.0, 0.0, 0.0],
            [-1.0, -0.0, 1.0, 0.0, -0.0, -1.0],
        ]
    )
    records = {"m": [_record(grad_norms=row) for row in stacked]}
    metric = MetricSpec("raw", "iteration", lambda r: r.grad_norms, band="quartiles")
    emit_csv(tmp_path, "q", "prob", records, metric)
    lines = (tmp_path / "fig_q_raw_m.csv").read_text().splitlines()[1:]
    assert len(lines) == stacked.shape[1]
    for i, line in enumerate(lines):
        st = summarize(stacked[:, i])
        expected = [st.median, st.q1, st.q3, st.min, st.max]
        assert line == ",".join([str(i)] + [f"{v:.8e}" for v in expected])


def test_emit_csv_summary_is_each_trials_last_series_value(tmp_path):
    # trials stop after 2, 4 and 3 iterations: the figure file is cut to the
    # shortest, but the summary reads each trial's own last value
    grads = [(1.0, 0.5), (1.0, 0.5, 0.25, 1e-3), (1.0, 0.5, 0.1)]
    records = {"m": [_record(grad_norms=g) for g in grads]}
    metric = MetricSpec("log10_grad_norm", "iteration", metric_log10_grad)
    emit_csv(tmp_path, "s", "prob", records, metric, summary=True)
    st = summarize([np.log10(g[-1]) for g in grads])
    expected = [st.min, st.max, st.mean, st.median, st.variance]
    lines = (tmp_path / "s_summary.csv").read_text().splitlines()
    assert lines[1:] == [",".join(["prob", "m"] + [f"{v:.8e}" for v in expected])]
    assert len((tmp_path / "fig_s_log10_grad_norm_m.csv").read_text().splitlines()) == 1 + 2


def test_emit_csv_reruns_are_byte_identical(tmp_path):
    def build():
        return {
            "m": [_record(grad_norms=(1.0, 0.25)), _record(grad_norms=(1.0, 0.3))],
        }

    metric = MetricSpec("log10_grad_norm", "iteration", metric_log10_grad)
    emit_csv(tmp_path / "a", "e", "p", build(), metric)
    emit_csv(tmp_path / "b", "e", "p", build(), metric)
    for name in ["e_long.csv", "fig_e_log10_grad_norm_m.csv"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
