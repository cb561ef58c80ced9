"""Tests for metrics, trace alignment, summary statistics, and CSV emission."""

import os

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
    write_csv,
)
from softqn.solver import TrialRecord


def _record(grad_norms=(1.0,), subopt=(1.0,), eval_counts=(0,), phi_star=0.0):
    grad_norms = np.asarray(grad_norms, dtype=float)
    subopt = np.asarray(subopt, dtype=float)
    return TrialRecord(
        grad_norms=grad_norms,
        suboptimality=subopt,
        eval_counts=np.asarray(eval_counts, dtype=int),
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
    values = metric_normalized_subopt(rec, phi0=2.0)
    assert values[0] == 0.0
    # halving per step is an arithmetic sequence with slope -log10(2)
    npt.assert_allclose(np.diff(values), -np.log10(2.0) * np.ones(2))


def test_normalized_subopt_clamps_below_optimum():
    rec = _record(subopt=(1.0, -1e-17))
    values = metric_normalized_subopt(rec, phi0=1.0)
    assert values[1] == LOG_FLOOR


def test_normalized_subopt_positive_for_divergent_traces():
    rec = _record(subopt=(1.0, 1e4))
    values = metric_normalized_subopt(rec, phi0=1.0)
    assert values[1] == pytest.approx(4.0)


def test_normalized_subopt_validates_inputs():
    rec = _record(subopt=(1.0, 0.5), phi_star=None)
    with pytest.raises(ValueError):
        metric_normalized_subopt(rec, phi0=1.0)
    rec = _record(subopt=(1.0, 0.5))
    with pytest.raises(ValueError):
        metric_normalized_subopt(rec, phi0=0.0)


# ---------------------------------------------------------------------------
# evaluation-aligned traces


def test_align_trace_single_iterate_is_constant():
    rec = _record(subopt=(4.0,), eval_counts=(0,), phi_star=1.0)
    aligned = align_trace(rec, grid_max=10)
    npt.assert_array_equal(aligned.grid, np.arange(1, 11))
    npt.assert_allclose(aligned.values, np.full(10, 4.0))


def test_align_trace_steps_exactly_at_eval_index():
    rec = _record(subopt=(5.0, 3.0), eval_counts=(0, 10), phi_star=0.0)
    aligned = align_trace(rec, grid_max=12)
    # "last iterate before j evaluations": the value changes at grid index 10
    npt.assert_allclose(aligned.values[:9], np.full(9, 5.0))
    npt.assert_allclose(aligned.values[9:], np.full(3, 3.0))


def test_align_trace_needs_phi_star():
    rec = _record(subopt=(np.nan,), eval_counts=(0,), phi_star=None)
    with pytest.raises(ValueError):
        align_trace(rec, 5)


def _stepwise_align(eval_trace, phi_star, grid_max):
    """The per-grid-point scan align_trace replaced, over (count, phi) pairs."""
    values = np.empty(grid_max)
    pos = 0
    current = eval_trace[0][1] - phi_star
    for j in range(1, grid_max + 1):
        while pos + 1 < len(eval_trace) and eval_trace[pos + 1][0] <= j:
            pos += 1
            current = eval_trace[pos][1] - phi_star
        values[j - 1] = current
    return values


def test_align_trace_matches_the_stepwise_scan():
    rng = np.random.default_rng(7)
    for _ in range(300):
        length = int(rng.integers(1, 12))
        # ties (increment 0), gaps (increments above 1) and a first count above 1
        first = int(rng.choice([0, 1, 2, 5]))
        counts = first + np.concatenate([[0], np.cumsum(rng.choice([0, 0, 1, 2, 7], length - 1))])
        phi_star = float(rng.choice([0.0, 1.0, -3.25]))
        phis = phi_star + rng.exponential(size=length) * 10.0 ** rng.integers(-20, 3, size=length)
        rec = _record(subopt=phis - phi_star, eval_counts=counts, phi_star=phi_star)
        # grids ending below the first count, between counts and past the last one
        grid_max = int(rng.integers(0, counts[-1] + 6))
        aligned = align_trace(rec, grid_max)
        npt.assert_array_equal(aligned.grid, np.arange(1, grid_max + 1))
        expected = _stepwise_align(list(zip(counts.tolist(), phis.tolist())), phi_star, grid_max)
        assert np.array_equal(aligned.values, expected)


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


def test_write_csv_refuses_unequal_columns_before_opening_the_file(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="equal lengths"):
        write_csv(path, "a,b", [range(3), np.array([1.0, 2.0])])
    assert not path.exists()


def _reference_emit_csv(out_dir, experiment, problem, records, spec, summary=False):
    """emit_csv as it was with one row-building branch per band, kept as the
    byte-level reference for the table-driven writer."""

    def fmt(v):
        return f"{v:.8e}"

    def write_lines(path, header, rows):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")

    os.makedirs(out_dir, exist_ok=True)
    long_rows = []
    series = {}
    for m, recs in records.items():
        per_trial = [np.asarray(spec.values(r), dtype=float) for r in recs]
        series[m] = per_trial
        for t, v in enumerate(per_trial):
            for i, val in enumerate(v):
                long_rows.append((m, str(t), spec.index_kind, str(i), spec.name, fmt(val)))
    write_lines(
        os.path.join(out_dir, f"{experiment}_long.csv"), "method,trial,index_kind,index,metric_name,value", long_rows
    )
    for m, per_trial in series.items():
        width = min(len(v) for v in per_trial)
        stacked = np.vstack([v[:width] for v in per_trial])
        idx = np.arange(width)
        if spec.index_kind == "fun_eval":
            idx = idx + 1
        path = os.path.join(out_dir, f"fig_{experiment}_{spec.name}_{m}.csv")
        if spec.band == "quartiles":
            median = np.median(stacked, axis=0)
            q1 = np.percentile(stacked, 25, axis=0)
            q3 = np.percentile(stacked, 75, axis=0)
            lo, hi = stacked.min(axis=0), stacked.max(axis=0)
            rows = [
                (str(idx[i]), fmt(median[i]), fmt(q1[i]), fmt(q3[i]), fmt(lo[i]), fmt(hi[i]))
                for i in range(len(median))
            ]
            write_lines(path, "index,median,q1,q3,min,max", rows)
        else:
            mean = stacked.mean(axis=0)
            sd = stacked.std(axis=0, ddof=1) if stacked.shape[0] > 1 else np.zeros_like(mean)
            sd_mean = sd / np.sqrt(stacked.shape[0])
            rows = [
                (
                    str(idx[i]),
                    fmt(mean[i]),
                    fmt(mean[i] - 3.0 * sd_mean[i]),
                    fmt(mean[i] + 3.0 * sd_mean[i]),
                    fmt(mean[i] - 3.0 * sd[i]),
                    fmt(mean[i] + 3.0 * sd[i]),
                )
                for i in range(len(mean))
            ]
            write_lines(path, "index,mean,lo3sd,hi3sd,lo3sd_pop,hi3sd_pop", rows)
    if summary:
        rows = []
        for m, per_trial in series.items():
            st = summarize([v[-1] for v in per_trial])
            rows.append((problem, m, fmt(st.min), fmt(st.max), fmt(st.mean), fmt(st.median), fmt(st.variance)))
        write_lines(
            os.path.join(out_dir, f"{experiment}_summary.csv"), "problem,method,min,max,mean,median,variance", rows
        )


@pytest.mark.parametrize("band", ["mean3sd", "quartiles"])
@pytest.mark.parametrize("index_kind", ["iteration", "fun_eval"])
def test_emit_csv_bytes_match_the_per_band_writer(tmp_path, band, index_kind):
    rng = np.random.default_rng(11)
    pool = np.array([0.0, -0.0, np.nan, 1.0, -1.0, 1e-300, -2.5e17, 3.0])

    def trial(length):
        # random magnitudes mixed with signed zeros and NaNs
        v = rng.standard_normal(length) * 10.0 ** rng.integers(-8, 8, size=length)
        mask = rng.random(length) < 0.4
        v[mask] = rng.choice(pool, mask.sum())
        return _record(grad_norms=v)

    records = {
        "a": [trial(n) for n in (6, 9, 4)],  # unequal lengths: plot data cut to 4
        "b": [trial(5)],  # a single trial: zero spread
        "c": [trial(7) for _ in range(8)],
    }
    metric = MetricSpec("raw", index_kind, lambda r: r.grad_norms, band=band)
    written = emit_csv(tmp_path / "new", "e", "prob", records, metric, summary=True)
    _reference_emit_csv(tmp_path / "ref", "e", "prob", records, metric, summary=True)
    names = sorted(os.path.basename(p) for p in written)
    assert names == sorted(os.listdir(tmp_path / "ref"))
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
