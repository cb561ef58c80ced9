"""Monte Carlo benchmark harness: paired trials, metrics, and CSV emission.

Trials are seeded from (base_seed, trial) or (base_seed, method, trial) so runs
are reproducible and embarrassingly parallel by construction; protocols that
share noise across methods derive the oracle seed from the trial index only.
All CSV output is plain UTF-8 with LF line endings and scientific notation, so
reruns with the same configuration are byte-identical.
"""

import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .solver import TrialRecord

__all__ = [
    "AlignedTrace",
    "SummaryStats",
    "MetricSpec",
    "metric_log10_grad",
    "metric_normalized_subopt",
    "align_trace",
    "summarize",
    "monte_carlo",
    "emit_csv",
]

LOG_FLOOR = -16.0


class AlignedTrace(NamedTuple):
    """Step-function resampling of an eval_trace onto the grid 1..grid_max."""

    grid: np.ndarray
    values: np.ndarray


class SummaryStats(NamedTuple):
    min: float
    max: float
    mean: float
    median: float
    variance: float
    q1: float
    q3: float


def metric_log10_grad(record: TrialRecord) -> np.ndarray:
    """Per-iteration log10 of the exact gradient norm, floored at -16."""
    return np.log10(np.maximum(record.grad_norms, 10.0 ** LOG_FLOOR))


def metric_normalized_subopt(record: TrialRecord, phi0: float, phi_star: float) -> np.ndarray:
    """Per-iteration log10((phi_k - phi*)/(phi_0 - phi*)), floored at -16.

    Non-positive numerators (the iterate beat phi* to rounding) are clamped to
    the floor.  At the start point the metric is exactly 0.
    """
    if record.phi_star is None:
        raise ValueError("record has no phi_star to reconstruct values from")
    denom = phi0 - phi_star
    if denom <= 0:
        raise ValueError("phi0 must exceed phi_star")
    if phi_star == record.phi_star:
        numer = record.suboptimality
    else:
        numer = (record.suboptimality + record.phi_star) - phi_star
    ratio = np.maximum(numer / denom, 10.0 ** LOG_FLOOR)
    return np.log10(ratio)


def align_trace(record: TrialRecord, grid_max: int) -> AlignedTrace:
    """Suboptimality of the last iterate adopted at or before each evaluation count.

    The trace is right-continuous: a step accepted at evaluation j changes the
    value exactly at grid index j.
    """
    if record.phi_star is None:
        raise ValueError("align_trace needs a problem with a known phi_star")
    grid = np.arange(1, grid_max + 1)
    values = np.empty(grid_max)
    trace = record.eval_trace
    pos = 0
    current = trace[0][1] - record.phi_star
    for j in range(1, grid_max + 1):
        while pos + 1 < len(trace) and trace[pos + 1][0] <= j:
            pos += 1
            current = trace[pos][1] - record.phi_star
        values[j - 1] = current
    return AlignedTrace(grid=grid, values=values)


def summarize(values) -> SummaryStats:
    """Min/max/mean/median/sample-variance/quartiles of a non-empty sample.

    Median uses the midpoint convention, quartiles linear interpolation, and the
    variance the n-1 normalization (0 for a single value).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty sample")
    variance = float(np.var(v, ddof=1)) if v.size > 1 else 0.0
    return SummaryStats(
        min=float(np.min(v)),
        max=float(np.max(v)),
        mean=float(np.mean(v)),
        median=float(np.median(v)),
        variance=variance,
        q1=float(np.percentile(v, 25)),
        q3=float(np.percentile(v, 75)),
    )


# --------------------------------------------------------------------------
# Monte Carlo driver


@dataclass(frozen=True)
class MetricSpec:
    """How to turn one TrialRecord into a per-index series for CSV emission.

    ``band`` picks the figure layout: "mean3sd" writes mean with 3-sigma bands
    (both the mean-estimator band and the population band), "quartiles" writes
    median, quartiles and extremes.
    """

    name: str
    index_kind: str  # "iteration" or "fun_eval"
    values: Callable[[TrialRecord], np.ndarray]
    band: str = "mean3sd"


def monte_carlo(trial_fn: Callable[[str, int], TrialRecord], methods, trials: int):
    """Run ``trial_fn(method, trial)`` over the full grid, serially, in order.

    Seeding lives inside ``trial_fn`` and must depend only on (method, trial),
    so execution order cannot change any result.
    """
    records = {}
    for m in methods:
        records[m] = [trial_fn(m, t) for t in range(trials)]
    return records


# --------------------------------------------------------------------------
# CSV emission


def _fmt(v: float) -> str:
    return f"{v:.8e}"


def _write_lines(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def emit_csv(out_dir, experiment: str, problem: str, records, metrics, final_metric=None):
    """Write the long-format CSV, one plot-data file per (metric, method), and a
    summary CSV of the final metric across trials.

    records: dict method -> list[TrialRecord]; metrics: list[MetricSpec];
    final_metric: optional (name, callable record -> float) feeding the summary.
    Returns the list of written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    long_rows = []
    series = {}
    for spec in metrics:
        for m, recs in records.items():
            per_trial = [np.asarray(spec.values(r), dtype=float) for r in recs]
            width = min(len(v) for v in per_trial)
            stacked = np.vstack([v[:width] for v in per_trial])
            series[(spec.name, m)] = stacked
            for t, v in enumerate(per_trial):
                for i, val in enumerate(v):
                    long_rows.append((m, str(t), spec.index_kind, str(i), spec.name, _fmt(val)))

    long_path = os.path.join(out_dir, f"{experiment}_long.csv")
    _write_lines(long_path, "method,trial,index_kind,index,metric_name,value", long_rows)
    written.append(long_path)

    for spec in metrics:
        for m in records:
            stacked = series[(spec.name, m)]
            idx = np.arange(stacked.shape[1])
            if spec.index_kind == "fun_eval":
                idx = idx + 1  # eval grids start at 1
            path = os.path.join(out_dir, f"fig_{experiment}_{spec.name}_{m}.csv")
            if spec.band == "quartiles":
                # column by column these equal summarize(), signed zeros included;
                # percentile(stacked, [25, 75]) in one call can swap +0 and -0
                median = np.median(stacked, axis=0)
                q1 = np.percentile(stacked, 25, axis=0)
                q3 = np.percentile(stacked, 75, axis=0)
                lo, hi = stacked.min(axis=0), stacked.max(axis=0)
                rows = [
                    (str(idx[i]), _fmt(median[i]), _fmt(q1[i]), _fmt(q3[i]), _fmt(lo[i]), _fmt(hi[i]))
                    for i in range(len(median))
                ]
                _write_lines(path, "index,median,q1,q3,min,max", rows)
            else:
                mean = stacked.mean(axis=0)
                sd = stacked.std(axis=0, ddof=1) if stacked.shape[0] > 1 else np.zeros_like(mean)
                sd_mean = sd / np.sqrt(stacked.shape[0])
                rows = [
                    (
                        str(idx[i]),
                        _fmt(mean[i]),
                        _fmt(mean[i] - 3.0 * sd_mean[i]),
                        _fmt(mean[i] + 3.0 * sd_mean[i]),
                        _fmt(mean[i] - 3.0 * sd[i]),
                        _fmt(mean[i] + 3.0 * sd[i]),
                    )
                    for i in range(len(mean))
                ]
                _write_lines(path, "index,mean,lo3sd,hi3sd,lo3sd_pop,hi3sd_pop", rows)
            written.append(path)

    if final_metric is not None:
        name, fn = final_metric
        rows = []
        for m, recs in records.items():
            stats = summarize([fn(r) for r in recs])
            rows.append(
                (
                    problem,
                    m,
                    _fmt(stats.min),
                    _fmt(stats.max),
                    _fmt(stats.mean),
                    _fmt(stats.median),
                    _fmt(stats.variance),
                )
            )
        summary_path = os.path.join(out_dir, f"{experiment}_summary.csv")
        _write_lines(summary_path, "problem,method,min,max,mean,median,variance", rows)
        written.append(summary_path)

    return written
