"""Monte Carlo benchmark harness: paired trials, metrics, and CSV emission.

Trials are seeded from (base_seed, trial) or (base_seed, method, trial) so runs
are reproducible and embarrassingly parallel by construction; protocols that
share noise across methods derive the oracle seed from the trial index only.
All CSV output is plain UTF-8 with LF line endings and scientific notation, so
reruns with the same configuration are byte-identical.
"""

import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .solver import TrialRecord

__all__ = [
    "SummaryStats",
    "MetricSpec",
    "metric_log10_grad",
    "metric_normalized_subopt",
    "align_trace",
    "summarize",
    "monte_carlo",
    "emit_csv",
    "write_csv",
]

LOG_FLOOR = -16.0


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


def metric_normalized_subopt(record: TrialRecord) -> np.ndarray:
    """Per-iteration log10((phi_k - phi*)/(phi_0 - phi*)), floored at -16, with
    phi_0 - phi* the record's own first suboptimality.

    Non-positive numerators (the iterate beat phi* to rounding) are clamped to
    the floor.  At the start point the metric is exactly 0.
    """
    if record.phi_star is None:
        raise ValueError("record has no phi_star to measure suboptimality from")
    denom = record.suboptimality[0]
    if denom <= 0:
        raise ValueError(f"the start point's suboptimality {denom!r} is not positive")
    ratio = np.maximum(record.suboptimality / denom, 10.0 ** LOG_FLOOR)
    return np.log10(ratio)


def align_trace(record: TrialRecord, grid_max: int) -> np.ndarray:
    """Suboptimality of the last iterate adopted at or before each evaluation count
    j = 1..grid_max, as an array whose entry j - 1 belongs to count j.

    Grid point j takes the last iterate i with ``eval_counts[i] <= j``, or the
    start point when there is none.  The trace is right-continuous: a step
    accepted at evaluation j changes the value exactly at grid index j.
    """
    if record.phi_star is None:
        raise ValueError("align_trace needs a problem with a known phi_star")
    grid = np.arange(1, grid_max + 1)
    pos = np.maximum(np.searchsorted(record.eval_counts, grid, side="right") - 1, 0)
    return record.suboptimality[pos]


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


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under ``header`` as UTF-8 with LF line endings.

    A NumPy float array is written in scientific notation with 9 significant
    digits (``%.8e``); any other column is written with ``str``.  Columns of
    unequal length raise ValueError before the file is opened.
    """
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns must have equal lengths, got {[len(c) for c in columns]}")
    cells = [
        map("{:.8e}".format, c.tolist()) if isinstance(c, np.ndarray) and c.dtype.kind == "f" else map(str, c)
        for c in columns
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _quartile_columns(stacked):
    # column by column these equal summarize(), signed zeros included;
    # percentile(stacked, [25, 75]) in one call can swap +0 and -0
    return [
        np.median(stacked, axis=0),
        np.percentile(stacked, 25, axis=0),
        np.percentile(stacked, 75, axis=0),
        stacked.min(axis=0),
        stacked.max(axis=0),
    ]


def _mean3sd_columns(stacked):
    mean = stacked.mean(axis=0)
    sd = stacked.std(axis=0, ddof=1) if stacked.shape[0] > 1 else np.zeros_like(mean)
    sd_mean = sd / np.sqrt(stacked.shape[0])
    return [mean, mean - 3.0 * sd_mean, mean + 3.0 * sd_mean, mean - 3.0 * sd, mean + 3.0 * sd]


# MetricSpec.band -> (header, per-index columns of a trials x indices array)
_BANDS = {
    "quartiles": ("index,median,q1,q3,min,max", _quartile_columns),
    "mean3sd": ("index,mean,lo3sd,hi3sd,lo3sd_pop,hi3sd_pop", _mean3sd_columns),
}


def emit_csv(out_dir, experiment: str, problem: str, records, spec: MetricSpec, summary: bool = False):
    """Write the long-format CSV, one plot-data file per method, and optionally a
    summary CSV of each trial's last series value.

    records: dict method -> list[TrialRecord].  Trials may differ in length:
    the plot data is cut to the shortest, and the summary reads each trial's
    own last value.  Returns the list of written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    series = {m: [np.asarray(spec.values(r), dtype=float) for r in recs] for m, recs in records.items()}

    methods, trials, index = [], [], []
    for m, per_trial in series.items():
        for t, v in enumerate(per_trial):
            methods += [m] * len(v)
            trials += [t] * len(v)
            index += range(len(v))
    values = np.concatenate([np.empty(0), *(v for per_trial in series.values() for v in per_trial)])
    n = len(index)
    long_path = os.path.join(out_dir, f"{experiment}_long.csv")
    write_csv(
        long_path,
        "method,trial,index_kind,index,metric_name,value",
        [methods, trials, [spec.index_kind] * n, index, [spec.name] * n, values],
    )
    written = [long_path]

    header, band_columns = _BANDS[spec.band]
    first = 1 if spec.index_kind == "fun_eval" else 0  # eval grids start at 1
    for m, per_trial in series.items():
        width = min(len(v) for v in per_trial)
        stacked = np.vstack([v[:width] for v in per_trial])
        path = os.path.join(out_dir, f"fig_{experiment}_{spec.name}_{m}.csv")
        write_csv(path, header, [range(first, first + width), *band_columns(stacked)])
        written.append(path)

    if summary:
        stats = [summarize([v[-1] for v in per_trial]) for per_trial in series.values()]
        summary_path = os.path.join(out_dir, f"{experiment}_summary.csv")
        write_csv(
            summary_path,
            "problem,method,min,max,mean,median,variance",
            [[problem] * len(stats), list(series), *np.array([s[:5] for s in stats]).reshape(-1, 5).T],
        )
        written.append(summary_path)

    return written
