"""Spans around the calls into softqn's modules, recorded from outside the package.

``installed(tracer)`` replaces the public functions each caller looks up (a
module attribute, or a method on ``NoisyOracle``) with a wrapper that records
one span per call, and puts the originals back on exit.  Problems built by the
experiments get their callables wrapped too, so problem evaluation shows up as
its own layer under the oracle channel that asked for it.

A span is (name, parent, start, end); spans stay in memory until ``save``.
A span's self time is its duration minus the durations of its direct children.
The layer of a span is the part of its name before the first dot.
"""

import dataclasses
import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.ls_evals = 0
        self.ls_accepted = 0
        self.ls_backtracks = 0

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(result)`` may replace the result."""
        nid = self._name_id(name)
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            return result if after is None else after(result)

        return traced

    def _count_line_search(self, result):
        self.ls_evals += result.fun_evals
        self.ls_accepted += int(result.accepted)
        self.ls_backtracks += result.backtracks
        return result

    def _wrap_problem(self, problem):
        changes = {
            attr: self.wrap(f"problems.{attr}", fn)
            for attr in ("phi", "grad", "hess", "batch_grad")
            if (fn := getattr(problem, attr)) is not None
        }
        return dataclasses.replace(problem, **changes)

    def targets(self):
        """(owner, attribute, span name, after) for every wrapped callable."""
        from softqn import experiments, noise, solver, updates

        oracle = noise.NoisyOracle
        return [
            *[(experiments, f"run_{e}", f"experiments.run_{e}", None) for e in ("qp", "cutest", "logreg")],
            (experiments, "monte_carlo", "bench.monte_carlo", None),
            (experiments, "emit_csv", "bench.emit_csv", None),
            (experiments, "align_trace", "bench.align_trace", None),
            (experiments, "metric_log10_grad", "bench.metric_log10_grad", None),
            (experiments, "metric_normalized_subopt", "bench.metric_normalized_subopt", None),
            (experiments, "load_libsvm", "problems.load_libsvm", None),
            (experiments, "gen_random_qp", "problems.gen_random_qp", self._wrap_problem),
            (experiments, "cutest_like", "problems.cutest_like", self._wrap_problem),
            (experiments, "logistic_problem", "problems.logistic_problem", self._wrap_problem),
            (experiments, "run", "solver.run", None),
            (solver, "compute_direction", "solver.compute_direction", None),
            (solver, "line_search_noisy", "solver.line_search_noisy", self._count_line_search),
            (solver, "soft_qn_update", "updates.soft_qn_update", None),
            (solver, "sp_bfgs_update", "updates.sp_bfgs_update", None),
            (solver, "bfgs_update", "updates.bfgs_update", None),
            (solver, "biased_direction", "updates.biased_direction", None),
            (updates, "is_positive_definite", "updates.is_positive_definite", None),
            *[(oracle, m, f"noise.{m}", None) for m in ("f", "g", "true_phi", "true_grad", "hess")],
        ]

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


@contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block, then restore the originals."""
    saved = []
    try:
        for owner, attr, name, after in tracer.targets():
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original, after))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanTable:
    """Durations and self times of a tracer's spans, grouped by name."""

    def __init__(self, tracer):
        self.names = list(tracer.names)
        name = np.frombuffer(tracer.name, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self.name, self.parent, self.dur = name, parent, dur
        self.self_time = dur - child
        layer_of = np.array([n.split(".")[0] for n in self.names] or [""])
        self.layer = layer_of[name] if len(name) else np.array([], dtype=str)

    def _mask(self, span_name):
        if span_name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(span_name)

    def calls(self, span_name) -> int:
        return int(self._mask(span_name).sum())

    def durations(self, span_name) -> np.ndarray:
        return self.dur[self._mask(span_name)]

    def total(self, span_name) -> float:
        return float(self.durations(span_name).sum())

    def self_total(self, span_name) -> float:
        return float(self.self_time[self._mask(span_name)].sum())

    def layer_self(self, layer) -> float:
        return float(self.self_time[self.layer == layer].sum())

    def total_under(self, span_name, parent_names) -> float:
        """Summed duration of ``span_name`` spans whose parent is one of ``parent_names``."""
        mask = self._mask(span_name)
        parent_ok = np.zeros(len(self.name), dtype=bool)
        for p in parent_names:
            parent_ok |= self._mask(p)
        idx = np.flatnonzero(mask & (self.parent >= 0))
        return float(self.dur[idx][parent_ok[self.parent[idx]]].sum())


def tail(values):
    """(value, percentile) at the highest of 99.9/99/95/90/75 that has at least
    ten samples beyond it; the median when too few samples exist."""
    n = len(values)
    pct = next((p for p in (99.9, 99.0, 95.0, 90.0, 75.0) if n * (1.0 - p / 100.0) >= 10), 50.0)
    return (float(np.percentile(values, pct)) if n else 0.0), pct


UPDATE_KERNELS = ("soft_qn_update", "sp_bfgs_update", "bfgs_update")


def per_layer(table, tracer, traced_walls, untraced_walls, records):
    """Per-layer metrics averaged over the traced experiment calls.

    ``records`` sums, over the traced calls, the TrialRecord counters
    (iterations, step_rejections, skipped_updates) and the CSV bytes written.  Times and counts are per experiment
    call; shares are of the summed traced wall time.
    """
    t = table
    n_calls = len(traced_walls)
    wall = float(sum(traced_walls))

    def per(v):
        return v / n_calls

    def us(name, q):
        d = t.durations(name)
        return float(np.percentile(d, q) * 1e6) if len(d) else 0.0

    run_ms = t.durations("solver.run") * 1e3
    tail_ms, tail_pct = tail(run_ms)
    applied = sum(t.calls(f"updates.{u}") for u in UPDATE_KERNELS)
    offered = applied + records["skipped_updates"]
    ls_calls = t.calls("solver.line_search_noisy")
    exact_calls = t.calls("noise.true_phi") + t.calls("noise.true_grad")
    noisy = sum(
        t.total_under(f"problems.{c}", ("noise.f", "noise.g")) for c in ("phi", "grad", "batch_grad")
    )

    m = {}
    for u in UPDATE_KERNELS:
        m[f"updates.{u}.calls"] = per(t.calls(f"updates.{u}"))
        m[f"updates.{u}.self_s"] = per(t.self_total(f"updates.{u}"))
        m[f"updates.{u}.us_p50"] = us(f"updates.{u}", 50)
    m["updates.soft_qn_update.us_p90"] = us("updates.soft_qn_update", 90)
    m["updates.is_positive_definite.self_s"] = per(t.self_total("updates.is_positive_definite"))
    m["updates.biased_direction.self_s"] = per(t.self_total("updates.biased_direction"))
    m["updates.applied_ratio"] = applied / offered if offered else 0.0
    m["updates.share"] = t.layer_self("updates") / wall

    m["problems.exact_channel_s"] = per(t.total("noise.true_phi") + t.total("noise.true_grad"))
    m["problems.exact_channel.calls"] = per(exact_calls)
    m["problems.noisy_channel_s"] = per(noisy)
    m["problems.load_libsvm_s"] = per(t.total("problems.load_libsvm"))
    m["problems.gen_random_qp_s"] = per(t.total("problems.gen_random_qp"))
    m["problems.share"] = t.layer_self("problems") / wall

    m["noise.f.calls"] = per(t.calls("noise.f"))
    m["noise.g.calls"] = per(t.calls("noise.g"))
    m["noise.self_s"] = per(t.self_total("noise.f") + t.self_total("noise.g"))
    m["noise.share"] = t.layer_self("noise") / wall

    m["solver.run.calls"] = per(t.calls("solver.run"))
    m["solver.run.self_s"] = per(t.self_total("solver.run"))
    m["solver.run.ms_p50"] = float(np.median(run_ms)) if len(run_ms) else 0.0
    m["solver.run.ms_tail"] = tail_ms
    m["solver.run.tail_pct"] = tail_pct
    m["solver.run.samples"] = float(len(run_ms))
    m["solver.compute_direction.self_s"] = per(t.self_total("solver.compute_direction"))
    m["solver.line_search_noisy.calls"] = per(ls_calls)
    m["solver.line_search_noisy.self_s"] = per(t.self_total("solver.line_search_noisy"))
    m["solver.ls.evals_per_call"] = tracer.ls_evals / ls_calls if ls_calls else 0.0
    m["solver.ls.accept_ratio"] = tracer.ls_accepted / ls_calls if ls_calls else 0.0
    m["solver.ls.backtracks_per_call"] = tracer.ls_backtracks / ls_calls if ls_calls else 0.0
    m["solver.iterations"] = per(records["iterations"])
    m["solver.step_rejections"] = per(records["step_rejections"])
    m["solver.share"] = t.layer_self("solver") / wall

    m["bench.emit_csv.s"] = per(t.total("bench.emit_csv"))
    m["bench.align_trace.s"] = per(t.total("bench.align_trace"))
    m["bench.csv_bytes"] = per(records["csv_bytes"])
    m["bench.share"] = t.layer_self("bench") / wall

    m["experiments.self_s"] = per(t.layer_self("experiments"))
    m["trace.wall_s"] = float(np.median(traced_walls))
    m["trace.overhead_ratio"] = float(np.median(traced_walls) / np.median(untraced_walls))
    return m
