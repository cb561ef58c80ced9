"""The benchmark's workloads: which experiment each one runs, and with what.

Each workload calls ``softqn.experiments.run_<experiment>(params, out_dir)``,
the call the ``softqn-bench`` CLI makes after parsing its arguments.  The
parameters override the experiment's preset only where a run would otherwise
be too long to repeat several times within one benchmark run.

Why these three (the layer each one stresses):

- ``qp_n200``: the paper's QP protocol (Gaussian gradient noise, diminishing
  step) at n = 200 with the three quasi-Newton methods, the only workload
  where the update kernels (and their O(n^3) positive-definiteness guard) do
  most of the work.
- ``cutest_dixmaana``: DIXMAANA at n = 90 under relative noise with the
  noisy Armijo search and a function-evaluation budget; the only workload
  that runs the line search, ``align_trace`` and the quartile bands.
- ``logreg_big``: logistic regression with 1000-row minibatches on a
  49,990 x 22 LIBSVM file (the ijcnn1 shape, see ``dataset.py``).  The
  full-data exact metric channel and the LIBSVM parse dominate; the updates
  hardly register.

``toy`` (0.06 s) and ``logreg`` on the bundled 200-row fixture (1.5 s) are
left out: they are too short for any layer to show.  The ``qp`` preset itself
(n = 50, all five methods, the only path through the Newton solve) is left
out too: on a shared two-CPU machine its wall time drifted most between runs,
and the time it would take is better spent on longer runs of the other three.
"""

import math
from dataclasses import dataclass

# Seed of the reference call that every run makes first (the presets' seed).
# reference.json holds the per-method median final metrics at this seed.
REF_SEED = 1234

# Largest accepted deviation from the reference, in log10 units of the final
# metric.  Fixed- and diminishing-step runs are smooth in rounding, so a
# reordered BLAS call moves them by far less than STRICT_TOL while a broken
# update coefficient moves them by more.  Under the noisy line search a
# rounding change can flip an accept/reject decision and move the trajectory,
# so that workload gets the looser LINE_SEARCH_TOL.
STRICT_TOL = 1e-5
LINE_SEARCH_TOL = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    params: dict
    methods: tuple
    rows_per_trial: int  # long-CSV rows one (method, trial) pair writes
    result_tol: float = STRICT_TOL
    log_final: bool = False  # summary holds raw values; compare their log10
    needs_dataset: bool = False

    def params_for(self, seed: int, dataset: str = "") -> dict:
        p = {**self.params, "seed": seed, "methods": list(self.methods)}
        if self.needs_dataset:
            p["dataset"] = dataset
        return p

    @property
    def trials_per_call(self) -> int:
        return len(self.methods) * int(self.params["trials"])

    @property
    def long_rows(self) -> int:
        return self.trials_per_call * self.rows_per_trial

    def final_log10(self, value: float) -> float:
        if self.log_final:
            return math.log10(max(value, 1e-16))
        return value


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="qp_n200",
            experiment="qp",
            params={"trials": 1, "n": 200, "iterations": 1000},
            methods=("softqn", "spbfgs", "bfgs"),
            rows_per_trial=1001,
        ),
        Workload(
            name="cutest_dixmaana",
            experiment="cutest",
            params={"trials": 1, "problem": "DIXMAANA", "budget": 2000},
            methods=("softqn", "spbfgs"),
            rows_per_trial=2000,
            result_tol=LINE_SEARCH_TOL,
            log_final=True,
        ),
        Workload(
            name="logreg_big",
            experiment="logreg",
            params={"trials": 1, "iterations": 100, "batch": 0},
            methods=("softqn", "spbfgs", "bfgs", "sgd"),
            rows_per_trial=101,
            needs_dataset=True,
        ),
    ]
}
