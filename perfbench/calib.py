"""Fixed calibration work, timed next to every measured experiment call.

On a shared machine the speed of a CPU drifts by up to 1.7x in phases that
last tens of seconds, and the wall time of an identical experiment call drifts
with it.  ``calibrate()`` times a fixed piece of work that does not touch
softqn and is as sensitive to that drift as the workloads are: an interpreted
Python loop; numpy element-wise work and mat-vecs on a 49,990 x 22 array (the
logreg_big data shape); a Cholesky factorization and mat-mul at n = 200 (the
qp_n200 size); building, sorting and re-keying dicts of 25,000 Python
objects; and parsing 1,000 LIBSVM rows with ``str.split`` and ``float``, four
times each.  The object and parsing work stays within a few MB, below the
workloads' own peak memory, and carries the workloads' sensitivity to cache
contention from other tenants, which the first three alone under-correct.  ``at_nominal`` rescales
a measured time by the calibration time around it to the machine speed at
which ``calibrate()`` takes ``NOMINAL_S``: a change to softqn moves the
rescaled time in proportion to its wall time, while a change of machine speed
moves the measured time and the calibration together and cancels.
"""

from time import perf_counter

import numpy as np

import dataset

# Median calibrate() time on the machine the benchmark was tuned on (2 vCPUs of
# an Intel Xeon at 2.0 GHz, one OpenBLAS thread); only the unit depends on it.
NOMINAL_S = 0.24

_PY_LOOP = 400_000
_NP_REPS = 20
_LA_REPS = 50
_DICT_KEYS = 25_000
_DICT_REPS = 4
_PARSE_ROWS = 1_000
_PARSE_REPS = 4

_arrays = None


def _inputs():
    global _arrays
    if _arrays is None:
        rng = np.random.default_rng(0xCA1)
        x = rng.standard_normal((49_990, 22))
        w = rng.standard_normal(22) * 0.1
        a = rng.standard_normal((200, 200))
        keys = [f"k{i}" for i in range(_DICT_KEYS)]
        text = dataset.generate(0xCA1, rows=_PARSE_ROWS).decode("ascii")
        _arrays = x, w, a @ a.T + 200.0 * np.eye(200), keys, text
    return _arrays


def calibrate() -> float:
    """Seconds the fixed calibration work takes now."""
    x, w, spd, keys, text = _inputs()
    t0 = perf_counter()
    s = 0
    for i in range(_PY_LOOP):
        s += i * i % 7
    for _ in range(_NP_REPS):
        z = np.log1p(np.exp(-(x @ w)))
        x.T @ z
    for _ in range(_LA_REPS):
        np.linalg.cholesky(spd)
        spd @ spd
    for _ in range(_DICT_REPS):
        d = {k: i * 0.5 for i, k in enumerate(keys)}
        sorted(d.values(), reverse=True)
        {k: d[k] + 1.0 for k in keys[::2]}
    for _ in range(_PARSE_REPS):
        rows = []
        for line in text.splitlines():
            label, *pairs = line.split()
            rows.append((float(label), [(int(j), float(v)) for j, v in (p.split(":") for p in pairs)]))
    return perf_counter() - t0


def at_nominal(seconds: float, *cals: float) -> float:
    """``seconds`` at the speed where calibrate() takes NOMINAL_S, given the
    calibration times ``cals`` measured around it."""
    return seconds * NOMINAL_S * len(cals) / sum(cals)
