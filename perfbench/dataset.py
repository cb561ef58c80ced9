"""Seeded synthetic stand-in for the ijcnn1 set, written in LIBSVM format.

ijcnn1 (Prokhorov 2001, LIBSVM collection) has 49,990 training rows and 22
features: ten one-hot indicator features and twelve continuous ones, with
about 13 nonzeros per row.  The generator reproduces that shape and sparsity,
so parsing and the full-data exact channel cost what they would on the real
file.  Labels are +-1, drawn from a logistic model around a seeded linear
separator.  The same seed gives a byte-identical file.
"""

import os

import numpy as np

ROWS = 49_990
FEATURES = 22
ONE_HOT = 10


def generate(seed: int, rows: int = ROWS) -> bytes:
    """LIBSVM text of ``rows`` labelled rows with FEATURES features."""
    rng = np.random.default_rng([seed, 0x11C])
    hot = rng.integers(0, ONE_HOT, size=rows)
    dense = rng.standard_normal((rows, FEATURES - ONE_HOT)) * rng.uniform(0.2, 2.0, FEATURES - ONE_HOT)
    w_hot = rng.standard_normal(ONE_HOT)
    w_dense = rng.standard_normal(FEATURES - ONE_HOT)
    margin = w_hot[hot] + dense @ w_dense - 0.5
    labels = np.where(rng.random(rows) < 1.0 / (1.0 + np.exp(-2.0 * margin)), 1, -1)
    lines = []
    for i in range(rows):
        dense_part = " ".join(f"{ONE_HOT + 1 + j}:{v:.6f}" for j, v in enumerate(dense[i]))
        lines.append(f"{labels[i]:+d} {hot[i] + 1}:1 {dense_part}\n")
    return "".join(lines).encode("ascii")


def ensure(cache_dir: str, seed: int) -> str:
    """Path of the dataset for ``seed`` in ``cache_dir``, generating it once."""
    path = os.path.join(cache_dir, f"ijcnn1_like_{seed}.libsvm")
    if not os.path.exists(path):
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(generate(seed))
        os.replace(tmp, path)
    return path
