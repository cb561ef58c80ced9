"""Benchmark objectives: random QPs, a separable 2-D saddle landscape, a set of
classic smooth unconstrained test functions, and regularized logistic regression
on LIBSVM-format data.

Every problem carries callables for the exact value and gradient (and the exact
Hessian where a Newton baseline needs it), the standard start point, and the
optimal value when it is known analytically.
"""

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

__all__ = [
    "Problem",
    "UnknownProblemError",
    "DatasetFormatError",
    "LogisticDataset",
    "gen_random_qp",
    "toy_2d",
    "cutest_like",
    "PROBLEM_DIMS",
    "load_libsvm",
    "logistic_problem",
    "minibatch_gradient",
]


class UnknownProblemError(ValueError):
    """Requested test problem is not in the registry."""


class DatasetFormatError(ValueError):
    """A dataset file could not be parsed."""


@dataclass(frozen=True)
class Problem:
    """A smooth unconstrained objective with exact value/gradient callables.

    ``phi`` and ``grad`` must be pure functions of x (a ``NoisyOracle`` reuses
    the value of its last call at the same point).  ``phi_star`` and ``x_star``
    are set when the optimum is known analytically; ``batch_grad(x, batch, rng)``
    is present for data-fitting problems whose gradient can be subsampled.
    """

    name: str
    dim: int
    x0: np.ndarray
    phi: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    phi_star: Optional[float] = None
    x_star: Optional[np.ndarray] = None
    batch_grad: Optional[Callable] = None


# ---------------------------------------------------------------------------
# random convex quadratic programs


def gen_random_qp(n: int, seed: int) -> Problem:
    """Convex quadratic 0.5*x'Ax + b'x with controlled spectrum and minimizer at ones.

    A has orthonormal eigenvectors from the QR factor of a standard normal
    matrix; eigenvalues are 0.01, 1.0 and n-2 uniform draws from [0.01, 1], so
    the condition number is exactly 100.  b = -A*ones places the optimum at the
    all-ones vector, away from the all-zeros start.
    """
    if n < 2:
        raise ValueError("need n >= 2 to pin both spectrum endpoints")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.concatenate([[0.01, 1.0], rng.uniform(0.01, 1.0, n - 2)])
    a = (q * eigs) @ q.T
    a = 0.5 * (a + a.T)
    ones = np.ones(n)
    b = -a @ ones

    def phi(x):
        return 0.5 * float(x @ a @ x) + float(b @ x)

    def grad(x):
        return a @ x + b

    def hess(x):
        return a

    return Problem(
        name=f"qp{n}",
        dim=n,
        x0=np.zeros(n),
        phi=phi,
        grad=grad,
        hess=hess,
        phi_star=phi(ones),
        x_star=ones,
    )


# ---------------------------------------------------------------------------
# separable 2-D landscape with saddles between four minima


def _double_well(t):
    return (t - 0.7) ** 2 * ((t + 0.7) ** 2 + 0.1)


def _double_well_d1(t):
    return 2.0 * (t - 0.7) * ((t + 0.7) ** 2 + 0.1) + (t - 0.7) ** 2 * 2.0 * (t + 0.7)


def _double_well_d2(t):
    return (
        2.0 * ((t + 0.7) ** 2 + 0.1)
        + 8.0 * (t - 0.7) * (t + 0.7)
        + 2.0 * (t - 0.7) ** 2
    )


def toy_2d() -> Problem:
    """Sum of two shifted double wells, f(x, y) = w(x) + w(-y).

    Nine critical points: four minima (global value 0, e.g. at (0.7, -0.7)),
    four saddles and one local maximum.  The start (-0.05, 0.08) sits near the
    maximum, where the Hessian is indefinite.
    """

    def phi(v):
        return float(_double_well(v[0]) + _double_well(-v[1]))

    def grad(v):
        return np.array([_double_well_d1(v[0]), -_double_well_d1(-v[1])])

    def hess(v):
        return np.diag([_double_well_d2(v[0]), _double_well_d2(-v[1])])

    return Problem(
        name="toy2d",
        dim=2,
        x0=np.array([-0.05, 0.08]),
        phi=phi,
        grad=grad,
        hess=hess,
        phi_star=0.0,
        x_star=np.array([0.7, -0.7]),
    )


# ---------------------------------------------------------------------------
# classic smooth test set (analytic reconstructions at the standard dimensions)


def _arwhead(n):
    def phi(x):
        z = x[:-1] ** 2 + x[-1] ** 2
        return float(np.sum(z * z) - 4.0 * np.sum(x[:-1]) + 3.0 * (n - 1))

    def grad(x):
        z = x[:-1] ** 2 + x[-1] ** 2
        g = np.empty(n)
        g[:-1] = 4.0 * x[:-1] * z - 4.0
        g[-1] = 4.0 * x[-1] * np.sum(z)
        return g

    star = np.ones(n)
    star[-1] = 0.0
    return np.ones(n), phi, grad, 0.0, star


def _nondia(n):
    def phi(x):
        w = x[0] - x[:-1] ** 2
        return float((x[0] - 1.0) ** 2 + 100.0 * np.sum(w * w))

    def grad(x):
        w = x[0] - x[:-1] ** 2
        g = np.zeros(n)
        g[:-1] = -400.0 * x[:-1] * w
        g[0] += 2.0 * (x[0] - 1.0) + 200.0 * np.sum(w)
        return g

    return -np.ones(n), phi, grad, 0.0, np.ones(n)


def _tridia(n):
    w = np.arange(2.0, n + 1.0)

    def phi(x):
        r = 2.0 * x[1:] - x[:-1]
        return float((x[0] - 1.0) ** 2 + np.sum(w * r * r))

    def grad(x):
        r = 2.0 * x[1:] - x[:-1]
        g = np.zeros(n)
        g[1:] += 4.0 * w * r
        g[:-1] -= 2.0 * w * r
        g[0] += 2.0 * (x[0] - 1.0)
        return g

    return np.ones(n), phi, grad, 0.0, 0.5 ** np.arange(n)


def _woods(n):
    if n % 4:
        raise ValueError("dimension must be a multiple of 4")

    def parts(x):
        return x[0::4], x[1::4], x[2::4], x[3::4]

    def phi(x):
        a, b, c, d = parts(x)
        return float(
            np.sum(
                100.0 * (b - a * a) ** 2
                + (1.0 - a) ** 2
                + 90.0 * (d - c * c) ** 2
                + (1.0 - c) ** 2
                + 10.0 * (b + d - 2.0) ** 2
                + 0.1 * (b - d) ** 2
            )
        )

    def grad(x):
        a, b, c, d = parts(x)
        g = np.empty(n)
        g[0::4] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
        g[1::4] = 200.0 * (b - a * a) + 20.0 * (b + d - 2.0) + 0.2 * (b - d)
        g[2::4] = -360.0 * c * (d - c * c) - 2.0 * (1.0 - c)
        g[3::4] = 180.0 * (d - c * c) + 20.0 * (b + d - 2.0) - 0.2 * (b - d)
        return g

    x0 = np.tile([-3.0, -1.0, -3.0, -1.0], n // 4)
    return x0, phi, grad, 0.0, np.ones(n)


def _quartc(n):
    i = np.arange(1.0, n + 1.0)

    def phi(x):
        return float(np.sum((x - i) ** 4))

    def grad(x):
        return 4.0 * (x - i) ** 3

    return 2.0 * np.ones(n), phi, grad, 0.0, i.copy()


def _sparsqur(n):
    i = np.arange(1, n + 1)
    ia = i - 1
    ib = (2 * i - 1) % n
    ic = (3 * i - 1) % n
    coef = i / 10.0

    def q_of(x):
        return x[ia] ** 2 + x[ib] ** 2 + x[ic] ** 2

    def phi(x):
        q = q_of(x)
        return float(np.sum(coef * q * q))

    def grad(x):
        q = q_of(x)
        t = 4.0 * coef * q
        g = np.zeros(n)
        np.add.at(g, ia, t * x[ia])
        np.add.at(g, ib, t * x[ib])
        np.add.at(g, ic, t * x[ic])
        return g

    return 0.5 * np.ones(n), phi, grad, 0.0, np.zeros(n)


def _tquartic(n):
    def phi(x):
        w = x[0] ** 2 - x[1:] ** 2
        return float((x[0] - 1.0) ** 2 + np.sum(w * w))

    def grad(x):
        w = x[0] ** 2 - x[1:] ** 2
        g = np.empty(n)
        g[0] = 2.0 * (x[0] - 1.0) + 4.0 * x[0] * np.sum(w)
        g[1:] = -4.0 * x[1:] * w
        return g

    return 0.1 * np.ones(n), phi, grad, 0.0, np.ones(n)


def _morebv(n):
    h = 1.0 / (n + 1.0)
    t = np.arange(1.0, n + 1.0) * h
    hh = 0.5 * h * h

    def residual(x):
        xe = np.concatenate([[0.0], x, [0.0]])
        return 2.0 * x - xe[:-2] - xe[2:] + hh * (x + t + 1.0) ** 3

    def phi(x):
        r = residual(x)
        return float(np.sum(r * r))

    def grad(x):
        r = residual(x)
        g = 2.0 * r * (2.0 + 3.0 * hh * (x + t + 1.0) ** 2)
        g[:-1] -= 2.0 * r[1:]
        g[1:] -= 2.0 * r[:-1]
        return g

    return t * (t - 1.0), phi, grad, 0.0, None


def _nondquar(n):
    def phi(x):
        w = x[:-2] + x[1:-1] + x[-1]
        return float((x[0] - x[1]) ** 2 + (x[-2] + x[-1]) ** 2 + np.sum(w ** 4))

    def grad(x):
        w = x[:-2] + x[1:-1] + x[-1]
        cube = 4.0 * w ** 3
        g = np.zeros(n)
        g[:-2] += cube
        g[1:-1] += cube
        g[-1] += np.sum(cube)
        g[0] += 2.0 * (x[0] - x[1])
        g[1] -= 2.0 * (x[0] - x[1])
        g[-2] += 2.0 * (x[-2] + x[-1])
        g[-1] += 2.0 * (x[-2] + x[-1])
        return g

    x0 = np.ones(n)
    x0[1::2] = -1.0
    return x0, phi, grad, 0.0, np.zeros(n)


def _genrose(n):
    def phi(x):
        w = x[1:] - x[:-1] ** 2
        return float(1.0 + np.sum(100.0 * w * w + (x[1:] - 1.0) ** 2))

    def grad(x):
        w = x[1:] - x[:-1] ** 2
        g = np.zeros(n)
        g[1:] += 200.0 * w + 2.0 * (x[1:] - 1.0)
        g[:-1] -= 400.0 * x[:-1] * w
        return g

    x0 = np.arange(1.0, n + 1.0) / (n + 1.0)
    return x0, phi, grad, 1.0, np.ones(n)


_DIXMAAN_K = {"A": (0, 0, 0, 0), "E": (1, 0, 0, 1), "I": (2, 0, 0, 2), "M": (2, 1, 1, 2)}


def _dixmaan(variant, n):
    if n % 3:
        raise ValueError("dimension must be a multiple of 3")
    k1, k2, k3, k4 = _DIXMAAN_K[variant]
    ca, cb, cc, cd = 1.0, 0.0, 0.125, 0.125
    m = n // 3
    i = np.arange(1.0, n + 1.0) / n
    w1 = i ** k1
    w2 = i[: n - 1] ** k2
    w3 = i[: 2 * m] ** k3
    w4 = i[:m] ** k4

    def phi(x):
        val = 1.0 + ca * float(np.sum(w1 * x * x))
        if cb:
            p = x[1:] + x[1:] ** 2
            val += cb * float(np.sum(w2 * x[:-1] ** 2 * p * p))
        val += cc * float(np.sum(w3 * x[: 2 * m] ** 2 * x[m : 3 * m] ** 4))
        val += cd * float(np.sum(w4 * x[:m] * x[2 * m :]))
        return val

    def grad(x):
        g = 2.0 * ca * w1 * x
        if cb:
            p = x[1:] + x[1:] ** 2
            g[:-1] += cb * w2 * 2.0 * x[:-1] * p * p
            g[1:] += cb * w2 * x[:-1] ** 2 * 2.0 * p * (1.0 + 2.0 * x[1:])
        g[: 2 * m] += cc * w3 * 2.0 * x[: 2 * m] * x[m : 3 * m] ** 4
        g[m : 3 * m] += cc * w3 * 4.0 * x[: 2 * m] ** 2 * x[m : 3 * m] ** 3
        g[:m] += cd * w4 * x[2 * m :]
        g[2 * m :] += cd * w4 * x[:m]
        return g

    return 2.0 * np.ones(n), phi, grad, 1.0, np.zeros(n)


_BUILDERS = {
    "ARWHEAD": _arwhead,
    "NONDIA": _nondia,
    "TRIDIA": _tridia,
    "WOODS": _woods,
    "QUARTC": _quartc,
    "SPARSQUR": _sparsqur,
    "TQUARTIC": _tquartic,
    "MOREBV": _morebv,
    "NONDQUAR": _nondquar,
    "GENROSE": _genrose,
    "DIXMAANA": lambda n: _dixmaan("A", n),
    "DIXMAANE": lambda n: _dixmaan("E", n),
    "DIXMAANI": lambda n: _dixmaan("I", n),
    "DIXMAANM": lambda n: _dixmaan("M", n),
}

PROBLEM_DIMS = {
    "ARWHEAD": 100,
    "NONDIA": 100,
    "TRIDIA": 100,
    "WOODS": 100,
    "QUARTC": 100,
    "SPARSQUR": 100,
    "TQUARTIC": 100,
    "MOREBV": 100,
    "NONDQUAR": 100,
    "GENROSE": 100,
    "DIXMAANA": 90,
    "DIXMAANE": 90,
    "DIXMAANI": 90,
    "DIXMAANM": 90,
}


def cutest_like(name: str, n: Optional[int] = None) -> Problem:
    """Analytic test problem by name at its standard dimension (or a custom n)."""
    key = name.upper()
    if key not in _BUILDERS:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(sorted(_BUILDERS))}"
        )
    if n is None:
        n = PROBLEM_DIMS[key]
    x0, phi, grad, phi_star, x_star = _BUILDERS[key](n)
    return Problem(
        name=key, dim=n, x0=x0, phi=phi, grad=grad, phi_star=phi_star, x_star=x_star
    )


# ---------------------------------------------------------------------------
# logistic regression on LIBSVM-format data


@dataclass(frozen=True)
class LogisticDataset:
    """Dense feature matrix with +-1 labels."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def load_libsvm(path, n_features: Optional[int] = None, normalize: bool = True) -> LogisticDataset:
    """Parse a sparse LIBSVM file into a dense dataset.

    Feature indices are 1-based; missing indices are zero, and when an index
    repeats within a row the last value wins.  Labels are mapped to -1/+1 (any
    positive raw label becomes +1).  Blank lines and lines starting with ``#``
    are skipped.  With ``normalize`` each feature column is scaled to unit
    2-norm, skipping all-zero columns.  Malformed lines raise DatasetFormatError
    with the offending line number.

    The file is read in blocks of ``_BLOCK_LINES`` lines.  When every line of a
    block reads ``label idx:val idx:val ...`` in ASCII with single spaces, the
    block's labels, indices and values are converted with one numpy call each.
    Any other block (comments, blank lines, tabs, a malformed token) is scanned
    token by token, which gives the same triples or finds the offending line.
    The (row, index, value) triples of all blocks are gathered and the dense
    matrix is filled once; no per-row objects are kept.
    """
    parsed = []
    with open(path, "r", encoding="utf-8") as fh:
        lineno = 1
        while block := list(islice(fh, _BLOCK_LINES)):
            parsed.append(_parse_block(block) or _scan_block(block, path, lineno))
            lineno += len(block)
    if not any(raw.size for raw, *_ in parsed):
        raise DatasetFormatError(f"{path}: no data rows")
    raw, counts, idx, vals = map(np.concatenate, zip(*parsed))
    del parsed  # free the per-block arrays before the matrix is allocated
    if n_features is None:
        n_features = int(idx.max()) if idx.size else 0
    x = np.zeros((raw.size, n_features))
    over = idx > n_features
    if over.any():
        raise DatasetFormatError(
            f"{path}: index {idx[np.argmax(over)]} exceeds n_features={n_features}"
        )
    # position of each entry in the flattened matrix, row by row
    flat = np.repeat(np.arange(raw.size) * n_features - 1, counts)
    flat += idx.astype(np.intp, copy=False)
    if np.any(np.diff(flat) <= 0):
        # a row lists an index twice (or out of order): keep each cell's last value
        _, last_rev = np.unique(flat[::-1], return_index=True)
        keep = flat.size - 1 - last_rev
        flat, vals = flat[keep], vals[keep]
    x.ravel()[flat] = vals
    if normalize:
        norms = np.linalg.norm(x, axis=0)
        x /= np.where(norms > 0, norms, 1.0)  # dividing by 1 leaves all-zero columns as they are
    return LogisticDataset(features=x, labels=np.where(raw > 0, 1.0, -1.0))


_BLOCK_LINES = 4096
# Deleting these bytes from ASCII text leaves its spaces, colons and newlines, and
# any other whitespace, which a block that converts as a whole never has.
_NOT_SEPARATORS = bytes(c for c in range(256) if c not in b" :\n\t\v\f\r\x1c\x1d\x1e\x1f")


def _parse_block(block):
    """(raw labels, entries per row, indices, values) of a block whose every line
    reads ``label idx:val idx:val ...`` in ASCII with single spaces (a trailing
    one allowed); None for any other block, and when a token does not convert."""
    text = "".join(block)
    if not text.endswith("\n"):
        text += "\n"
    text = text.replace(" \n", "\n")
    if not text.isascii():
        return None
    seps = text.encode().translate(None, _NOT_SEPARATORS)
    # every line's separators read " :" once per entry and nothing else
    if seps.replace(b" :", b"") != b"\n" * len(block):
        return None
    ends = np.flatnonzero(np.frombuffer(seps, dtype=np.uint8) == ord("\n"))
    counts = np.diff(ends, prepend=-1) // 2
    pieces = text.replace(":", " ").split()
    # one piece fewer for each empty label (a blank line) or empty side of a colon
    if len(pieces) != len(block) + 2 * counts.sum():
        return None
    tokens = np.array(pieces, dtype=object)
    is_label = np.zeros(tokens.size, dtype=bool)
    is_label[np.arange(len(block)) + 2 * (np.cumsum(counts) - counts)] = True
    entries = tokens[~is_label].reshape(-1, 2)
    try:
        raw = tokens[is_label].astype(float)
        idx = entries[:, 0].astype(np.int64)
        vals = entries[:, 1].astype(float)
    except (ValueError, OverflowError):
        return None
    if idx.size and idx.min() < 1:
        return None
    return raw, counts, idx, vals


def _scan_block(block, path, first_lineno):
    """The same as _parse_block, one token at a time; raises DatasetFormatError
    naming the first malformed line."""
    raw, counts, idx, vals = [], [], [], []
    for offset, line in enumerate(block):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        lineno = first_lineno + offset
        try:
            raw.append(float(parts[0]))
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: bad label {parts[0]!r}") from exc
        for tok in parts[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                i = int(idx_s)
                v = float(val_s)
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: bad entry {tok!r}") from exc
            if i < 1:
                raise DatasetFormatError(f"{path}:{lineno}: index {i} must be >= 1")
            idx.append(i)
            vals.append(v)
        counts.append(len(parts) - 1)
    try:
        idx = np.array(idx, dtype=np.int64)
    except OverflowError:  # an index beyond int64 can only be reported, never filled
        idx = np.array(idx, dtype=object)
    return np.array(raw), np.array(counts, dtype=np.intp), idx, np.array(vals, dtype=float)


def _margins(features: np.ndarray, labels: np.ndarray, v: np.ndarray) -> np.ndarray:
    return labels * (v[0] + features @ v[1:])


def _logistic_grad(features: np.ndarray, labels: np.ndarray, rho: float, v: np.ndarray) -> np.ndarray:
    """Mean log-loss gradient over the given rows plus the regularizer gradient."""
    m = _margins(features, labels, v)
    coef = labels * expit(-m) / features.shape[0]
    g = np.empty(v.shape)
    g[0] = -np.sum(coef)
    g[1:] = -(coef @ features) + 2.0 * rho * v[1:]
    return g


def minibatch_gradient(
    data: LogisticDataset, rho: float, v: np.ndarray, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Mean log-loss gradient over a uniform without-replacement sample, plus the
    full regularizer gradient (the intercept is not regularized)."""
    n = data.n_samples
    if not 1 <= batch <= n:
        raise ValueError(f"batch size {batch} outside [1, {n}]")
    idx = rng.choice(n, size=batch, replace=False)
    return _logistic_grad(data.features[idx], data.labels[idx], rho, v)


def logistic_problem(data: LogisticDataset, rho: float) -> Problem:
    """L2-regularized logistic regression; variable layout is [intercept, weights].

    phi(v) = mean_i log(1 + exp(-y_i (v0 + z_i'w))) + rho*|w|^2.  The intercept
    is excluded from the regularizer.  ``batch_grad`` subsamples the data term.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    n = data.n_samples
    dim = data.n_features + 1

    def phi(v):
        m = _margins(data.features, data.labels, v)
        return float(np.mean(np.logaddexp(0.0, -m)) + rho * float(v[1:] @ v[1:]))

    def grad(v):
        return _logistic_grad(data.features, data.labels, rho, v)

    def hess(v):
        m = _margins(data.features, data.labels, v)
        p = expit(-m)
        d = p * (1.0 - p) / n
        a = np.concatenate([np.ones((n, 1)), data.features], axis=1)
        h = a.T @ (a * d[:, None])
        h[1:, 1:] += 2.0 * rho * np.eye(dim - 1)
        return 0.5 * (h + h.T)

    def batch_grad(v, batch, rng):
        return minibatch_gradient(data, rho, v, batch, rng)

    return Problem(
        name="logreg",
        dim=dim,
        x0=np.zeros(dim),
        phi=phi,
        grad=grad,
        hess=hess,
        batch_grad=batch_grad,
    )
