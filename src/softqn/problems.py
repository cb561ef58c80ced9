"""Benchmark objectives: random QPs, a separable 2-D saddle landscape, a set of
classic smooth unconstrained test functions, and regularized logistic regression
on LIBSVM-format data.

Every problem carries callables for the exact value and gradient (and the exact
Hessian where a Newton baseline needs it), the standard start point, and the
optimal value when it is known analytically.
"""

import math
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Optional

import numpy as np

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
    """A dataset file could not be opened or parsed."""


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


# (k1, k3, k4) of the A, E, I, M variants; their beta term is zero, so k2 is unused
_DIXMAAN_K = {"A": (0, 0, 0), "E": (1, 0, 1), "I": (2, 0, 2), "M": (2, 1, 2)}


def _dixmaan(variant, n):
    if n % 3:
        raise ValueError("dimension must be a multiple of 3")
    k1, k3, k4 = _DIXMAAN_K[variant]
    cc, cd = 0.125, 0.125
    m = n // 3
    i = np.arange(1.0, n + 1.0) / n
    w1 = i ** k1
    w3 = i[: 2 * m] ** k3
    w4 = i[:m] ** k4

    def phi(x):
        val = 1.0 + float(np.sum(w1 * x * x))
        val += cc * float(np.sum(w3 * x[: 2 * m] ** 2 * x[m : 3 * m] ** 4))
        val += cd * float(np.sum(w4 * x[:m] * x[2 * m :]))
        return val

    def grad(x):
        g = 2.0 * w1 * x
        g[: 2 * m] += cc * w3 * 2.0 * x[: 2 * m] * x[m : 3 * m] ** 4
        g[m : 3 * m] += cc * w3 * 4.0 * x[: 2 * m] ** 2 * x[m : 3 * m] ** 3
        g[:m] += cd * w4 * x[2 * m :]
        g[2 * m :] += cd * w4 * x[:m]
        return g

    return 2.0 * np.ones(n), phi, grad, 1.0, np.zeros(n)


# name -> (builder(n) -> (x0, phi, grad, phi_star, x_star), standard dimension)
_PROBLEMS = {
    "ARWHEAD": (_arwhead, 100),
    "NONDIA": (_nondia, 100),
    "TRIDIA": (_tridia, 100),
    "WOODS": (_woods, 100),
    "QUARTC": (_quartc, 100),
    "SPARSQUR": (_sparsqur, 100),
    "TQUARTIC": (_tquartic, 100),
    "MOREBV": (_morebv, 100),
    "NONDQUAR": (_nondquar, 100),
    "GENROSE": (_genrose, 100),
    **{f"DIXMAAN{v}": (partial(_dixmaan, v), 90) for v in "AEIM"},
}

PROBLEM_DIMS = {name: dim for name, (_, dim) in _PROBLEMS.items()}


def cutest_like(name: str, n: Optional[int] = None) -> Problem:
    """Analytic test problem by name at its standard dimension (or a custom n)."""
    key = name.upper()
    if key not in _PROBLEMS:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(sorted(_PROBLEMS))}"
        )
    build, dim = _PROBLEMS[key]
    n = dim if n is None else n
    x0, phi, grad, phi_star, x_star = build(n)
    return Problem(
        name=key, dim=n, x0=x0, phi=phi, grad=grad, phi_star=phi_star, x_star=x_star
    )


# ---------------------------------------------------------------------------
# logistic regression on LIBSVM-format data


@dataclass(frozen=True)
class LogisticDataset:
    """Dense feature matrix with +-1 labels.

    ``load_libsvm`` returns the features column-major (Fortran order): the full-data
    margins and gradient are then matrix-vector products down contiguous columns.
    Any layout gives the same values up to rounding."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def load_libsvm(path, normalize: bool = True) -> LogisticDataset:
    """Parse a sparse LIBSVM file into a dense dataset.

    Feature indices are 1-based; missing indices are zero, and when an index
    repeats within a row the last value wins.  Labels are mapped to -1/+1 (any
    positive raw label becomes +1).  Blank lines and lines starting with ``#``
    are skipped.  With ``normalize`` each feature column is scaled to unit 2-norm,
    skipping all-zero columns.  An unopenable file, malformed lines, non-finite
    numbers, bytes that are not UTF-8 and an index whose matrix cannot be
    allocated raise DatasetFormatError naming the file, and the line if any.

    The file is read in blocks of ``_BLOCK_LINES`` lines.  When every line of a
    block reads ``label idx:val idx:val ...`` in ASCII decimal with single
    spaces, digit-only indices and finite numbers, the block's numbers are
    converted with one ``np.fromstring`` call; any other block (comments, blank
    lines, tabs, nan, a malformed token) is scanned token by token, which gives
    the same numbers or finds the offending line.  Each block is scattered into a dense row
    block at once, and the row blocks are copied into the matrix at the end, so
    nothing sized to the whole file is kept beside the matrix.  The matrix is
    column-major (Fortran order); its values do not depend on the layout.
    """
    row_blocks, label_blocks = [], []
    top = 0  # largest index seen
    too_big = False  # the matrix cannot be allocated
    # an undecodable byte becomes a lone surrogate, which _scan_block reports with its line
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DatasetFormatError(f"{path}: cannot open: {exc.strerror}") from exc
    with fh:
        lineno = 1
        while block := list(islice(fh, _BLOCK_LINES)):
            raw, counts, idx, vals = _parse_block(block) or _scan_block(block, path, lineno)
            lineno += len(block)
            label_blocks.append(np.where(raw > 0, 1.0, -1.0))
            if idx.size:
                top = max(top, idx.max())
            # once no matrix can be returned, the rest is only checked for format errors
            if not too_big:
                try:
                    row_blocks.append(_dense_rows(counts, idx, vals))
                except (MemoryError, ValueError):
                    too_big = True
                    row_blocks.clear()
            del raw, counts, idx, vals  # before the next block is read
    # the errors come in the order: a malformed line, no rows, the matrix
    if not any(labels.size for labels in label_blocks):
        raise DatasetFormatError(f"{path}: no data rows")
    labels = np.concatenate(label_blocks)
    try:
        x = np.zeros((labels.size, top), order="F")
    except (MemoryError, ValueError):
        too_big = True
    if too_big:
        raise DatasetFormatError(
            f"{path}: index {top} needs a {labels.size} x {top} feature matrix, too large to allocate"
        )
    start = 0
    for i, rows in enumerate(row_blocks):
        x[start : start + rows.shape[0], : rows.shape[1]] = rows
        start += rows.shape[0]
        row_blocks[i] = None  # each row block is freed once copied
    if normalize:
        norms = _column_norms(x)
        x /= np.where(norms > 0, norms, 1.0)  # dividing by 1 leaves all-zero columns as they are
    return LogisticDataset(features=x, labels=labels)


_BLOCK_LINES = 4096
# Deleting these bytes from ASCII text leaves its spaces, colons and newlines, and
# any other whitespace, which a block that converts as a whole never has.
_NOT_SEPARATORS = bytes(c for c in range(256) if c not in b" :\n\t\v\f\r\x1c\x1d\x1e\x1f")


def _parse_block(block):
    """(raw labels, entries per row, indices, values) of a block whose every line
    reads ``label idx:val idx:val ...`` in ASCII with single spaces (a trailing
    one allowed), every token made of ``0-9 . e E + -``, every index of digits
    below 2**53 and every number finite; None for any other block, and when a
    token does not convert."""
    text = "".join(block)
    if not text.endswith("\n"):
        text += "\n"
    text = text.replace(" \n", "\n")
    if not text.isascii():
        return None
    data = text.encode()
    del text
    seps = data.translate(None, _NOT_SEPARATORS)
    # every line's separators read " :" once per entry and nothing else
    if seps.replace(b" :", b"") != b"\n" * len(block):
        return None
    n_entries = (len(seps) - len(block)) // 2
    # every line starts with a label: np.fromstring reads a blank line as -1.0
    if data[:1] in b" \n" or b"\n\n" in data or b"\n " in data:
        return None
    # Without its digits an index is empty, so each space meets its colon, and the
    # other tokens keep only ".eE+-": no nan, inf, hex, underscore or signed index.
    rest = data.translate(None, b"0123456789")
    if rest.count(b" :") != n_entries or rest.translate(None, b".eE+- :\n"):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            numbers = np.fromstring(data.replace(b":", b" "), sep=" ")
        except (ValueError, Warning):  # a token it cannot read to its end
            return None
    # each token gives one number or stops the conversion, so an empty side of a
    # colon shows as a missing number
    # a number that overflows to inf (1e999) is left to the scan, which names its line
    if numbers.size != len(block) + 2 * n_entries or not np.isfinite(numbers).all():
        return None
    ends = np.flatnonzero(np.frombuffer(seps, dtype=np.uint8) == ord("\n"))
    counts = np.diff(ends, prepend=-1) // 2
    is_label = np.zeros(numbers.size, dtype=bool)
    is_label[np.arange(len(block)) + 2 * (np.cumsum(counts) - counts)] = True
    entries = numbers[~is_label].reshape(-1, 2)
    idx = entries[:, 0]
    # an index below 2**53 is read exactly; a larger one is left to the token scan
    if idx.size and not (idx.min() >= 1 and idx.max() < 2.0**53):
        return None
    return numbers[is_label], counts, idx.astype(np.int64), entries[:, 1]


def _scan_block(block, path, first_lineno):
    """The same as _parse_block, one token at a time; raises DatasetFormatError
    naming the first malformed line."""
    raw, counts, idx, vals = [], [], [], []
    for offset, line in enumerate(block):
        lineno = first_lineno + offset
        if not line.isascii():
            try:
                line.encode()
            except UnicodeEncodeError as exc:  # a surrogate stands for an undecodable byte
                byte = ord(line[exc.start]) - 0xDC00
                raise DatasetFormatError(f"{path}:{lineno}: byte 0x{byte:02x} is not UTF-8") from None
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            raw.append(_finite(parts[0]))
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: bad label {parts[0]!r}") from exc
        for tok in parts[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                i = int(idx_s)
                v = _finite(val_s)
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


def _finite(text):
    """float(text), raising ValueError when it is not finite (nan, inf, 1e999)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {text!r}")
    return value


def _dense_rows(counts, idx, vals):
    """Dense rows of a parsed block, as wide as its largest index; when an index
    repeats within a row the last value wins."""
    width = int(idx.max()) if idx.size else 0
    rows = np.zeros((counts.size, width))
    # position of each entry in the flattened row block, row by row
    flat = np.repeat(np.arange(counts.size) * width - 1, counts)
    flat += idx.astype(np.intp, copy=False)
    if np.any(np.diff(flat) <= 0):
        # a row lists an index twice (or out of order): keep each cell's last value
        _, last_rev = np.unique(flat[::-1], return_index=True)
        keep = flat.size - 1 - last_rev
        flat, vals = flat[keep], vals[keep]
    rows.ravel()[flat] = vals
    return rows


def _column_norms(x):
    """The C-order ``np.linalg.norm(x, axis=0)`` bit for bit, in either layout,
    without its n x d temporary of squares.

    For two or more columns of a C-order matrix that norm adds the squares row after
    row, so carrying the running sums into the first row of each block of rows keeps
    its order.  Each block is squared into a C-order temporary, so a column-major x
    is summed in the same order.  A single column is summed pairwise, so it goes
    through the norm itself; its temporary is one column."""
    if x.shape[1] < 2:
        return np.linalg.norm(x, axis=0)
    sumsq = np.zeros(x.shape[1])
    for start in range(0, x.shape[0], _BLOCK_LINES):
        sq = np.square(x[start : start + _BLOCK_LINES], order="C")
        sq[0] += sumsq
        sumsq = np.add.reduce(sq, axis=0)
    return np.sqrt(sumsq)


def _margins(features: np.ndarray, labels: np.ndarray, v: np.ndarray) -> np.ndarray:
    return labels * (v[0] + features @ v[1:])


def _logistic_grad(features: np.ndarray, labels: np.ndarray, rho: float, v: np.ndarray) -> np.ndarray:
    """Mean log-loss gradient over the given rows plus the regularizer gradient.

    The loss derivative expit(-m) is scipy's own formula 1/(1 + exp(m)), evaluated
    with numpy's exp, so no run loads scipy.special.  A margin above about 709
    overflows exp to inf and gives 0, expit's limit; the overflow is not warned."""
    m = _margins(features, labels, v)
    # every pass writes into the margins' buffer: at 50,000 rows the one-expression
    # form, with a fresh temporary per pass, took 3.5 times as long
    with np.errstate(over="ignore"):
        coef = np.exp(m, out=m)
    coef += 1.0
    np.divide(1.0, coef, out=coef)
    coef *= labels
    coef /= features.shape[0]
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
    dim = data.n_features + 1

    def phi(v):
        m = _margins(data.features, data.labels, v)
        return float(np.mean(np.logaddexp(0.0, -m)) + rho * float(v[1:] @ v[1:]))

    def grad(v):
        return _logistic_grad(data.features, data.labels, rho, v)

    def batch_grad(v, batch, rng):
        return minibatch_gradient(data, rho, v, batch, rng)

    return Problem(
        name="logreg",
        dim=dim,
        x0=np.zeros(dim),
        phi=phi,
        grad=grad,
        batch_grad=batch_grad,
    )
