"""Benchmark objectives: random QPs, a separable 2-D saddle landscape, a set of
classic smooth unconstrained test functions, and regularized logistic regression
on LIBSVM-format data.

Every problem carries callables for the exact value and gradient (and the exact
Hessian where a Newton baseline needs it), the standard start point, and the
optimal value when it is known analytically.
"""

import io
import math
import re
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from ._rules import count, nonnegative

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
    is present for data-fitting problems whose gradient can be subsampled, and
    ``grad_norms(xs)``, the norms of ``grad`` at the k rows of a k x dim array,
    where one call for all of them costs less than k calls of ``grad``.  ``run``
    passes it all of a trial's iterates in one call, under any noise model, so
    its working memory must not grow with k beyond the k norms.
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
    grad_norms: Optional[Callable[[np.ndarray], np.ndarray]] = None


# ---------------------------------------------------------------------------
# random convex quadratic programs


def gen_random_qp(n: int, seed: int) -> Problem:
    """Convex quadratic 0.5*x'Ax + b'x with controlled spectrum and minimizer at ones.

    A has orthonormal eigenvectors from the QR factor of a standard normal
    matrix; eigenvalues are 0.01, 1.0 and n-2 uniform draws from [0.01, 1], so
    the condition number is exactly 100.  b = -A*ones places the optimum at the
    all-ones vector, away from the all-zeros start.
    """
    count("n", n, 2)  # both ends of the spectrum are pinned
    count("seed", seed)
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
    count("n", n, 2)

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

    # the constant prefixes of the gradient's products, folded once: each is
    # the left-to-right prefix of the unfolded product, so the bits are the same
    w1_2 = 2.0 * w1
    w3_2 = cc * w3 * 2.0
    w3_4 = cc * w3 * 4.0
    w4_cd = cd * w4

    def phi(x):
        val = 1.0 + float((w1 * x * x).sum())
        val += cc * float((w3 * x[: 2 * m] ** 2 * x[m : 3 * m] ** 4).sum())
        val += cd * float((w4 * x[:m] * x[2 * m :]).sum())
        return val

    def grad(x):
        g = w1_2 * x
        g[: 2 * m] += w3_2 * x[: 2 * m] * x[m : 3 * m] ** 4
        g[m : 3 * m] += w3_4 * x[: 2 * m] ** 2 * x[m : 3 * m] ** 3
        g[:m] += w4_cd * x[2 * m :]
        g[2 * m :] += w4_cd * x[:m]
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
    """Analytic test problem by name at its standard dimension (or a custom n >= 1)."""
    key = name.upper()
    if key not in _PROBLEMS:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(sorted(_PROBLEMS))}"
        )
    build, dim = _PROBLEMS[key]
    n = dim if n is None else n
    count("n", n, 1)
    x0, phi, grad, phi_star, x_star = build(n)
    return Problem(
        name=key, dim=n, x0=x0, phi=phi, grad=grad, phi_star=phi_star, x_star=x_star
    )


# ---------------------------------------------------------------------------
# logistic regression on LIBSVM-format data


@dataclass(frozen=True)
class LogisticDataset:
    """Dense feature matrix with +-1 labels.

    ``load_libsvm`` returns the features row-major (C order): a minibatch gather
    then copies contiguous rows, and the batched gradient norms read contiguous
    row blocks.  Any layout gives the same values up to rounding."""

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

    The file is read in blocks of whole lines, ``text.readlines(_BLOCK_CHARS)``,
    so beside the matrix and the labels the load holds one block, at most
    ``_BLOCK_CHARS`` characters plus one line, and that block's numbers,
    whatever the width of a row.  ``_PLAIN_LINES`` is the rule for a block whose
    numbers are converted as a whole, by one ``np.fromstring`` call: every line
    reads ``label idx:val idx:val ...`` with single spaces, indices of ASCII
    digits and other tokens of ``0-9 . e E + -``, and every number is finite.
    Any other block (comments, blank lines, tabs, nan, a malformed token) is
    scanned token by token, which gives the same numbers or finds the offending
    line.  One binary pass counts the line breaks first (a pipe, which cannot be
    rewound, is read into memory for it).  Each block is scattered straight into
    its rows of a zeroed matrix, which is widened, by one copy of the rows read
    so far, only when a block's largest index exceeds its width, and then has a
    row for each row read, in the block or on a line left: an ordinary file is
    allocated once, by its first block, and blank or ``#`` lines already read
    cost no rows.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DatasetFormatError(f"{path}: cannot open: {exc.strerror}") from exc
    with fh:
        data = fh if fh.seekable() else io.BytesIO(fh.read())
        bound = _line_bound(data)
        data.seek(0)
        # an undecodable byte becomes a lone surrogate, which _scan_block reports with its line
        text = io.TextIOWrapper(data, encoding="utf-8", errors="surrogateescape")
        labels = np.empty(bound)
        x = np.zeros((bound, 0))  # None once the matrix cannot be allocated
        n = top = 0  # rows read, largest index seen
        lineno = 1
        while block := text.readlines(_BLOCK_CHARS):
            raw, counts, idx, vals = _parse_block(block) or _scan_block(block, path, lineno)
            lineno += len(block)
            labels[n : n + raw.size] = np.where(raw > 0, 1.0, -1.0)
            if idx.size:
                top = max(top, idx.max())
            # once no matrix can be returned, the rest is only checked for format errors
            if x is not None and top > x.shape[1]:
                # rows that can still be filled: those read, this block's, one per line left
                x = _widen(x, n, n + raw.size + bound + 1 - lineno, top)
            if x is not None:
                _scatter(x[n : n + raw.size], counts, idx, vals)
            n += raw.size
            del raw, counts, idx, vals  # before the next block is read
    # the errors come in the order: a malformed line, no rows, the matrix
    if not n:
        raise DatasetFormatError(f"{path}: no data rows")
    if x is None:
        raise DatasetFormatError(
            f"{path}: index {top} needs a {n} x {top} feature matrix, too large to allocate"
        )
    x, labels = x[:n], labels[:n]
    if normalize:
        norms = _column_norms(x)
        x /= np.where(norms > 0, norms, 1.0)  # dividing by 1 leaves all-zero columns as they are
    return LogisticDataset(features=x, labels=labels)


_BLOCK_CHARS = 1 << 17  # about 830 lines of ijcnn1's 22 features
# Every line of a block that converts as a whole: a label, then " idx:val" per
# entry with an index of ASCII digits, then at most one space and a newline.  The
# possessive quantifiers keep no backtracking state per entry, which a block of
# one very long line would otherwise hold in memory.
_PLAIN_LINES = re.compile(r"(?:[-+.0-9eE]++(?: [0-9]++:[-+.0-9eE]++)*+ ?\n)*+")


def _parse_block(block):
    """(raw labels, entries per row, indices, values) of a block whose every line
    matches ``_PLAIN_LINES``, every index below 2**53 and every number finite;
    None for any other block, and when a token does not convert."""
    text = "".join(block)
    if not text.endswith("\n"):
        text += "\n"
    if not _PLAIN_LINES.fullmatch(text):
        return None
    counts = np.array([line.count(":") for line in block], dtype=np.intp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            numbers = np.fromstring(text.replace(":", " "), sep=" ")
        except (ValueError, Warning):  # a token it cannot read to its end
            return None
    # a number that overflows to inf (1e999) is left to the scan, which names its line
    if numbers.size != len(block) + 2 * counts.sum() or not np.isfinite(numbers).all():
        return None
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


def _line_bound(data):
    """An upper bound on the lines of the binary stream ``data``, read to its end:
    its ``\\n`` and lone ``\\r`` plus one.  A ``\\r\\n`` counts once, or twice
    when a chunk boundary splits it."""
    # in 64 KiB chunks numpy counts the newlines of a 7.9 MB file in 1.8 ms and
    # bytes.count in 5.4 ms (2-vCPU Xeon);
    # only a chunk holding a \r pays for the two counts that handle it
    lines = 1
    while chunk := data.read(1 << 16):
        lines += int(np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n")))
        if b"\r" in chunk:
            lines += chunk.count(b"\r") - chunk.count(b"\r\n")
    return lines


def _widen(x, rows, height, width):
    """A zeroed ``height`` x ``width`` matrix holding the first ``rows`` rows of x;
    None when it cannot be allocated."""
    try:
        wide = np.zeros((height, width))
    except (MemoryError, ValueError):
        return None
    wide[:rows, : x.shape[1]] = x[:rows]
    return wide


def _scatter(rows, counts, idx, vals):
    """Write a parsed block's entries into ``rows``, its zeroed C-order rows of
    the matrix; when an index repeats within a row the last value wins."""
    # position of each entry in the flattened rows, row by row
    flat = np.repeat(np.arange(counts.size) * rows.shape[1] - 1, counts)
    flat += idx.astype(np.intp, copy=False)
    if np.any(np.diff(flat) <= 0):
        # a row lists an index twice (or out of order): keep each cell's last value
        _, last_rev = np.unique(flat[::-1], return_index=True)
        keep = flat.size - 1 - last_rev
        flat, vals = flat[keep], vals[keep]
    rows.ravel()[flat] = vals


def _column_norms(x):
    """``np.linalg.norm(x, axis=0)`` of the C-order matrix x bit for bit, without
    its n x d temporary of squares.

    For two or more columns that norm adds the squares row after row, and so does
    einsum's reduction over the rows.  A single column is summed pairwise, so it
    goes through the norm itself; its temporary is one column."""
    if x.shape[1] < 2:
        return np.linalg.norm(x, axis=0)
    return np.sqrt(np.einsum("ij,ij->j", x, x))


def _margins(features: np.ndarray, labels: np.ndarray, v: np.ndarray) -> np.ndarray:
    return labels * (v[0] + features @ v[1:])


def _neg_expit(m: np.ndarray) -> np.ndarray:
    """expit(-m) = 1/(1 + exp(m)), written into the margins' buffer m and returned.

    This is scipy's own expit formula, evaluated with numpy's exp, so no run loads
    scipy.special.  A margin above about 709 overflows exp to inf and gives 0,
    expit's limit; the overflow is not warned."""
    # every pass writes into the margins' buffer: at 50,000 rows the one-expression
    # form, with a fresh temporary per pass, took 3.5 times as long
    with np.errstate(over="ignore"):
        np.exp(m, out=m)
    m += 1.0
    np.divide(1.0, m, out=m)
    return m


def _logistic_grad(features: np.ndarray, labels: np.ndarray, rho: float, v: np.ndarray) -> np.ndarray:
    """Mean log-loss gradient over the given rows plus the regularizer gradient."""
    coef = _neg_expit(_margins(features, labels, v))
    coef *= labels
    coef /= features.shape[0]
    g = np.empty(v.shape)
    g[0] = -np.sum(coef)
    g[1:] = -(coef @ features) + 2.0 * rho * v[1:]
    return g


# Tiles of _logistic_grad_norms: feature rows per block, and points per product.
# A tile's margins are 512 x 64 doubles (256 KB), which stay in cache between
# the two products, and the working memory stays that size for any number of
# points.  The 101 points of one 49,990 x 22 trial took best 27.1 ms (median
# 32.4) at 64 points per product, 30.0 (36.1) at 32 and 32.1 (40.4) with all
# 101 in one product, over 40 interleaved runs; 157-167 ms as 100 separate
# gradients.  The row block was chosen over 100 points in calls of 64 and
# 36: best 30.5, 29.8, 33.5, 33.1, 35.4 and 38.2 ms at 256, 512, 768, 1024,
# 2048 and 4096 rows, with medians of 36-43, 35-42, 45, 39-47, 39-45 and 44-47
# ms over sessions of 15 to 100 interleaved runs (one BLAS thread, 2-vCPU Xeon).
_ROW_BLOCK = 512
_POINT_BLOCK = 64


def _logistic_grad_norms(features: np.ndarray, labels: np.ndarray, rho: float, vs: np.ndarray) -> np.ndarray:
    """The norms of ``_logistic_grad(features, labels, rho, v)`` for the rows v of vs.

    The rows of the features are taken ``_ROW_BLOCK`` at a time.  Each block is
    copied with its labels folded in, Z = [y | y*X], so a row's margin for every v
    is one product Z @ vs', intercept included, and the data gradient is
    -E' @ Z / n, where E holds expit(-margin); the matrix is read once for all of
    vs, which meets each block ``_POINT_BLOCK`` rows at a time.  Folding
    multiplies by +-1, which is exact.  The sums run in another order than in
    ``_logistic_grad``, so the norms agree with those of its gradients to
    rounding, not bit for bit."""
    n, d = features.shape
    z = np.empty((min(n, _ROW_BLOCK), d + 1))
    g = np.zeros(vs.shape)
    for start in range(0, n, _ROW_BLOCK):
        y = labels[start : start + _ROW_BLOCK, None]
        zb = z[: y.shape[0]]
        zb[:, :1] = y
        np.multiply(features[start : start + _ROW_BLOCK], y, out=zb[:, 1:])
        for j in range(0, len(vs), _POINT_BLOCK):
            g[j : j + _POINT_BLOCK] += _neg_expit(zb @ vs[j : j + _POINT_BLOCK].T).T @ zb
    g /= -n
    g[:, 1:] += 2.0 * rho * vs[:, 1:]
    return np.linalg.norm(g, axis=1)


def minibatch_gradient(
    data: LogisticDataset, rho: float, v: np.ndarray, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Mean log-loss gradient over a uniform without-replacement sample, plus the
    full regularizer gradient (the intercept is not regularized).  A batch that is
    not an integer from 1 to the number of rows raises ValueError."""
    count("batch", batch, 1)
    idx = rng.choice(data.n_samples, size=batch, replace=False)  # ValueError above the rows
    return _logistic_grad(data.features[idx], data.labels[idx], rho, v)


def logistic_problem(data: LogisticDataset, rho: float) -> Problem:
    """L2-regularized logistic regression; variable layout is [intercept, weights].

    phi(v) = mean_i log(1 + exp(-y_i (v0 + z_i'w))) + rho*|w|^2.  The intercept
    is excluded from the regularizer.  ``batch_grad`` subsamples the data term;
    ``grad_norms`` reads the feature matrix once for a whole array of points.
    A negative or non-finite ``rho`` raises ValueError.
    """
    nonnegative("rho", rho)
    dim = data.n_features + 1

    def phi(v):
        m = _margins(data.features, data.labels, v)
        return float(np.mean(np.logaddexp(0.0, -m)) + rho * float(v[1:] @ v[1:]))

    def grad(v):
        return _logistic_grad(data.features, data.labels, rho, v)

    def batch_grad(v, batch, rng):
        return minibatch_gradient(data, rho, v, batch, rng)

    def grad_norms(vs):
        return _logistic_grad_norms(data.features, data.labels, rho, vs)

    return Problem(
        name="logreg",
        dim=dim,
        x0=np.zeros(dim),
        phi=phi,
        grad=grad,
        batch_grad=batch_grad,
        grad_norms=grad_norms,
    )
