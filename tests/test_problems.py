"""Tests for problem generators, the LIBSVM reader, and logistic objectives."""

import io
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from softqn import problems
from softqn.experiments import fixture_dataset_path
from softqn.problems import (
    PROBLEM_DIMS,
    DatasetFormatError,
    UnknownProblemError,
    cutest_like,
    gen_random_qp,
    load_libsvm,
    logistic_problem,
    minibatch_gradient,
    toy_2d,
)


def _fd_grad(phi, x):
    g = np.empty_like(x)
    for i in range(x.size):
        h = 1e-6 * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (phi(xp) - phi(xm)) / (2 * h)
    return g


def _assert_grad_consistent(problem, points):
    for x in points:
        analytic = problem.grad(x)
        fd = _fd_grad(problem.phi, x)
        scale = max(1.0, float(np.linalg.norm(analytic)))
        assert np.linalg.norm(analytic - fd) <= 1e-5 * scale, problem.name


# ---------------------------------------------------------------------------
# random QPs


def test_qp_gradient_vanishes_at_ones():
    for seed in (0, 1, 17):
        p = gen_random_qp(12, seed)
        npt.assert_allclose(p.grad(np.ones(12)), np.zeros(12), atol=1e-12)


def test_qp_spectrum_pinned():
    for seed in range(30):
        p = gen_random_qp(8, seed)
        eigs = np.linalg.eigvalsh(p.hess(p.x0))
        assert eigs[0] == pytest.approx(0.01, abs=1e-10)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(eigs >= 0.01 - 1e-10) and np.all(eigs <= 1.0 + 1e-10)
        # condition number is the ratio of the pinned extremes
        assert eigs[-1] / eigs[0] == pytest.approx(100.0, rel=1e-8)


def test_qp_start_suboptimality_positive():
    p = gen_random_qp(20, 3)
    a = p.hess(p.x0)
    gap = p.phi(np.zeros(20)) - p.phi(np.ones(20))
    assert gap == pytest.approx(0.5 * float(np.ones(20) @ a @ np.ones(20)))
    assert gap > 0


def test_qp_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        gen_random_qp(1, 0)


def test_qp_gradient_consistency():
    rng = np.random.default_rng(2)
    p = gen_random_qp(6, 42)
    _assert_grad_consistent(p, [p.x0] + [rng.standard_normal(6) for _ in range(10)])


# ---------------------------------------------------------------------------
# 2-D toy landscape


def test_toy_minimum_value_and_location():
    p = toy_2d()
    x_star = np.array([0.7, -0.7])
    assert p.phi(x_star) == 0.0
    assert p.phi_star == 0.0
    npt.assert_allclose(p.grad(x_star), np.zeros(2), atol=1e-14)


def test_toy_hessian_at_reference_point():
    p = toy_2d()
    h = p.hess(np.array([0.543, 0.0574]))
    assert h[0, 0] == pytest.approx(1.78, abs=5e-3)
    assert h[1, 1] == pytest.approx(-1.72, abs=5e-3)
    assert h[0, 1] == 0.0


def test_toy_critical_point_census():
    # separable double well: each 1-D factor has 3 stationary points, so the sum
    # has 9 critical points: 4 minima, 4 saddles, 1 local maximum
    p = toy_2d()
    roots = []
    for a, b in zip(np.linspace(-1.2, 1.2, 400)[:-1], np.linspace(-1.2, 1.2, 400)[1:]):
        ga = p.grad(np.array([a, 0.0]))[0]
        gb = p.grad(np.array([b, 0.0]))[0]
        if ga == 0.0:
            roots.append(a)
        elif ga * gb < 0:
            lo, hi = a, b
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                gm = p.grad(np.array([mid, 0.0]))[0]
                if ga * gm <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    assert len(roots) == 3
    minima = saddles = maxima = 0
    for rx in roots:
        for ry in roots:
            h = p.hess(np.array([rx, -ry]))
            signs = int(h[0, 0] > 0) + int(h[1, 1] > 0)
            if signs == 2:
                minima += 1
            elif signs == 1:
                saddles += 1
            else:
                maxima += 1
    assert (minima, saddles, maxima) == (4, 4, 1)


def test_toy_gradient_consistency():
    rng = np.random.default_rng(4)
    p = toy_2d()
    _assert_grad_consistent(p, [p.x0] + [rng.uniform(-1, 1, 2) for _ in range(10)])


# ---------------------------------------------------------------------------
# analytic test-problem registry


def test_arwhead_anchors():
    p = cutest_like("ARWHEAD")
    assert p.dim == 100
    assert p.phi(p.x0) == pytest.approx(3.0 * 99)
    assert p.phi_star == 0.0
    assert np.linalg.norm(p.grad(p.x_star)) <= 1e-6 * (1.0 + np.linalg.norm(p.grad(p.x0)))


def test_dixmaana_anchors():
    p = cutest_like("DIXMAANA")
    assert p.dim == 90
    npt.assert_array_equal(p.x0, 2.0 * np.ones(90))
    assert p.phi(p.x0) == pytest.approx(856.0)
    # minimum value 1.0, attained at the origin where every sum term vanishes
    assert p.phi_star == 1.0
    assert p.phi(np.zeros(90)) == 1.0
    assert np.linalg.norm(p.grad(np.zeros(90))) == 0.0


def _dixmaan_unfolded(variant, n):
    """DIXMAAN's phi and grad with every product written out left to right, as the
    reference for the builder, which folds the constant factors once per problem."""
    k1, k3, k4 = {"A": (0, 0, 0), "E": (1, 0, 1), "I": (2, 0, 2), "M": (2, 1, 2)}[variant]
    cc, cd = 0.125, 0.125
    m = n // 3
    i = np.arange(1.0, n + 1.0) / n
    w1, w3, w4 = i**k1, i[: 2 * m] ** k3, i[:m] ** k4

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

    return phi, grad


@pytest.mark.parametrize("n", [12, 90])
@pytest.mark.parametrize("variant", "AEIM")
def test_dixmaan_is_bitwise_the_unfolded_expressions(variant, n):
    p = cutest_like(f"DIXMAAN{variant}", n)
    phi, grad = _dixmaan_unfolded(variant, n)
    rng = np.random.default_rng(880 + n)
    for _ in range(20):
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        assert np.float64(p.phi(x)).view(np.int64) == np.float64(phi(x)).view(np.int64)
        npt.assert_array_equal(p.grad(x).view(np.int64), grad(x).view(np.int64), strict=True)


def test_tridia_minimum():
    p = cutest_like("TRIDIA")
    assert p.phi_star == 0.0
    assert p.phi(p.x_star) == pytest.approx(0.0, abs=1e-20)


def test_registry_gradients_consistent():
    rng = np.random.default_rng(12)
    for name in PROBLEM_DIMS:
        p = cutest_like(name, n=12 if PROBLEM_DIMS[name] == 100 else 12)
        points = [p.x0] + [p.x0 + 0.5 * rng.standard_normal(p.dim) for _ in range(10)]
        _assert_grad_consistent(p, points)


def test_registry_rejects_unknown_name():
    with pytest.raises(UnknownProblemError):
        cutest_like("NOSUCH")


@pytest.mark.parametrize("name, n, multiple", [("WOODS", 6, 4), ("DIXMAANA", 10, 3)])
def test_registry_rejects_a_dimension_the_problem_cannot_take(name, n, multiple):
    with pytest.raises(ValueError, match=f"multiple of {multiple}"):
        cutest_like(name, n)


def test_registry_custom_dimension():
    p = cutest_like("arwhead", n=10)
    assert p.dim == 10
    assert p.phi(p.x0) == pytest.approx(3.0 * 9)


# ---------------------------------------------------------------------------
# LIBSVM reader


def test_libsvm_parses_sparse_rows(tmp_path):
    f = tmp_path / "tiny.libsvm"
    f.write_text("# a comment\n+1 1:0.5 3:2.0\n\n   \n0 2:1.0 2:3.0\n-1\n")
    data = load_libsvm(f, normalize=False)
    assert data.n_samples == 3 and data.n_features == 3
    npt.assert_array_equal(data.features[0], [0.5, 0.0, 2.0])
    npt.assert_array_equal(data.features[1], [0.0, 3.0, 0.0])  # a repeated index: the last wins
    npt.assert_array_equal(data.features[2], [0.0, 0.0, 0.0])  # a label with no entries
    npt.assert_array_equal(data.labels, [1.0, -1.0, -1.0])  # 0 maps to -1


def test_libsvm_missing_file_names_its_path(tmp_path):
    f = tmp_path / "absent.libsvm"
    with pytest.raises(DatasetFormatError) as exc:
        load_libsvm(f)
    assert str(exc.value) == f"{f}: cannot open: No such file or directory"


# Each shape is above the 128 TiB user address space, so numpy cannot allocate
# anything for it, however the machine overcommits.
@pytest.mark.parametrize(
    "text, rows, index",
    [
        ("-1 99999999999999:1\n", 1, 99999999999999),
        ("+1 1:2\n-1 3:1\n" * 3000 + "-1 99999999999999:1\n", 6001, 99999999999999),
        ("+1 9007199254740992:1\n", 1, 2**53),
        ("+1 1:0.5 99999999999999999999:1\n", 1, 99999999999999999999),  # beyond int64
    ],
    ids=["one_row", "after_a_block", "2**53", "beyond_int64"],
)
def test_libsvm_index_too_large_to_allocate_names_index_and_shape(tmp_path, text, rows, index):
    f = tmp_path / "huge.libsvm"
    f.write_text(text)
    with pytest.raises(DatasetFormatError) as exc:
        load_libsvm(f)
    assert str(exc.value) == f"{f}: index {index} needs a {rows} x {index} feature matrix, too large to allocate"


def test_libsvm_non_utf8_bytes_name_their_line(tmp_path):
    f = tmp_path / "latin1.libsvm"
    f.write_bytes(b"+1 1:2\n-1 2:\xff\n")
    with pytest.raises(DatasetFormatError) as exc:
        load_libsvm(f)
    assert str(exc.value) == f"{f}:2: byte 0xff is not UTF-8"
    f.write_bytes(b"+1 1:2\n# caf\xe9\n-1 1:x\n")  # a comment must be text too
    with pytest.raises(DatasetFormatError) as exc:
        load_libsvm(f)
    assert str(exc.value) == f"{f}:2: byte 0xe9 is not UTF-8"
    f.write_bytes("+1 1:2\n# caf\u00e9\n".encode())  # well-formed UTF-8 is fine
    assert load_libsvm(f).n_samples == 1


def test_libsvm_normalizes_columns(tmp_path):
    f = tmp_path / "tiny.libsvm"
    f.write_text("+1 1:3.0 2:1.0\n-1 1:4.0\n")
    data = load_libsvm(f)
    norms = np.linalg.norm(data.features, axis=0)
    npt.assert_allclose(norms, [1.0, 1.0], atol=1e-12)


def test_libsvm_error_reports_line_numbers(tmp_path):
    f = tmp_path / "bad.libsvm"
    f.write_text("+1 1:0.5\nnotalabel 1:1.0\n")
    with pytest.raises(DatasetFormatError, match=":2:"):
        load_libsvm(f)
    f.write_text("+1 1:0.5\n-1 1:oops\n")
    with pytest.raises(DatasetFormatError, match=":2:"):
        load_libsvm(f)
    f.write_text("+1 0:0.5\n")
    with pytest.raises(DatasetFormatError, match="index 0"):
        load_libsvm(f)


def _block_file(rng, rows, cols):
    """LIBSVM text of a random sparse matrix in rows x cols, and that matrix."""
    x = np.where(rng.random((rows, cols)) < 0.4, rng.standard_normal((rows, cols)), 0.0)
    labels = rng.choice([-1.0, 1.0], size=rows)
    lines = []
    for label, row in zip(labels, x):
        entries = "".join(f" {j + 1}:{float(v)!r}" for j, v in enumerate(row) if v != 0.0)
        lines.append(f"{label:+.0f}{entries}\n")
    return lines, x, labels


def test_libsvm_file_longer_than_one_block(tmp_path, monkeypatch):
    lines, x, labels = _block_file(np.random.default_rng(3), 200, 7)
    lines[10] = lines[10].replace("\n", " \n")  # a trailing space
    # the first block ends with line 151, so the tab is in the second
    monkeypatch.setattr(problems, "_BLOCK_CHARS", len("".join(lines[:150])))
    lines[153] = lines[153].replace(" ", "\t", 1)
    f = tmp_path / "long.libsvm"
    f.write_text("".join(lines))
    data = load_libsvm(f, normalize=False)
    npt.assert_array_equal(data.features, x)
    npt.assert_array_equal(data.labels, labels)
    normalized = load_libsvm(f)
    norms = np.linalg.norm(x, axis=0)
    npt.assert_array_equal(normalized.features, x / np.where(norms > 0, norms, 1.0))


@pytest.mark.parametrize(
    "bad, message",
    [
        ("notalabel 1:1.0", "bad label 'notalabel'"),
        ("+1 1:0.5 2", "bad entry '2'"),
        ("+1 1:2:3", "bad entry '1:2:3'"),
        ("-1 1.5:2", "bad entry '1.5:2'"),
        ("-1 2:1 0:0.5", "index 0 must be >= 1"),
    ],
    ids=["label", "no_colon", "two_colons", "float_index", "index_0"],
)
def test_libsvm_errors_in_the_second_block_name_their_line(tmp_path, monkeypatch, bad, message):
    lines, _, _ = _block_file(np.random.default_rng(4), 200, 5)
    lines[0] = "# a comment line counts too\n"
    lines[1] = "\n"
    # the first block ends with line 101, and the second holds lines 102 to 131 at least
    monkeypatch.setattr(problems, "_BLOCK_CHARS", len("".join(lines[:100])))
    lines[120] = bad + "\n"
    lines[130] = "also bad\n"  # only the first error is reported
    f = tmp_path / "bad.libsvm"
    f.write_text("".join(lines))
    with pytest.raises(DatasetFormatError) as exc:
        load_libsvm(f)
    assert str(exc.value) == f"{f}:121: {message}"


_TOKENS = ["1", "+1", "-0", "2.5", "1e3", "nan", "1_0", "\u0663", "x", "", ":", "#", "1:2:3", "0:1", "3:", ":4"]
_GAPS = ["  ", "\t", " \t", "\x0b", "\x1c", "\xa0"]


def _random_line(rng):
    parts = [str(rng.choice(["+1", "-1", "0"])) if rng.random() < 0.9 else str(rng.choice(_TOKENS))]
    for _ in range(int(rng.integers(0, 5))):
        if rng.random() < 0.85:
            parts.append(f"{rng.integers(1, 6)}:{rng.choice(['0.5', '-1', '2e-3'])}")
        else:
            parts.append(str(rng.choice(_TOKENS)) + str(rng.choice([":", ""])) + str(rng.choice(_TOKENS)))
    line = parts[0]
    for part in parts[1:]:
        line += (" " if rng.random() < 0.85 else str(rng.choice(_GAPS))) + part
    return line + ("" if rng.random() < 0.8 else str(rng.choice([" "] + _GAPS))) + "\n"


def test_libsvm_block_parse_agrees_with_the_token_scan():
    # the whole-block conversion may decline a block (the scan then decides), but
    # whatever it accepts must be exactly what the token scan makes of it
    rng = np.random.default_rng(5)
    accepted = 0
    for _ in range(4000):
        block = [_random_line(rng) for _ in range(int(rng.integers(1, 5)))]
        if rng.random() < 0.2:
            block[-1] = block[-1].rstrip("\n")
        fast = problems._parse_block(block)
        if fast is None:
            continue
        accepted += 1
        scanned = problems._scan_block(block, "f", 1)
        for a, b in zip(fast, scanned):
            assert a.dtype == b.dtype
            npt.assert_array_equal(a, b)
    assert accepted > 500
    # the common layouts take the whole-block path
    assert problems._parse_block(["+1 1:0.5 3:2 \n", "-1\n", "0 2:1e-3"]) is not None


@pytest.mark.parametrize(
    "block",
    [
        ["+1 2:\t3\n"],
        ["+1 2:\xa03\n"],
        ["+1 2\u2003:3\n"],
        ["+1 2\x1c:3\n"],
        ["+1 2 :3\n"],
        ["+1 1:2 3\n"],
        [" 2:3\n", "+1 4:5 6\n"],
        ["\n", "+1 4:5 6\n"],
    ],
)
def test_libsvm_block_parse_declines_blocks_the_token_scan_rejects(block):
    # each has an empty label or an empty side of a colon next to a separator
    # that a count of spaces and colons alone would miss
    with pytest.raises(DatasetFormatError):
        problems._scan_block(block, "f", 1)
    assert problems._parse_block(block) is None


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("\n", ": no data rows"),  # np.fromstring reads a blank line as -1.0
        ("+1 1:2\n\n-1 2:1\n", [[2.0, 0.0], [0.0, 1.0]]),
        ("+1 1:0x1p3\n", ":1: bad entry '1:0x1p3'"),
        ("+1 1:1_0\n", [[10.0]]),
        ("+1 1:-inf 2:nan\n", ":1: bad entry '1:-inf'"),
        ("-1 1:2 2:1\nnan 2:3\n", ":2: bad label 'nan'"),
        ("+1 1:1 2:1\n+1 1:1e999 2:1\n", ":2: bad entry '1:1e999'"),  # np.fromstring reads inf
        ("1e400 1:1\n", ":1: bad label '1e400'"),
        ("+1 1e3:1\n", ":1: bad entry '1e3:1'"),
        ("+1 1.5:1\n", ":1: bad entry '1.5:1'"),
        ("+1 +2:1\n", [[0.0, 1.0]]),
        (  # read exactly, not rounded to 2**53
            "+1 9007199254740993:1\n",
            ": index 9007199254740993 needs a 1 x 9007199254740993 feature matrix, too large to allocate",
        ),
    ],
    ids=["blank", "blank_between", "hex", "underscore", "inf_nan", "nan_label", "overflow_value",
         "overflow_label", "exponent_index", "float_index", "signed_index", "index_2**53+1"],
)
def test_libsvm_whole_block_conversion_leaves_these_to_the_token_scan(tmp_path, text, outcome):
    assert problems._parse_block(text.splitlines(keepends=True)) is None
    f = tmp_path / "pinned.libsvm"
    f.write_text(text)
    if isinstance(outcome, str):
        with pytest.raises(DatasetFormatError) as exc:
            load_libsvm(f, normalize=False)
        assert str(exc.value) == f"{f}{outcome}"
    else:
        npt.assert_array_equal(load_libsvm(f, normalize=False).features, outcome)


def _reference_load(path, normalize=True):
    """load_libsvm as one token scan of the whole file, filled entry by entry.

    The scan refuses a non-finite label or value, so no column holds inf or NaN."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()
    raw, counts, idx, vals = problems._scan_block(lines, path, 1)
    if not raw.size:
        raise DatasetFormatError(f"{path}: no data rows")
    width = max(idx) if idx.size else 0
    try:
        x = np.zeros((raw.size, width))
    except (MemoryError, ValueError) as exc:
        raise DatasetFormatError(
            f"{path}: index {width} needs a {raw.size} x {width} feature matrix, too large to allocate"
        ) from exc
    for r, i, v in zip(np.repeat(np.arange(raw.size), counts), idx, vals):
        x[r, i - 1] = v  # the last of a repeated index wins
    if normalize:
        norms = np.linalg.norm(x, axis=0)
        x /= np.where(norms > 0, norms, 1.0)
    return x, np.where(raw > 0, 1.0, -1.0)


# mostly well-formed lines, so that many blocks take the whole-block conversion;
# the indices stay small or lie far beyond what can be allocated
_FUZZ_ODD = ["nan", "-inf", "0x1p3", "1_0", "1e3", "1.5", "+2", "0", "1e", ".", "-", "e5", "1e999",
             "9007199254740991", "9007199254740992", "99999999999999999999", "\udcff", "\u0663", ""]
_FUZZ_SEPS = ["  ", "\t", "\r", "\x0b", "\xa0"]


def _fuzz_line(rng):
    if rng.random() < 0.03:
        return str(rng.choice(["\n", " \n", "# note\n", "#\udce9\n"]))
    odd = rng.random() < 0.08
    label = str(rng.choice(_FUZZ_ODD)) if odd and rng.random() < 0.3 else str(rng.choice(["+1", "-1", "0", "2.5"]))
    parts = [label]
    for _ in range(int(rng.integers(0, 6))):
        i, v = str(rng.integers(1, 7)), str(rng.choice(["0.5", "-1", "2e-3", "1E+2", ".25", "-0", "7."]))
        if odd and rng.random() < 0.3:
            if rng.random() < 0.5:
                i = str(rng.choice(_FUZZ_ODD))
            else:
                v = str(rng.choice(_FUZZ_ODD))
        parts.append(f"{i}:{v}" if rng.random() < 0.98 else f"{i}{v}")
    line = parts[0]
    for part in parts[1:]:
        line += str(rng.choice(_FUZZ_SEPS)) if odd and rng.random() < 0.2 else " "
        line += part
    return line + (" " if rng.random() < 0.1 else "") + "\n"


def _outcome(load, *args, **kwargs):
    try:
        return load(*args, **kwargs)
    except DatasetFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("block_chars", [1, 2, 40, 300, 1 << 17])
def test_libsvm_whole_file_agrees_with_the_token_scan(tmp_path, monkeypatch, block_chars):
    monkeypatch.setattr(problems, "_BLOCK_CHARS", block_chars)
    rng = np.random.default_rng(31 + block_chars)
    f = tmp_path / "fuzz.libsvm"
    loaded = 0
    for case in range(700):
        text = "".join(_fuzz_line(rng) for _ in range(int(rng.integers(0, 12))))
        if rng.random() < 0.1:
            text = text.rstrip("\n")
        f.write_bytes(text.encode("utf-8", "surrogateescape"))
        normalize = bool(case % 3)
        got = _outcome(load_libsvm, f, normalize=normalize)
        want = _outcome(_reference_load, f, normalize=normalize)
        if isinstance(want, str):
            assert got == want
            continue
        loaded += 1
        features, labels = want
        assert got.features.shape == features.shape
        npt.assert_array_equal(got.features.view(np.int64), features.view(np.int64))
        npt.assert_array_equal(got.labels.view(np.int64), labels.view(np.int64))
    assert loaded > 200


def test_libsvm_features_are_row_major_and_bitwise_the_reference(tmp_path, monkeypatch):
    # several row blocks, each long enough that numpy would sum a contiguous column
    # pairwise, which shows in the norms' last bits
    lines, _, _ = _block_file(np.random.default_rng(12), 300, 22)
    monkeypatch.setattr(problems, "_BLOCK_CHARS", len("".join(lines[:63])))  # 64-line blocks
    f = tmp_path / "blocks.libsvm"
    f.write_text("".join(lines))
    for normalize in (False, True):
        got = load_libsvm(f, normalize=normalize).features
        want, _ = _reference_load(f, normalize=normalize)
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert got.shape == want.shape == (300, 22)
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _placement_lines():
    """200 LIBSVM lines whose largest index, 12, first appears at row 150 (after
    index 11 at row 120, 8,660 characters in), so the matrix is widened in a
    later block at any budget below that; a row before and a row after the last
    widening repeat an index."""
    lines, _, _ = _block_file(np.random.default_rng(21), 200, 8)
    lines[100] = "+1 3:1.5 5:2 3:-4\n"
    lines[120] = lines[120].rstrip("\n") + " 11:0.75\n"
    lines[150] = "-1 12:1 2:3 12:0.5 11:-2\n"
    return lines


_PLACEMENT_CASES = {
    "widened_later": "".join(_placement_lines()),
    "crlf": "".join(_placement_lines()).replace("\n", "\r\n"),
    "lone_cr": "".join(_placement_lines()).replace("\n", "\r"),
    "blank_and_comment": "".join(
        line + ("\n   \n# note\n" if i % 37 == 0 else "") for i, line in enumerate(_placement_lines())
    ),
    "no_final_newline": "".join(_placement_lines()).rstrip("\n"),
}


@pytest.mark.parametrize("block_chars", [1, 500, 4000, 1 << 17])
@pytest.mark.parametrize("case", sorted(_PLACEMENT_CASES))
def test_libsvm_blocks_placed_in_the_matrix_are_bitwise_the_reference(tmp_path, monkeypatch, case, block_chars):
    monkeypatch.setattr(problems, "_BLOCK_CHARS", block_chars)
    f = tmp_path / "placed.libsvm"
    f.write_bytes(_PLACEMENT_CASES[case].encode())
    for normalize in (False, True):
        got = load_libsvm(f, normalize=normalize)
        features, labels = _reference_load(f, normalize=normalize)
        assert features.shape == (200, 12)
        assert got.features.shape == features.shape and got.features.flags.c_contiguous
        assert got.labels.shape == labels.shape
        npt.assert_array_equal(got.features.view(np.int64), features.view(np.int64))
        npt.assert_array_equal(got.labels.view(np.int64), labels.view(np.int64))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_libsvm_reads_a_pipe_as_it_reads_a_file(tmp_path):
    # a pipe cannot be rewound after its lines are counted, so it is read into memory
    text = "".join(_placement_lines())
    f = tmp_path / "file.libsvm"
    f.write_text(text)
    pipe = tmp_path / "pipe.libsvm"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,))
    writer.start()
    try:
        got = load_libsvm(pipe)
    finally:
        writer.join(timeout=10)
    want = load_libsvm(f)
    npt.assert_array_equal(got.features.view(np.int64), want.features.view(np.int64))
    npt.assert_array_equal(got.labels.view(np.int64), want.labels.view(np.int64))


def test_libsvm_line_bound_counts_each_break_once_unless_a_chunk_splits_it():
    # the bound is the line breaks plus one, for a last line without one
    for text, breaks in [(b"", 0), (b"a", 0), (b"a\n", 1), (b"a\r\nb\rc\n\nd", 4), (b"\r\r\n\n", 3)]:
        assert problems._line_bound(io.BytesIO(text)) == breaks + 1
    split = b"x" * ((1 << 16) - 1) + b"\r\n+1 1:2\n"  # the pair straddles the first chunk's end
    assert problems._line_bound(io.BytesIO(split)) == 3 + 1


def _ijcnn1_like_file(path, rows):
    """rows ijcnn1-like lines: a one-hot feature among ten and twelve continuous ones."""
    rng = np.random.default_rng(8)
    hot = rng.integers(1, 11, size=rows)
    dense = rng.standard_normal((rows, 12))
    with open(path, "w") as fh:
        for r in range(rows):
            entries = " ".join(f"{11 + j}:{v:.6f}" for j, v in enumerate(dense[r]))
            fh.write(f"{'+1' if r % 3 else '-1'} {hot[r]}:1 {entries}\n")


def _load_peak(path):
    tracemalloc.start()
    try:
        data = load_libsvm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return data, peak


def test_libsvm_load_peak_memory_stays_near_the_matrix(tmp_path):
    f = tmp_path / "big.libsvm"
    _ijcnn1_like_file(f, 20_000)
    data, peak = _load_peak(f)
    assert data.features.shape == (20_000, 22)
    assert peak <= 1.4 * data.features.nbytes


def test_libsvm_load_of_wide_rows_peaks_near_the_matrix(tmp_path):
    # a block is a number of characters, not of lines, so wide rows cost no more
    # (9.25 times the matrix with blocks of 4,096 lines)
    rng = np.random.default_rng(10)
    f = tmp_path / "wide.libsvm"
    f.write_text("".join(
        f"{'+1' if r % 2 else '-1'} " + " ".join(f"{j + 1}:{v:.6f}" for j, v in enumerate(row)) + "\n"
        for r, row in enumerate(rng.standard_normal((1_000, 200)))
    ))
    data, peak = _load_peak(f)
    assert data.features.shape == (1_000, 200)
    assert peak <= 2.0 * data.features.nbytes


def test_libsvm_load_with_small_blocks_peaks_little_above_the_matrix(tmp_path, monkeypatch):
    # each block is written straight into the matrix, so beside it the load keeps
    # only the labels and one block's text and numbers (2.1 times the matrix when
    # the row blocks were copied in at the end)
    monkeypatch.setattr(problems, "_BLOCK_CHARS", 1 << 15)
    f = tmp_path / "big.libsvm"
    _ijcnn1_like_file(f, 20_000)
    data, peak = _load_peak(f)
    assert data.features.shape == (20_000, 22)
    assert peak <= 1.25 * data.features.nbytes


def test_column_norms_are_bitwise_numpys():
    rng = np.random.default_rng(9)
    shapes = [(1, 1), (3, 0), (300, 1), (6, 2), (7, 3), (8, 5), (300, 22), (50, 200)]
    # C-order matrices as load_libsvm returns them: up to 50,000 rows and 64 columns
    shapes += [(0, 2), (50_000, 64)] + [(int(rng.integers(0, 50_001)), int(rng.integers(2, 65))) for _ in range(24)]
    for rows, cols in shapes:
        x = rng.standard_normal((rows, cols)) * np.exp(rng.uniform(-690, 690, (rows, cols)))
        x[rng.random((rows, cols)) < 0.3] = 0.0
        tiny = rng.random((rows, cols)) < 0.05
        x[tiny] = rng.integers(-2**52, 2**52, tiny.sum()) * 2.0**-1074  # subnormals
        with np.errstate(over="ignore"):
            npt.assert_array_equal(
                problems._column_norms(x).view(np.int64), np.linalg.norm(x, axis=0).view(np.int64)
            )


def test_libsvm_rejects_empty_file(tmp_path):
    f = tmp_path / "empty.libsvm"
    f.write_text("\n\n")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        load_libsvm(f)


@pytest.mark.parametrize("skipped", ["\n", "# comment\n"], ids=["blank", "comment"])
def test_libsvm_lines_already_skipped_cost_no_rows_of_the_matrix(tmp_path, skipped):
    # the matrix is widened in the last block, to the one row that can still be
    # filled: a row per line of the file would ask for 160 GB
    f = tmp_path / "wide.libsvm"
    f.write_text(skipped * 20_000 + "+1 1000000:1\n")
    data = load_libsvm(f)
    assert data.features.shape == (1, 1_000_000)
    assert data.features[0, -1] == 1.0 and np.count_nonzero(data.features) == 1
    assert data.labels.tolist() == [1.0]


def test_libsvm_fixture_shape():
    data = load_libsvm(fixture_dataset_path())
    assert data.n_features == 22
    assert data.n_samples == 200
    assert set(np.unique(data.labels)) == {-1.0, 1.0}
    norms = np.linalg.norm(data.features, axis=0)
    nz = norms > 0
    npt.assert_allclose(norms[nz], np.ones(nz.sum()), atol=1e-12)


# ---------------------------------------------------------------------------
# logistic regression


def test_logistic_value_at_origin_is_log2():
    data = load_libsvm(fixture_dataset_path())
    p = logistic_problem(data, rho=0.1)
    assert p.dim == 23  # intercept first
    assert p.phi(np.zeros(p.dim)) == pytest.approx(math.log(2.0))


def test_logistic_gradient_consistency():
    rng = np.random.default_rng(15)
    data = load_libsvm(fixture_dataset_path())
    p = logistic_problem(data, rho=0.1)
    _assert_grad_consistent(p, [p.x0] + [0.5 * rng.standard_normal(p.dim) for _ in range(10)])


def test_minibatch_full_batch_equals_gradient():
    data = load_libsvm(fixture_dataset_path())
    p = logistic_problem(data, rho=0.1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(p.dim) * 0.3
    g_batch = minibatch_gradient(data, 0.1, x, batch=data.n_samples, rng=rng)
    npt.assert_allclose(g_batch, p.grad(x), atol=1e-12)


def test_minibatch_is_unbiased():
    data = load_libsvm(fixture_dataset_path())
    rho = 0.1
    p = logistic_problem(data, rho)
    rng = np.random.default_rng(1)
    x = 0.2 * rng.standard_normal(p.dim)
    full = p.grad(x)
    draws = np.array([minibatch_gradient(data, rho, x, 20, rng) for _ in range(4000)])
    err = draws.mean(axis=0) - full
    # three-sigma band of the Monte Carlo mean, coordinatewise
    band = 3.0 * draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(err) <= band + 1e-12)


_NO_SCIPY_SPECIAL_SCRIPT = """
import sys, tempfile
import numpy as np
from softqn.experiments import fixture_dataset_path, run_logreg
from softqn.problems import load_libsvm, logistic_problem, minibatch_gradient

with tempfile.TemporaryDirectory() as out:
    run_logreg({"trials": 2, "iterations": 20}, out)
data = load_libsvm(fixture_dataset_path())
rho = 0.1
x = 0.3 * np.random.default_rng(5).standard_normal(data.n_features + 1)
g = logistic_problem(data, rho).grad(x)
g_batch = minibatch_gradient(data, rho, x, 37, np.random.default_rng(6))

def reference(z, y):
    coef = y * (1.0 / (1.0 + np.exp(y * (x[0] + z @ x[1:])))) / z.shape[0]
    out = np.empty(x.shape)
    out[0] = -np.sum(coef)
    out[1:] = -(coef @ z) + 2.0 * rho * x[1:]
    return out

def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))

idx = np.random.default_rng(6).choice(data.n_samples, size=37, replace=False)
print("scipy.special" in sys.modules, same_bits(g, reference(data.features, data.labels)),
      same_bits(g_batch, reference(data.features[idx], data.labels[idx])))
"""


def test_logistic_runs_never_load_scipy_special():
    # the loss derivative is scipy's expit formula in numpy, so a whole logreg run
    # leaves scipy.special, and its import time and memory, out
    env = {**os.environ, "PYTHONPATH": str(Path(problems.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SPECIAL_SCRIPT], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.split() == ["False", "True", "True"]


def test_logistic_gradient_is_finite_at_margins_beyond_exp_overflow():
    data = problems.LogisticDataset(
        features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]), labels=np.array([1.0, -1.0, 1.0])
    )
    p = logistic_problem(data, rho=0.1)
    for scale in (710.0, 1e5, 1e300):
        for v in (np.array([0.0, scale, -scale]), np.array([0.0, -scale, scale])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = p.grad(v)
            assert np.all(np.isfinite(g)), (scale, v)
    # every margin far positive: the data term is exactly 0 (expit's limit), the
    # regularizer term 2*rho*w is left
    npt.assert_array_equal(p.grad(np.array([0.0, 800.0, -800.0])), [0.0, 160.0, -160.0])


def _column_major(data):
    return problems.LogisticDataset(features=np.asfortranarray(data.features), labels=data.labels)


def test_logistic_gradient_does_not_depend_on_the_feature_layout():
    data = load_libsvm(fixture_dataset_path())
    assert data.features.flags.c_contiguous
    col_major = _column_major(data)
    rng = np.random.default_rng(17)
    for _ in range(5):
        v = 0.5 * rng.standard_normal(data.n_features + 1)
        g = logistic_problem(data, 0.1).grad(v)
        g_f = logistic_problem(col_major, 0.1).grad(v)
        # a different summation order in the matrix-vector products: a few ulp of
        # the terms' size
        npt.assert_allclose(g_f, g, rtol=0, atol=8 * np.finfo(float).eps * np.max(np.abs(g)))


def test_minibatch_gradient_is_bitwise_the_same_in_either_layout():
    # the row gather gives the same C-order batch from either layout, so minibatch
    # trajectories do not depend on the layout of the loaded matrix
    data = load_libsvm(fixture_dataset_path())
    col_major = _column_major(data)
    rng, rng_f = np.random.default_rng(29), np.random.default_rng(29)
    v = 0.5 * np.random.default_rng(31).standard_normal(data.n_features + 1)
    for batch in (1, 37, data.n_samples):
        g = minibatch_gradient(data, 0.1, v, batch, rng)
        g_f = minibatch_gradient(col_major, 0.1, v, batch, rng_f)
        npt.assert_array_equal(g_f.view(np.int64), g.view(np.int64))


def _assert_batched_norms_match(data, rho, vs):
    # the features as given (row-major, as the loader returns them) and a column-major copy
    for d in (data, _column_major(data)):
        problem = logistic_problem(d, rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = problem.grad_norms(vs)
            one_by_one = [np.linalg.norm(problem.grad(v)) for v in vs]
        assert batched.shape == (len(vs),)
        npt.assert_allclose(batched, one_by_one, rtol=1e-13, atol=0)


def test_batched_grad_norms_match_per_iterate_norms():
    rng = np.random.default_rng(19)
    for normalize in (True, False):
        data = load_libsvm(fixture_dataset_path(), normalize=normalize)
        dim = data.n_features + 1
        scale = 0.5 if normalize else 0.05  # unnormalized features are larger
        _assert_batched_norms_match(data, 0.1, scale * rng.standard_normal((7, dim)))
        # one point, and the edges of the point tiles
        tile = problems._POINT_BLOCK
        for k in (1, tile, tile + 1, 2 * tile + 1):
            _assert_batched_norms_match(data, 0.1, scale * rng.standard_normal((k, dim)))


def test_batched_grad_norms_across_row_blocks():
    # a row count that is not a multiple of the row block, so the last block is short
    rng = np.random.default_rng(23)
    rows = 2 * problems._ROW_BLOCK + 37
    data = problems.LogisticDataset(
        features=rng.standard_normal((rows, 5)) / math.sqrt(rows),
        labels=np.where(rng.random(rows) < 0.5, -1.0, 1.0),
    )
    _assert_batched_norms_match(data, 0.01, rng.standard_normal((9, data.n_features + 1)))


def test_batched_grad_norms_beyond_exp_overflow():
    # margins beyond +-709: exp overflows, the derivative goes to 0 or its limit, with no warning
    data = problems.LogisticDataset(
        features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]), labels=np.array([1.0, -1.0, 1.0])
    )
    p = logistic_problem(data, rho=0.1)
    vs = [[0.0, s, -s] for s in (710.0, 1e5, 1e150)] + [[0.0, -s, s] for s in (710.0, 1e5, 1e150)]
    _assert_batched_norms_match(data, 0.1, np.array(vs))
    # every margin far positive: only the regularizer term 2*rho*w is left
    assert p.grad_norms(np.array([[0.0, 800.0, -800.0]]))[0] == np.linalg.norm([160.0, 160.0])


def test_logistic_problem_rejects_negative_and_non_finite_rho():
    data = load_libsvm(fixture_dataset_path())
    for rho in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rho"):
            logistic_problem(data, rho)


def test_minibatch_validates_batch_size():
    data = load_libsvm(fixture_dataset_path())
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        minibatch_gradient(data, 0.1, np.zeros(23), 0, rng)
    with pytest.raises(ValueError):
        minibatch_gradient(data, 0.1, np.zeros(23), data.n_samples + 1, rng)
    with pytest.raises(ValueError, match="batch must be an integer"):
        minibatch_gradient(data, 0.1, np.zeros(23), 2.5, rng)
