"""Output check applied to every experiment call the benchmark makes."""

import math
import os


def _read_lines(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read().split("\n")


def check_outputs(written, methods, long_rows) -> list:
    """Problems found in one call's outputs; an empty list means they pass.

    Every returned path exists; the long CSV has exactly ``long_rows`` data rows,
    each with a finite value; the summary has one row per method, in order.
    """
    problems = [f"missing output {p}" for p in written if not os.path.isfile(p)]
    if problems:
        return problems
    long_path = next((p for p in written if p.endswith("_long.csv")), None)
    summary_path = next((p for p in written if p.endswith("_summary.csv")), None)
    if long_path is None or summary_path is None:
        return ["long or summary CSV not among the written paths"]

    lines = _read_lines(long_path)
    if lines[-1] != "":
        problems.append(f"{long_path}: last row not terminated")
    rows = [ln for ln in lines[1:] if ln]
    if len(rows) != long_rows:
        problems.append(f"{long_path}: {len(rows)} rows, expected {long_rows}")
    for i, row in enumerate(rows, start=2):
        cells = row.split(",")
        try:
            ok = len(cells) == 6 and math.isfinite(float(cells[5]))
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"{long_path}:{i}: bad row {row!r}")
            break

    summary = [ln.split(",") for ln in _read_lines(summary_path)[1:] if ln]
    if [cells[1] for cells in summary] != list(methods):
        problems.append(f"{summary_path}: methods {[c[1] for c in summary]}, expected {list(methods)}")
    return problems


def summary_medians(written) -> dict:
    """method -> median of the final metric, from the summary CSV."""
    path = next(p for p in written if p.endswith("_summary.csv"))
    out = {}
    for line in _read_lines(path)[1:]:
        if line:
            cells = line.split(",")
            out[cells[1]] = float(cells[5])
    return out
