"""Digest of the deterministic CSVs, for bit-for-bit comparisons between commits.

    python scripts/csv_digest.py [SRC]
    python scripts/csv_digest.py SRC_A SRC_B

Runs the ``toy`` experiment and ``qp``, ``logreg`` and ``cutest`` at two
trials each (preset seeds, bundled logistic fixture) into a temporary
directory, then prints the sha256 of every CSV written, sorted by name, and
one combined digest over those lines.  It then runs ``logreg`` at two trials
on a seeded 12,000-row LIBSVM file written into the same directory, which the
loader reads in several blocks and widens in a later one, and prints those
CSVs' digests and one combined digest over every line.  SRC is the source
directory whose ``softqn`` is imported (default: the ``src`` beside this
script), so one copy of the script can digest two checkouts: equal combined
digests mean byte-identical CSVs.  Given two SRCs, it digests each in its own
process, prints both listings, and exits 1 when a combined digest differs.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MULTIBLOCK_ROWS = 12_000
WIDE_FROM = 9_000  # the first row with index 23


def write_multiblock_file(path):
    """A seeded ijcnn1-like LIBSVM file: a one-hot feature among ten and twelve
    continuous ones per row, and index 23 on every seventh row from row
    ``WIDE_FROM`` on; the loader reads it in several blocks and widens the
    matrix in a later one."""
    rng = np.random.default_rng(2024)
    hot = rng.integers(1, 11, size=MULTIBLOCK_ROWS)
    dense = rng.standard_normal((MULTIBLOCK_ROWS, 13))
    labels = rng.random(MULTIBLOCK_ROWS) < 0.4
    with open(path, "w", encoding="ascii") as fh:
        for r in range(MULTIBLOCK_ROWS):
            wide = r >= WIDE_FROM and r % 7 == 0
            entries = " ".join(f"{11 + j}:{v:.6f}" for j, v in enumerate(dense[r, : 13 if wide else 12]))
            fh.write(f"{'+1' if labels[r] else '-1'} {hot[r]}:1 {entries}\n")


def digests(directory, prefix=""):
    """'<sha256>  <prefix><name>' for each file in directory, sorted by name."""
    lines = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {prefix}{name}")
    return lines


def combined(lines, label):
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return f"{digest}  {label} ({len(lines)} files)"


def compare(sources):
    """Digest each source tree in its own process; 1 when a combined digest differs between them."""
    combined_lines = []
    for src in sources:
        out = subprocess.run([sys.executable, __file__, src], capture_output=True, text=True, check=True).stdout
        print(f"== {src}\n{out}", end="")
        combined_lines.append([line for line in out.splitlines() if "  combined" in line])
    same = all(lines == combined_lines[0] for lines in combined_lines)
    print("combined digests agree" if same else "combined digests DIFFER")
    return 0 if same else 1


def main(argv):
    if len(argv) > 2:
        return compare(argv[1:])
    sys.path.insert(0, argv[1] if len(argv) > 1 else SRC)
    from softqn.experiments import run_cutest, run_logreg, run_qp, run_toy

    runs = [(run_toy, {}), (run_qp, {"trials": 2}), (run_logreg, {"trials": 2}), (run_cutest, {"trials": 2})]
    with tempfile.TemporaryDirectory() as tmp:
        preset, multiblock = os.path.join(tmp, "preset"), os.path.join(tmp, "multiblock")
        os.mkdir(preset)
        os.mkdir(multiblock)
        for runner, params in runs:
            runner(params, preset)
        dataset = os.path.join(tmp, "multiblock.libsvm")
        write_multiblock_file(dataset)
        run_logreg({"trials": 2, "dataset": dataset}, multiblock)
        lines = digests(preset)
        extra = digests(multiblock, "multiblock/")
    for line in lines:
        print(line)
    print(combined(lines, "combined"))
    for line in extra:
        print(line)
    print(combined(lines + extra, "combined with the multi-block logreg run"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
