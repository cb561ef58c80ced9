"""Digest of the deterministic CSVs, for bit-for-bit comparisons between commits.

    python scripts/csv_digest.py

Runs the ``toy`` experiment and ``qp``, ``logreg`` and ``cutest`` at two
trials each (preset seeds, bundled logistic fixture) into a temporary
directory, then prints the sha256 of every CSV written, sorted by name, and
one combined digest over those lines.  Run it from the root of two checkouts:
equal combined digests mean byte-identical CSVs.
"""

import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from softqn.experiments import run_cutest, run_logreg, run_qp, run_toy  # noqa: E402

RUNS = [(run_toy, {}), (run_qp, {"trials": 2}), (run_logreg, {"trials": 2}), (run_cutest, {"trials": 2})]


def main():
    with tempfile.TemporaryDirectory() as out:
        for runner, params in RUNS:
            runner(params, out)
        lines = []
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {name}")
    for line in lines:
        print(line)
    combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{combined}  combined ({len(lines)} files)")


if __name__ == "__main__":
    main()
