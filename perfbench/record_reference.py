"""Write reference.json: each workload's per-method median final metric
(log10 units) from the reference call at the recorded seed.

    python3 perfbench/record_reference.py

Re-record only in a change that means to move softqn's results, and say why.
"""

import json
import os
import shutil
import sys

import run
from workloads import REF_SEED, WORKLOADS


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from meta import source_digest
    from worker import run_once

    out_dir = os.path.join(run.CACHE, "record")
    medians = {}
    for wl in WORKLOADS.values():
        _, ref_data = run._datasets(wl, REF_SEED)
        res = run_once(wl, REF_SEED, ref_data, out_dir)
        if res["problems"]:
            sys.exit(f"{wl.name}: {res['problems']}")
        medians[wl.name] = {m: wl.final_log10(v) for m, v in res["medians"].items()}
        print(wl.name, medians[wl.name])
    shutil.rmtree(out_dir, ignore_errors=True)
    doc = {
        "recorded_seed": REF_SEED,
        "source_sha256": source_digest(run.ROOT),
        "workloads": medians,
    }
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
