"""softqn benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload qp_n200 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh process that
calls ``softqn.experiments.run_<experiment>`` repeatedly for ``--seconds``
(serially, with one OpenBLAS thread), after one reference call at the
recorded seed whose result is compared with ``reference.json``.  Every call's
outputs are checked.  A fixed calibration workload (``calib.py``) is timed
before the first call and after each, and the bounded times (``wall_norm_s``,
``setup_s``) are rescaled by it to the calibration's nominal machine speed.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
run alternates untraced and traced calls and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import dataset
from spans import tail
from workloads import REF_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
SETUP_SAMPLES = 1  # fresh processes timing ``import softqn`` before the worker, and as many after
RUN_LIMIT_S = 175  # every child is stopped by then, so a run ends within 180 s
# One OpenBLAS thread keeps every run serial.  With the default (one thread per
# CPU, two here) the second CPU is shared with whatever else the machine runs,
# and run-to-run spread of wall_s on qp_n200 exceeded any usable bound.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def _child(args, deadline):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return proc.stdout


def _datasets(wl, seed):
    """(workload dataset, reference dataset) paths; other seeds' files are pruned."""
    if not wl.needs_dataset:
        return "", ""
    paths = dataset.ensure(CACHE, seed), dataset.ensure(CACHE, REF_SEED)
    for path in glob.glob(os.path.join(CACHE, "ijcnn1_like_*.libsvm")):
        if path not in paths:
            os.remove(path)
    return paths


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "softqn", "__init__.py")):
        print(f"perfbench: no softqn sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = _spec()
    wl = WORKLOADS[args.workload]
    data, ref_data = _datasets(wl, args.seed)
    work_dir = os.path.join(CACHE, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    result_path = os.path.join(work_dir, "result.json")
    job = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "dataset": data,
        "ref_dataset": ref_data,
        "work_dir": work_dir,
        "trace_path": os.path.join(CACHE, f"trace-{wl.name}.npz"),
    }
    try:
        setup = []
        if not args.trace:
            setup = [json.loads(_child(["import"], deadline)) for _ in range(SETUP_SAMPLES)]
        _child(["run", json.dumps(job), result_path], deadline)
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        if not args.trace:
            setup += [json.loads(_child(["import"], deadline)) for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup.append(res["setup"])

    walls = res["walls"]
    if not walls:
        print("perfbench: no experiment call completed:", *res["problems"], sep="\n", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and not res["problems"]
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(res["meta"], sort_keys=True))
    for p in res["problems"]:
        print(f"check failed: {p}")

    if args.trace:
        values = res["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_norm_s": statistics.median(res["norm_walls"]),
            "setup_s": statistics.median(s["setup_norm_s"] for s in setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        # The bounded metrics are rescaled to the calibration's nominal speed
        # (calib.py); the wall and import times as measured are printed here.
        wall_tail, wall_pct = tail(walls)
        print(f"  wall_s {statistics.median(walls)} s (median of {len(walls)} calls; p{wall_pct} {wall_tail} s)")
        print(f"  wall_s samples={walls}")
        print(f"  calibration_s samples={res['cals']}")
        print(f"  setup_s as measured samples={[s['setup_s'] for s in setup]}")
        # Failures, divergences and the reference deviation read 0 when all is
        # well, so they are reported here and through "correct"/"failed" rather
        # than as metrics with a relative bound.
        print(f"  failed_share {failed / attempted} ratio ({failed} of {attempted} trials)")
        print(f"  diverged_share {res['diverged'] / attempted} ratio ({res['diverged']} of {attempted} trials)")
        print(f"  result_dev {res['result_dev']} log10 units (tolerance {wl.result_tol}, seed {REF_SEED})")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} {values[m['name']]} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
