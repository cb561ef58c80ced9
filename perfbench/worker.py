"""One fresh benchmark process.

    python3 perfbench/worker.py import
        times ``import softqn``, then the calibration work, and prints
        {"setup_s": ..., "setup_norm_s": ...}
    python3 perfbench/worker.py run JOB_JSON RESULT_PATH
        times ``import softqn``, makes the reference call, then calls the
        workload's experiment until the job's seconds are used, timing the
        calibration work (``calib.py``) before the first call and after each,
        and writes the raw result to RESULT_PATH

Only the standard library is imported before ``import softqn`` is timed.
"""

import hashlib
import json
import os
import shutil
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def call_seed(seed, i):
    """Experiment seed of the i-th measured call of a run with workload ``seed``."""
    digest = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def run_once(wl, seed, dataset, out_dir, tracer=None):
    """One ``run_<experiment>`` call, timed and checked.

    Returns a dict with ``wall`` (None when the call raised), trial counts, the
    output problems found, the summary medians and the TrialRecord totals.
    """
    from softqn import experiments

    from check import check_outputs, summary_medians
    from spans import installed

    shutil.rmtree(out_dir, ignore_errors=True)
    params = wl.params_for(seed, dataset)
    out = {"attempted": wl.trials_per_call, "wall": None, "problems": [], "medians": {}}
    try:
        if tracer is None:
            t0 = perf_counter()
            records, written = getattr(experiments, f"run_{wl.experiment}")(params, out_dir)
            out["wall"] = perf_counter() - t0
        else:
            with installed(tracer):
                t0 = perf_counter()
                records, written = getattr(experiments, f"run_{wl.experiment}")(params, out_dir)
                out["wall"] = perf_counter() - t0
    except Exception:  # a raising experiment is counted as failed trials, not a crash
        out["problems"] = [traceback.format_exc()]
        out["failed"] = wl.trials_per_call
        return out
    out["problems"] = check_outputs(written, wl.methods, wl.long_rows)
    out["failed"] = wl.trials_per_call if out["problems"] else 0
    if not out["problems"]:
        out["medians"] = summary_medians(written)
    recs = [r for rs in records.values() for r in rs]
    out["diverged"] = sum(r.diverged for r in recs)
    out["records"] = {
        "iterations": sum(r.iterations for r in recs),
        "step_rejections": sum(r.step_rejections for r in recs),
        "skipped_updates": sum(r.skipped_updates for r in recs),
        "csv_bytes": sum(os.path.getsize(p) for p in written if os.path.isfile(p)),
    }
    return out


def result_dev(wl, medians, reference):
    """Largest |log10 deviation| of a per-method median from the reference."""
    if not medians or wl.name not in reference:
        return None
    ref = reference[wl.name]
    if set(ref) != set(medians):
        return None
    return max(abs(wl.final_log10(medians[m]) - ref[m]) for m in ref)


def run_job(job, setup):
    import resource

    from calib import at_nominal, calibrate
    from meta import metadata
    from spans import SpanTable, Tracer, per_layer
    from workloads import REF_SEED, WORKLOADS

    wl = WORKLOADS[job["workload"]]
    out_dir = os.path.join(job["work_dir"], "out")
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"]

    calls = []
    ref = run_once(wl, REF_SEED, job["ref_dataset"], out_dir)
    calls.append(ref)
    dev = result_dev(wl, ref["medians"], reference)

    walls, norm_walls, cals, traced_walls = [], [], [], []
    tracer = Tracer() if job["trace"] else None
    totals = dict.fromkeys(("iterations", "step_rejections", "skipped_updates", "csv_bytes"), 0)
    deadline = perf_counter() + job["seconds"]
    cal = calibrate()
    i = 1
    while i == 1 or perf_counter() < deadline:
        seed = call_seed(job["seed"], i)
        c = run_once(wl, seed, job["dataset"], out_dir)
        calls.append(c)
        cal_after = calibrate()
        if c["wall"] is not None:
            walls.append(c["wall"])
            norm_walls.append(at_nominal(c["wall"], cal, cal_after))
            cals.append(cal_after)
        cal = cal_after
        if tracer is not None:
            c = run_once(wl, seed, job["dataset"], out_dir, tracer)
            calls.append(c)
            if c["wall"] is not None:
                traced_walls.append(c["wall"])
                for k in totals:
                    totals[k] += c["records"][k]
        i += 1

    problems = [p for c in calls for p in c["problems"]]
    if dev is None:
        problems.append("no reference result to compare with")
    elif dev > wl.result_tol:
        problems.append(f"result_dev {dev} exceeds tolerance {wl.result_tol}")
    result = {
        "setup": setup,
        "walls": walls,
        "norm_walls": norm_walls,
        "cals": cals,
        "attempted": sum(c["attempted"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "diverged": sum(c.get("diverged", 0) for c in calls),
        "result_dev": dev,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": metadata(ROOT, job["seed"]),
    }
    if tracer is not None:
        tracer.save(job["trace_path"])
        result["per_layer"] = per_layer(SpanTable(tracer), tracer, traced_walls, walls, totals)
    return result


def main(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = perf_counter()
    import softqn  # noqa: F401  (the import is the set-up being timed)

    setup_s = perf_counter() - t0
    from calib import at_nominal, calibrate

    calibrate()  # the first call in a process pays for numpy's lazy set-up
    setup = {"setup_s": setup_s, "setup_norm_s": at_nominal(setup_s, calibrate())}
    if argv[1] == "import":
        print(json.dumps(setup))
        return 0
    job = json.loads(argv[2])
    result = run_job(job, setup)
    with open(argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
