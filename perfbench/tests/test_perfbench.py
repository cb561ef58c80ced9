"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402
from softqn import experiments, solver, updates  # noqa: E402
from softqn.problems import load_libsvm  # noqa: E402

import dataset  # noqa: E402
from calib import NOMINAL_S, at_nominal  # noqa: E402
from check import check_outputs  # noqa: E402
from spans import SpanTable, Tracer, installed, per_layer  # noqa: E402
from worker import run_once  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload(
    name="tiny_qp",
    experiment="qp",
    params={"trials": 2, "n": 6, "iterations": 30},
    methods=("newton", "softqn", "spbfgs", "bfgs", "sgd"),
    rows_per_trial=31,
)


def _written(tmp_path):
    _, written = experiments.run_qp(TINY.params_for(7), str(tmp_path))
    return written


def _long(written):
    return next(p for p in written if p.endswith("_long.csv"))


def test_check_accepts_fresh_output(tmp_path):
    assert check_outputs(_written(tmp_path), TINY.methods, TINY.long_rows) == []


@pytest.mark.parametrize("cut", ["rows", "bytes"])
def test_check_rejects_truncated_csv(tmp_path, cut):
    written = _written(tmp_path)
    with open(_long(written), "rb") as fh:
        data = fh.read()
    if cut == "rows":
        data = b"".join(data.splitlines(keepends=True)[:-3])
    else:
        data = data[:-7]
    with open(_long(written), "wb") as fh:
        fh.write(data)
    assert check_outputs(written, TINY.methods, TINY.long_rows)


def test_check_rejects_nan_value(tmp_path):
    written = _written(tmp_path)
    with open(_long(written), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    cells = lines[5].split(",")
    lines[5] = ",".join(cells[:5] + ["nan"])
    with open(_long(written), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
    problems = check_outputs(written, TINY.methods, TINY.long_rows)
    assert problems and "nan" in problems[0]


def test_check_rejects_missing_summary_method(tmp_path):
    written = _written(tmp_path)
    assert check_outputs(written, TINY.methods + ("extra",), TINY.long_rows)


def test_raising_experiment_counts_its_trials_failed(tmp_path):
    broken = Workload("broken", "qp", TINY.params, ("softqn", "no_such_method"), 31)
    out = run_once(broken, 7, "", str(tmp_path / "out"))
    assert out["wall"] is None
    assert out["failed"] == out["attempted"] == 4


def _originals(tracer):
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracer.targets()]


def test_wrappers_are_installed_and_restored():
    tracer = Tracer()
    before = _originals(tracer)
    assert len(before) == len({(id(o), a) for o, a, _ in before})
    with pytest.raises(KeyError):
        with installed(tracer):
            for owner, attr, original in before:
                assert vars(owner)[attr] is not original
            raise KeyError("leave the block by an exception")
    for owner, attr, original in before:
        assert vars(owner)[attr] is original
    assert solver.soft_qn_update is updates.soft_qn_update


def test_layer_self_times_sum_to_at_most_traced_wall(tmp_path):
    tracer = Tracer()
    plain = run_once(TINY, 7, "", str(tmp_path / "a"))
    traced = run_once(TINY, 7, "", str(tmp_path / "b"), tracer)
    assert plain["problems"] == traced["problems"] == []
    assert plain["medians"] == traced["medians"]  # tracing does not change results
    table = SpanTable(tracer)
    layers = {n.split(".")[0] for n in table.names}
    assert layers == {"experiments", "bench", "problems", "solver", "updates", "noise"}
    assert sum(table.layer_self(layer) for layer in layers) <= traced["wall"]
    assert (table.self_time >= -1e-9).all()
    m = per_layer(table, tracer, [traced["wall"]], [plain["wall"]], traced["records"])
    shares = [m[f"{layer}.share"] for layer in ("updates", "problems", "noise", "solver", "bench")]
    assert sum(shares) <= 1.0
    assert m["solver.run.calls"] == len(TINY.methods) * TINY.params["trials"]
    assert m["updates.soft_qn_update.calls"] == TINY.params["trials"] * TINY.params["iterations"]
    assert m["solver.line_search_noisy.calls"] == 0


def test_dataset_is_deterministic_and_parses(tmp_path):
    a = dataset.generate(7, rows=300)
    assert a == dataset.generate(7, rows=300)
    assert a != dataset.generate(8, rows=300)
    path = tmp_path / "d.libsvm"
    path.write_bytes(a)
    data = load_libsvm(str(path))
    assert data.features.shape == (300, dataset.FEATURES)
    assert set(data.labels) == {-1.0, 1.0}


def test_dataset_cache_writes_full_size_file_once(tmp_path):
    path = dataset.ensure(str(tmp_path), 5)
    assert path == dataset.ensure(str(tmp_path), 5)
    with open(path, "rb") as fh:
        assert sum(1 for _ in fh) == dataset.ROWS


def test_at_nominal_cancels_the_machine_speed():
    assert at_nominal(3.0, NOMINAL_S) == pytest.approx(3.0)
    assert at_nominal(3.0, 0.5 * NOMINAL_S, 1.5 * NOMINAL_S) == pytest.approx(3.0)
    # a machine at half speed doubles both the call and the calibration
    assert at_nominal(6.0, 2 * NOMINAL_S) == pytest.approx(3.0)
