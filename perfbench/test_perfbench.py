"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest perfbench -q"""

import json
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import Op


def test_failing_operation_is_counted_not_raised(tmp_path):
    runner = run.Runner(run.child_env())
    ok, bad = tmp_path / "ok", tmp_path / "bad"
    ops = [
        Op("evap.schedule", ["evap", "schedule", "--out", str(bad), "--set", "beams.power_w=-1"], bad, lambda out: None),
        Op("evap.schedule", ["evap", "schedule", "--out", str(ok)], ok,
           lambda out: None if (out / "schedule.csv").is_file() else "no schedule.csv"),
        Op("evap.schedule", ["evap", "schedule", "--out", str(ok)], ok, lambda out: "check rejects the output"),
    ]
    log = []
    wall, cpu, rss = run.run_pass(runner, ops, log)
    assert [op["exit"] for op in log] == [2, 0, 0]
    assert log[0]["failure"].startswith("exit code 2")
    assert log[1]["failure"] is None
    assert log[2]["failure"] == "check rejects the output"
    assert wall > 0 and cpu > 0 and rss > 0


def test_unreadable_output_is_a_failed_check(tmp_path):
    op = workloads.painted_ramp(1, tmp_path)[0]
    assert workloads.run_check(op).startswith("unreadable output: FileNotFoundError")


def test_misalign_check_uses_acceptance_bounds(tmp_path):
    def write(ratios):
        (tmp_path / "misalign_sweep.csv").write_text(
            "offset_um,depth_ratio\n" + "\n".join(f"{i},{r}" for i, r in enumerate(ratios))
        )
        return workloads.check_misalign(tmp_path)

    assert write([0.6, 0.9, 1.0, 0.9, 0.6]) is None
    assert "even" in write([0.6, 0.9, 1.0, 0.9, 0.5])
    assert "fall" in write([0.9, 0.9, 1.0, 0.9, 0.9])
    assert "zero offset" in write([0.6, 0.9, 0.99, 0.9, 0.6])


def test_tracer_patches_from_imports_and_restores():
    import codtsim.cli
    import codtsim.evap
    import codtsim.painting
    import codtsim.trapchar

    original = codtsim.trapchar.characterize
    private = codtsim.trapchar._ray_barrier
    t = tracer.Tracer()
    wrapped = t.install()
    try:
        assert {"trapchar.characterize", "painting.characterize_sites", "kernels.intensity_sum"} <= set(wrapped)
        for module in (codtsim.trapchar, codtsim.painting, codtsim.evap):
            assert module.characterize.__wrapped__ is original
        assert codtsim.cli.characterize_sites.__wrapped__ is not None
        assert codtsim.trapchar._ray_barrier is private
        assert not [name for name in run.TRACED if name not in wrapped]
    finally:
        t.restore()
    assert codtsim.painting.characterize is original
    assert codtsim.evap.characterize is original


def test_removed_function_is_reported_absent(monkeypatch):
    import codtsim.trapchar

    monkeypatch.delattr(codtsim.trapchar, "fd_hessian")
    t = tracer.Tracer()
    wrapped = t.install()
    t.restore()
    assert [name for name in run.TRACED if name not in wrapped] == ["trapchar.fd_hessian"]


def test_spans_record_counts_and_nesting():
    import numpy as np
    import codtsim.kernels

    records = np.zeros((4, 19))
    records[:, 3] = records[:, 7] = records[:, 11] = 1.0  # unit axes
    records[:, 12:18] = 1e-5
    records[2:, 18] = 1.0  # two distinct powers, one geometry
    t = tracer.Tracer()
    t.install()
    try:
        t.op = 7
        codtsim.kernels.intensity_sum(np.zeros((3, 3)), records)
        codtsim.kernels.intensity_sum(np.zeros((5, 3)), records)
    finally:
        t.restore()
    (a, b) = t.spans
    assert a[tracer.NAME] == "kernels.intensity_sum" and a[tracer.OP] == 7 and a[tracer.PARENT] == -1
    assert a[tracer.COUNTS] == {"evals": 12, "records": 4, "distinct_records": 1}
    assert b[tracer.COUNTS] == {"evals": 20}  # same array: distinct records counted once


def test_self_time_and_innermost_caller():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["trapchar.characterize", 1.0, 9.0, 0, 0, {"valid": 1}],
        ["kernels.intensity_sum", 2.0, 4.0, 1, 0, {"evals": 100}],
        ["trapchar.fd_gradient", 5.0, 7.0, 1, 0, None],
        ["kernels.intensity_sum", 5.5, 6.5, 3, 0, {"evals": 6}],
    ]
    assert tracer.self_times(spans) == [2.0, 4.0, 2.0, 1.0, 1.0]
    agg = tracer.aggregate(spans)
    assert agg["names"]["kernels.intensity_sum"]["calls"] == 2
    assert agg["names"]["kernels.intensity_sum"]["counts"] == {"evals": 106}
    assert agg["by_caller"]["trapchar.characterize"]["evals"] == 100
    assert agg["by_caller"]["trapchar.fd_gradient"]["evals"] == 6
    assert tracer.count_within(spans, "cli.main", "kernels.intensity_sum") == 2
    assert tracer.count_within(spans, "trapchar.fd_gradient", "kernels.intensity_sum") == 1


def test_parse_importtime_sums_packages_without_a_line():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       scipy.spatial.distance",
            "import time:       500 |       1000 |     scipy.integrate",
            "import time:        10 |         10 |       scipy.ndimage._a",
            "import time:        20 |         50 |     scipy.ndimage._b",
            "import time:        30 |         30 |     scipy.ndimage.filters",
            "import time:       900 |       2000 |   codtsim.evap",
            "import time:       100 |       3000 | codtsim.cli",
        ]
    )
    got = run.parse_importtime(stderr)
    assert got["codtsim.cli"] == pytest.approx(3000e-6)
    assert got["scipy.integrate"] == pytest.approx(1000e-6)
    assert got["scipy.ndimage"] == pytest.approx(80e-6)
    assert got["scipy.spatial"] == pytest.approx(100e-6)
    assert got["scipy.optimize"] == 0.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_in_process_failures_are_counted(tmp_path):
    import codtsim.cli

    out = str(tmp_path)
    assert tracer._call_main(codtsim.cli.main, ["evap", "schedule", "--out", out, "--set", "beams.power_w=-1"]) == (
        2,
        "exit code 2",
    )
    assert tracer._call_main(codtsim.cli.main, ["no-such-group", "x"]) == (2, "exit code 2")
    assert tracer._call_main(codtsim.cli.main, ["evap", "schedule", "--out", out]) == (0, None)


def test_kernel_micro_run_and_path():
    assert tracer.kernel_micro_run(reps=1) > 0
    assert tracer.kernel_path().startswith("codtsim.")
