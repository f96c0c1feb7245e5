"""Tests of the benchmark itself: span arithmetic and a tiny run of every workload.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import harness
import tracing
import workloads
from tracing import Span, Tracer

BENCH = Path(__file__).resolve().parents[1]
RUN = BENCH / "run.py"
SRC = BENCH.parent / "src"


# ----------------------------------------------------------------- span arithmetic

def test_self_time_subtracts_children():
    spans = [
        Span("cli.train", 0.0, 10.0, None),
        Span("cascade.read_events", 1.0, 3.0, 0),
        Span("mechclass.train", 3.5, 9.0, 0),
        Span("mechclass.predict", 8.0, 8.5, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.0, 5.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 5.0, 0),
        Span("b", 4.0, 6.0, 0),
        Span("c", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_descendant_self_times_sum_to_each_root():
    spans = [
        Span("cli.simulate", 0.0, 7.0, None),
        Span("cascade.ensemble", 0.5, 5.0, 0),
        Span("cascade.realization", 0.6, 2.0, 1),
        Span("cascade.realization", 2.0, 4.1, 1),
        Span("cascade.dedup", 4.2, 4.9, 1),
        Span("cli.train", 8.0, 9.0, None),
    ]
    selfs = tracing.self_times(spans)
    assert tracing.root_residuals(spans, selfs) == pytest.approx({0: 0.0, 5: 0.0})


def test_tracing_overhead_nets_out_start_up():
    # untraced child: 1.2 s start-up + 3.0 s work; traced in-process: 3.1 s
    assert tracing.tracing_overhead(3.1, 4.2, 1.2) == pytest.approx(0.1)


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    module = types.ModuleType("fake")

    def double(x):
        with tracer.span("inner"):
            return x * 2

    module.double = double
    tracer.wrap([module], "double", "outer", lambda counts, a, r: counts.update(seen=a["x"]))
    with tracer.span("root"):
        assert module.double(3) == 6
    tracer.restore()
    assert [s.name for s in tracer.spans] == ["root", "outer", "inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert tracer.counts["seen"] == 3
    assert module.double is double


def test_layer_metrics_report_every_name():
    tracer = Tracer()
    with tracer.span("cli.match"):
        pass
    out = tracing.layer_metrics(tracer, import_s=1.0, overhead_s=0.1)
    assert set(out) == set(tracing.LAYER_METRICS)
    assert out["cascade.realizations"]["value"] == 0


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


# ----------------------------------------------------------------- tiny end-to-end runs

def _run(args, run=RUN, cwd=None):
    return subprocess.run(
        [sys.executable, str(run), *args], capture_output=True, text=True, timeout=170, cwd=cwd
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_reports_end_to_end_metrics(workload, tmp_path):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0",
                 "--tiny", "--work", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    steps = [s for s, _ in workloads.steps(workload, 3, tiny=True)]
    assert all(f"{s}_s" in record["detail"] for s in steps)
    assert record["environment"]["threads_env"]["CONTAGION_LAB_THREADS"] is None
    assert record["environment"]["threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert not [p for p in tmp_path.iterdir() if p.name != "results"]  # run dirs removed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_repetitions_are_byte_identical(workload, tmp_path):
    run = harness.Run(workload, 5, SRC, tmp_path, tiny=True)
    run.setup()
    first, second = run.rep(0), run.rep(1)
    run.compare(first, second, "rep-1")
    assert not run.problems
    assert first.digests == second.digests and len(first.digests) >= 6
    run.cleanup()


def test_tiny_traced_run_reports_every_layer(tmp_path, monkeypatch):
    monkeypatch.setenv("CONTAGION_LAB_THREADS", "2")  # must not reach the children
    proc = _run(["--workload", "readme", "--seed", "4", "--seconds", "1", "--trace", "1",
                 "--tiny", "--work", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["cascade.realizations"]["value"] == workloads.sizes("readme", True)["realizations"]
    assert metrics["mechclass.train_s"]["value"] > 0
    assert metrics["matchlab.pairs"]["value"] == 0


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "readme", "--seed", "1", "--seconds", "1", "--trace", "0"],
                run=tmp_path / "bench" / "run.py", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
