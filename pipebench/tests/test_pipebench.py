"""Tests of the benchmark itself, on the small size of every workload.

Run from the repository root::

    python3 -m pytest pipebench/tests -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.obs import Span, disable_tracing, enable_tracing  # noqa: E402

from pipebench import layers, run, workloads  # noqa: E402
from pipebench.hostclock import MIN_SAMPLES, REFERENCE_S, HostClock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, out_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--small", "--out-dir", str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_run_emits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_no_workload_sets_a_route_knob():
    for sizes in workloads.SIZES.values():
        for size in sizes.values():
            assert not set(size.config) & set(workloads.ROUTE_KNOBS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    result = bench(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    result = bench(workload, 1, tmp_path)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.10
    stem = f"{workload}-seed5"
    for suffix in (".trace.json", ".chrome.json", ".layers.md"):
        assert (tmp_path / f"{stem}{suffix}").is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_time_arithmetic_on_a_traced_workload(workload):
    installed = layers.install()
    tracer = enable_tracing()
    try:
        outcome = workloads.WORKLOADS[workload](5, 0.0, workloads.SIZES[workload]["small"])
    finally:
        disable_tracing()
        installed.restore()
    if workload == "ingest-stream":
        # The counters end with the timed phase: the cold resolves of the
        # output checks after it must not reach them.
        key = "similarity.resemblance.calls"
        assert outcome.counters[key] < workloads.counter_snapshot()[key]
    roots = [r for r in tracer.roots if r.name in (layers.SETUP_ROOT, layers.TIMED_ROOT)]
    assert sorted(r.name for r in roots) == [layers.SETUP_ROOT, layers.TIMED_ROOT]
    for root in roots:
        nodes = layers.attribute(root)
        assert len(nodes) > 1
        for node in nodes[1:]:
            parent = nodes[node.parent]
            assert node.span.duration <= parent.span.duration + 1e-6
            if node.span.name == "core.features":
                # Spans that ran in a pool worker carry its RSS too.
                assert node.span.attrs.get("peak_rss_bytes", 0) > 0
        assert all(node.self_s >= 0.0 for node in nodes)
        named = sum(node.self_s for node in nodes[1:])
        unattributed = nodes[0].self_s
        assert named + unattributed == pytest.approx(root.duration, rel=1e-9)


def _span(name, start, end, children=(), bench=True):
    sp = Span(name, {"bench": 1} if bench else {})
    sp.start, sp.end = start, end
    sp.children = list(children)
    return sp


def test_attribute_serial_self_time_is_duration_minus_children():
    leaf = _span("b", 2.0, 3.0)
    mid = _span("a", 1.0, 5.0, [leaf])
    root = _span("root", 0.0, 10.0, [mid])
    nodes = {n.span.name: n.self_s for n in layers.attribute(root)}
    assert nodes == pytest.approx({"root": 6.0, "a": 3.0, "b": 1.0})


def test_attribute_splits_concurrent_children_and_skips_program_spans():
    worker_a = _span("w", 1.0, 5.0)
    worker_b = _span("w", 3.0, 7.0)
    program = _span("resolve.prepare", 1.0, 7.0, [worker_a, worker_b], bench=False)
    dispatch = _span("dispatch", 0.0, 8.0, [program])
    root = _span("root", 0.0, 10.0, [dispatch])
    nodes = layers.attribute(root)
    by_name = {}
    for node in nodes:
        by_name[node.span.name] = by_name.get(node.span.name, 0.0) + node.self_s
    # 1-3 and 5-7: one worker alone; 3-5: two workers share the second.
    assert by_name == pytest.approx({"root": 2.0, "dispatch": 2.0, "w": 6.0})
    assert sum(by_name.values()) == pytest.approx(10.0)


def test_short_hot_calls_move_to_their_target():
    key = layers.HOT_PREFIX + "paths.propagate"
    program = _span("resolve.prepare", 2.0, 4.0, bench=False)
    program.counters[key] = 0.5
    features = _span("core.features", 1.0, 5.0, [program])
    features.counters[key] = 1.0
    root = _span("root", 0.0, 10.0, [features])
    seconds = layers.layer_seconds(layers.attribute(root))
    assert seconds == pytest.approx(
        {"root": 6.0, "core.features": 2.5, "paths.propagate": 1.5}
    )

    # Where spans overlap, a node keeps a share of its time (3 s of the
    # 4 s it was innermost here), and gives up its hot time by that share.
    worker_a = _span("w", 1.0, 5.0)
    worker_a.counters[key] = 2.0
    worker_b = _span("w", 3.0, 7.0)
    root = _span("root", 0.0, 10.0, [worker_a, worker_b])
    seconds = layers.layer_seconds(layers.attribute(root))
    assert seconds["paths.propagate"] == pytest.approx(1.5)
    assert sum(seconds.values()) == pytest.approx(10.0)


def test_child_outliving_its_parent_is_clamped():
    child = _span("c", 1.0, 12.0)
    root = _span("root", 0.0, 10.0, [child])
    nodes = {n.span.name: n.self_s for n in layers.attribute(root)}
    assert nodes == pytest.approx({"root": 1.0, "c": 9.0})


def test_host_clock_corrects_by_the_median_reference_in_the_interval():
    clock = HostClock()
    clock.times = [float(t) for t in range(100)]
    clock.samples = [REFERENCE_S] * 50 + [2 * REFERENCE_S] * 50
    assert clock.seconds(60.0, 99.0) == pytest.approx(39.0 / 2)
    assert clock.seconds(0.0, 45.0) == pytest.approx(45.0)
    # Three samples inside (49, 50, 51); widened one on each side at a
    # time until there are MIN_SAMPLES.
    assert MIN_SAMPLES == 41
    assert clock.reference(49.0, 51.0) == statistics.median(clock.samples[30:71])
    assert HostClock().factor(0.0, 1.0) == 1.0


def test_host_clock_samples_while_open():
    with HostClock(interval=0.001) as clock:
        time.sleep(0.2)
    assert len(clock.samples) > 10
    assert all(sample > 0 for sample in clock.samples)


def test_missing_target_is_listed_not_raised():
    installed = layers.install([
        ("repro.core.distinct", "no_such_function", "core.gone", "call"),
        ("repro.no_such_module", "f", "core.gone", "call"),
    ])
    try:
        assert installed.missing == [
            "repro.core.distinct.no_such_function", "repro.no_such_module.f",
        ]
        assert installed.span_names == set()
    finally:
        installed.restore()
