"""The traced run and the per-layer metrics read off its spans.

:func:`traced_run` repeats a workload with the layer wrappers installed,
tracing on and :class:`repro.obs.ResourceSampler` sampling RSS, then
derives every per-layer metric from the span tree and the program's
counters. A metric whose wrap target or counter no longer exists is left
out and listed in ``missing`` of the layer report, never a crash.
"""

from __future__ import annotations

import dataclasses
import json
import statistics

from repro.obs import (
    ResourceSampler,
    disable_tracing,
    enable_tracing,
    trace_payload,
    write_chrome_trace,
)

from pipebench import layers, workloads

#: name -> (numerator counters, denominator counters); a ratio over the
#: traced run's counter deltas. ``default`` applies when nothing happened.
RATIOS = {
    "perf.fanout_hit_frac": (("perf.fanout.hits",), ("perf.fanout.hits", "perf.fanout.misses"), 0.0),
    "perf.blocking_kept_frac": (
        ("blocking.pairs_kept",), ("blocking.pairs_kept", "blocking.pairs_pruned"), 1.0,
    ),
    "ingest.names_refreshed_frac": (
        ("ingest.names_refreshed",), ("ingest.names_refreshed", "ingest.names_clean"), 0.0,
    ),
    "ingest.pair_reuse_frac": (
        ("ingest.pairs_reused",), ("ingest.pairs_reused", "ingest.pairs_recomputed"), 0.0,
    ),
    "ingest.row_reuse_frac": (
        ("perf.ingest.rows_reused",), ("perf.ingest.rows_reused", "perf.ingest.rows_dirty"), 0.0,
    ),
}

#: name -> counters summed over the traced run.
COUNTS = {
    "ml.svm_fits": ("svm.fits",),
    "ml.svm_epochs": ("svm.iterations",),
    "paths.tuples_visited": ("propagation.tuples_visited",),
    "perf.fanout_evictions": ("perf.fanout.evictions",),
    "similarity.kernel_calls": ("similarity.resemblance.calls", "similarity.walk.calls"),
    "cluster.merges": ("cluster.merges",),
    "cluster.merges_replayed": ("cluster.merges_replayed",),
    "ingest.refs_dirty": ("ingest.refs_dirty",),
}


def traced_run(args, run, size, untraced, clock):
    """Run the workload again, traced; return (outcome, per-layer metrics)."""
    installed = layers.install()
    before = workloads.counter_snapshot()
    tracer = enable_tracing()
    try:
        with ResourceSampler(interval=0.05, tracer=tracer):
            # One setup repeat is enough to attribute setup time to layers.
            traced = run(args.seed, args.seconds, dataclasses.replace(size, setup_repeats=1))
    finally:
        disable_tracing()
        installed.restore()
    # Counters and self times cover the same work, setup and the timed
    # phase: the workload read the counters before its output checks, and
    # wrapped calls the checks make open roots outside both phases.
    after = traced.counters
    delta = {name: after[name] - before.get(name, 0.0) for name in after}

    phase_names = (layers.SETUP_ROOT, layers.TIMED_ROOT)
    roots = {root.name: root for root in tracer.roots if root.name in phase_names}
    phases = {name: layers.attribute(roots[name]) for name in roots}
    metrics: dict[str, tuple[float, str]] = {}
    missing = list(installed.missing)

    seconds: dict[str, float] = {}
    for nodes in phases.values():
        for name, value in layers.layer_seconds(nodes).items():
            seconds[name] = seconds.get(name, 0.0) + value
    for span_name, metric in layers.SELF_TIME_METRICS.items():
        if span_name in installed.span_names:
            metrics[metric] = (seconds.get(span_name, 0.0), "s")
        else:
            missing.append(metric)

    def total(names) -> float | None:
        if any(name not in delta for name in names):
            return None
        return sum(delta[name] for name in names)

    for metric, names in COUNTS.items():
        value = total(names)
        if value is None:
            missing.append(metric)
        else:
            metrics[metric] = (value, "count")
    for metric, (top, bottom, default) in RATIOS.items():
        num, den = total(top), total(bottom)
        if num is None or den is None:
            missing.append(metric)
        else:
            metrics[metric] = (num / den if den else default, "ratio")

    stats = installed.stats
    if "ml.svm_fit" in installed.span_names:
        metrics["ml.svm_unconverged_frac"] = (
            stats.svm_unconverged / stats.svm_fits if stats.svm_fits else 0.0, "ratio"
        )
    if "perf.parallel.dispatch" in installed.span_names:
        metrics["perf.parallel.dispatch_s"] = (stats.dispatch_wall_s, "s")
        metrics["perf.parallel.busy_s"] = (stats.busy_s, "s")
        metrics["perf.parallel.util"] = (
            stats.busy_s / stats.dispatch_capacity_s if stats.dispatch_capacity_s else 0.0,
            "ratio",
        )
    peaks = {layer: 0.0 for layer in layers.RSS_LAYERS}
    for nodes in phases.values():
        for layer, peak in layers.layer_peak_rss_mb(nodes).items():
            peaks[layer] = max(peaks[layer], peak)
    for layer, peak in peaks.items():
        metrics[f"{layer}.peak_rss_mb"] = (peak, "MB")

    timed_nodes = phases[layers.TIMED_ROOT]
    timed_wall = timed_nodes[0].end - timed_nodes[0].start
    metrics["trace.unattributed_frac"] = (timed_nodes[0].self_s / timed_wall, "ratio")
    metrics["trace.overhead_frac"] = (
        statistics.median(clock.seconds(*i) for i in traced.passes)
        / statistics.median(clock.seconds(*i) for i in untraced.passes) - 1.0,
        "ratio",
    )

    _write_reports(args, tracer, phases, missing)
    return traced, {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }


def _write_reports(args, tracer, phases, missing) -> None:
    stem = f"{args.workload}-seed{args.seed}"
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    payload = trace_payload(tracer)
    (out / f"{stem}.trace.json").write_text(json.dumps(payload) + "\n")
    write_chrome_trace(out / f"{stem}.chrome.json", payload)
    tables = [f"## {args.workload} (seed {args.seed}), traced run\n"]
    for root in (layers.TIMED_ROOT, layers.SETUP_ROOT):
        nodes = phases.get(root)
        if nodes:
            tables.append(layers.share_table(
                root, nodes[0].end - nodes[0].start, layers.layer_seconds(nodes), root
            ))
    if missing:
        tables.append("Missing (target or counter gone): " + ", ".join(missing) + "\n")
    (out / f"{stem}.layers.md").write_text("\n".join(tables))
