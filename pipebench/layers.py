"""Per-layer attribution for the traced run.

The traced run wraps calls into each layer's public functions in
:func:`repro.obs.span` spans. Every wrapper is installed on the name
where its caller looks it up (``repro.core.distinct.compute_pair_features``,
not only ``repro.core.features.compute_pair_features``), or on the class
for methods. Pool workers fork after the wrappers are installed, so
their spans come home through the existing worker-span grafting.

:func:`attribute` turns the recorded span forest into self times. Only
benchmark spans (those carrying the ``bench`` attribute) count; the
program's own spans are transparent, so their time lands on the nearest
enclosing benchmark span. A span's self time is its duration minus the
part of it that its child spans cover. Where worker spans run
concurrently, each instant is split evenly among the innermost open
spans, so the self times of all spans under a root always add up to the
root's wall time. Calls of a hot target too short to get a span of
their own are still credited to that target's span name.

A target that no longer exists is reported in :attr:`Installed.missing`
and its metric is left out; it never raises.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs import Span, get_tracer, span
from repro.obs.sampler import current_rss_bytes

#: Calls of hot leaf targets shorter than this are not recorded as spans.
#: ``ProfileBuilder.profiles_for`` is called twice per pair, and almost
#: every call is a cache hit. Their durations are summed instead into the
#: counter ``HOT_PREFIX + span name`` of the innermost open span, and
#: :func:`attribute` moves that time from the span to the target's name.
HOT_CALL_FLOOR_S = 2e-4
HOT_PREFIX = "bench.hot_s:"

#: (owner, attribute, span name, kind). ``owner`` is ``module`` or
#: ``module:Class``; ``kind`` is ``call``, ``hot`` (a span only for calls
#: above :data:`HOT_CALL_FLOOR_S`) or ``dispatch`` (a function returning
#: an iterator of ``TaskOutcome``).
TARGETS: list[tuple[str, str, str, str]] = [
    ("repro.data.generator", "generate_world", "data.generate", "call"),
    ("repro.data.deltas", "grow_world", "data.generate", "call"),
    ("repro.data.deltas", "split_world", "data.generate", "call"),
    ("repro.data.world", "world_to_database", "reldb.load", "call"),
    ("repro.data.deltas", "world_to_database", "reldb.load", "call"),
    ("repro.core.distinct", "build_training_set", "ml.training_set", "call"),
    ("repro.core.distinct", "cross_validate", "ml.cv", "call"),
    ("repro.ml.svm:LinearSVM", "fit", "ml.svm_fit", "call"),
    ("repro.paths.profiles:ProfileBuilder", "profiles_for", "paths.propagate", "hot"),
    ("repro.paths.profiles:ProfileBuilder", "matrices_for", "paths.propagate", "call"),
    ("repro.ingest.engine", "batch_profile_matrices", "paths.propagate", "call"),
    ("repro.core.distinct", "compute_pair_features", "core.features", "call"),
    ("repro.ingest.engine", "compute_pair_features", "core.features", "call"),
    ("repro.core.distinct", "all_pairs", "core.pair_loops", "call"),
    ("repro.core.distinct", "pair_matrix", "core.pair_loops", "call"),
    ("repro.ingest.engine", "all_pairs", "core.pair_loops", "call"),
    ("repro.ingest.engine", "pair_matrix", "core.pair_loops", "call"),
    ("repro.core.features", "intersecting_pair_mask", "perf.blocking", "call"),
    ("repro.core.features", "minhash_refined_mask", "perf.blocking", "call"),
    ("repro.cluster.agglomerative:AgglomerativeClusterer", "cluster", "cluster", "call"),
    ("repro.cluster.agglomerative:AgglomerativeClusterer", "resume", "cluster", "call"),
    ("repro.eval.runner", "ordered_process_map", "perf.parallel.dispatch", "dispatch"),
    ("repro.ingest.engine", "ordered_process_map", "perf.parallel.dispatch", "dispatch"),
    ("repro.ingest.engine:IngestEngine", "apply", "ingest.apply", "call"),
    ("repro.ingest.engine", "apply_delta", "reldb.apply_delta", "call"),
    ("repro.ingest.engine:IngestEngine", "refresh", "ingest.refresh", "call"),
    ("repro.eval.experiment", "score_resolution", "eval.score", "call"),
    ("repro.eval.runner", "score_resolution", "eval.score", "call"),
]

#: Span name -> the per-layer self-time metric it feeds.
SELF_TIME_METRICS = {
    "data.generate": "data.generate_s",
    "reldb.load": "reldb.load_s",
    "ml.training_set": "ml.training_set_s",
    "ml.cv": "ml.cv_s",
    "ml.svm_fit": "ml.svm_fit_s",
    "paths.propagate": "paths.propagate_s",
    "core.features": "core.features_self_s",
    "core.pair_loops": "core.pair_loops_s",
    "perf.blocking": "perf.blocking_s",
    "cluster": "cluster.s",
    "ingest.apply": "ingest.apply_s",
    "reldb.apply_delta": "reldb.apply_delta_s",
    "ingest.refresh": "ingest.refresh_s",
    "eval.score": "eval.score_s",
    "perf.parallel.dispatch": "perf.parallel.dispatch_self_s",
}

#: Layers (the first part of a span name) that get a ``<layer>.peak_rss_mb``.
RSS_LAYERS = ("data", "reldb", "ml", "paths", "core", "cluster", "perf", "ingest", "eval")

#: Roots the benchmark opens around its phases.
SETUP_ROOT = "bench.setup"
TIMED_ROOT = "bench.timed"


@dataclass
class CallStats:
    """What the wrappers observe beyond span timings."""

    svm_fits: int = 0
    svm_unconverged: int = 0
    dispatch_wall_s: float = 0.0
    dispatch_capacity_s: float = 0.0  # workers x dispatch wall
    busy_s: float = 0.0


@dataclass
class Installed:
    """The wrappers in place; :meth:`restore` puts the originals back."""

    stats: CallStats = field(default_factory=CallStats)
    missing: list[str] = field(default_factory=list)
    span_names: set[str] = field(default_factory=set)
    _undo: list[tuple[Any, str, Any]] = field(default_factory=list)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def _resolve_owner(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    obj: Any = importlib.import_module(module_name)
    if class_name:
        obj = getattr(obj, class_name)
    return obj


def _call_wrapper(original: Callable, name: str, stats: CallStats) -> Callable:
    def wrapper(*args, **kwargs):
        with span(name, bench=1) as sp:
            result = original(*args, **kwargs)
            if isinstance(sp, Span):
                # The sampler runs in the benchmark process only: a span
                # that ran in a pool worker gets that worker's RSS here.
                sp.attrs["peak_rss_bytes"] = max(
                    sp.attrs.get("peak_rss_bytes", 0), current_rss_bytes()
                )
        if name == "ml.svm_fit":
            svm = args[0]
            stats.svm_fits += 1
            budget = svm.max_epochs * 2 ** (getattr(svm, "n_fit_attempts_", 1) - 1)
            stats.svm_unconverged += int((svm.n_epochs_ or 0) >= budget)
        return result

    return wrapper


def _hot_wrapper(original: Callable, name: str) -> Callable:
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        end = time.perf_counter()
        tracer = get_tracer()
        if tracer is None:
            return result
        if end - start >= HOT_CALL_FLOOR_S:
            # Grafted after the fact, so the sampler never saw it open.
            sp = Span(name, {"bench": 1, "peak_rss_bytes": current_rss_bytes()})
            sp.start, sp.end = start, end
            tracer.graft(sp)
        else:
            tracer.current().add(HOT_PREFIX + name, end - start)
        return result

    return wrapper


def _dispatch_wrapper(original: Callable, name: str, stats: CallStats) -> Callable:
    def wrapper(fn, payload, items, workers, *args, **kwargs):
        outcomes = original(fn, payload, items, workers, *args, **kwargs)

        def timed_outcomes():
            # Entered by hand: a consumer's close() must end the span
            # cleanly, not mark it failed with GeneratorExit.
            ctx = span(name, bench=1, workers=workers)
            ctx.__enter__()
            start = time.perf_counter()
            try:
                for outcome in outcomes:
                    stats.busy_s += outcome.seconds
                    yield outcome
            finally:
                close = getattr(outcomes, "close", None)
                if close is not None:
                    close()
                wall = time.perf_counter() - start
                stats.dispatch_wall_s += wall
                stats.dispatch_capacity_s += wall * workers
                ctx.__exit__(None, None, None)

        return timed_outcomes()

    return wrapper


def install(targets=TARGETS) -> Installed:
    """Wrap every target that exists; list the ones that do not."""
    installed = Installed()
    for owner_name, attribute, name, kind in targets:
        label = f"{owner_name}.{attribute}"
        try:
            owner = _resolve_owner(owner_name)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            installed.missing.append(label)
            continue
        if kind == "hot":
            wrapper = _hot_wrapper(original, name)
        elif kind == "dispatch":
            wrapper = _dispatch_wrapper(original, name, installed.stats)
        else:
            wrapper = _call_wrapper(original, name, installed.stats)
        installed._undo.append((owner, attribute, original))
        installed.span_names.add(name)
        setattr(owner, attribute, wrapper)
    return installed


# -- self-time attribution ----------------------------------------------------


@dataclass
class Node:
    """One benchmark span with its nearest benchmark ancestor.

    ``alone_s`` is the time the node was an innermost open span, before
    any split among concurrent spans; ``hot`` sums, by span name, the
    short hot calls made while it (or a program span under it) was open.
    """

    span: Span
    parent: int | None
    depth: int
    start: float
    end: float
    self_s: float = 0.0
    alone_s: float = 0.0
    hot: dict[str, float] = field(default_factory=dict)


def flatten(root: Span) -> list[Node]:
    """Benchmark spans under ``root`` (``root`` first), program spans skipped.

    A child interval is clamped to its benchmark parent's, so clock jitter
    between processes cannot make a child outlive its parent.
    """
    nodes: list[Node] = []

    def visit(sp: Span, parent: int | None, depth: int) -> None:
        if sp.end is None:
            return
        here = parent
        if parent is None or sp.attrs.get("bench"):
            start, end = sp.start, sp.end
            if parent is not None:
                start = min(max(start, nodes[parent].start), nodes[parent].end)
                end = max(min(end, nodes[parent].end), start)
            nodes.append(Node(sp, parent, depth, start, end))
            here = len(nodes) - 1
            depth += 1
        hot = nodes[here].hot
        for key, seconds in sp.counters.items():
            if key.startswith(HOT_PREFIX):
                name = key[len(HOT_PREFIX):]
                hot[name] = hot.get(name, 0.0) + seconds
        for child in sp.children:
            visit(child, here, depth)

    visit(root, None, 0)
    return nodes


def attribute(root: Span) -> list[Node]:
    """Self time of every benchmark span under ``root``.

    A sweep over span boundaries: between two boundaries the elapsed time
    goes to the innermost open spans, split evenly when several run at
    once (workers). Serially this is duration minus covered child time;
    in every case the self times sum to the root's duration.

    A node's short hot calls then move out of its self time into a child
    node of their own, named after the hot target, scaled by the share
    the sweep gave the node where it overlapped other spans. That child's
    interval is nominal: it starts with its parent and lasts the moved
    time.
    """
    nodes = flatten(root)
    events = []
    for i, node in enumerate(nodes):
        events.append((node.start, 1, node.depth, i))
        events.append((node.end, 0, -node.depth, i))
    events.sort()
    is_open = [False] * len(nodes)
    open_children = [0] * len(nodes)
    leaves: set[int] = set()
    previous = events[0][0] if events else 0.0
    for when, opening, _, i in events:
        if leaves and when > previous:
            share = (when - previous) / len(leaves)
            for leaf in leaves:
                nodes[leaf].self_s += share
                nodes[leaf].alone_s += when - previous
        previous = max(previous, when)
        parent = nodes[i].parent
        if opening:
            is_open[i] = True
            leaves.add(i)
            if parent is not None and is_open[parent]:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open[i] = False
            leaves.discard(i)
            if parent is not None and is_open[parent]:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    for i in range(len(nodes)):
        node = nodes[i]
        if node.alone_s <= 0.0:
            continue
        scale = node.self_s / node.alone_s
        for name, seconds in node.hot.items():
            moved = min(node.self_s, seconds * scale)
            node.self_s -= moved
            sp = Span(name, {"bench": 1})
            sp.start, sp.end = node.start, node.start + moved
            nodes.append(Node(sp, i, node.depth + 1, sp.start, sp.end, self_s=moved))
    return nodes


def layer_seconds(nodes: list[Node]) -> dict[str, float]:
    """Self seconds per span name (the root included, under its own name)."""
    out: dict[str, float] = {}
    for node in nodes:
        out[node.span.name] = out.get(node.span.name, 0.0) + node.self_s
    return out


def layer_peak_rss_mb(nodes: list[Node]) -> dict[str, float]:
    """Highest RSS seen while a layer's span was open, in MB: sampled in
    the benchmark process, stamped at close in a worker."""
    out = {layer: 0.0 for layer in RSS_LAYERS}
    for node in nodes:
        layer = node.span.name.split(".", 1)[0]
        peak = node.span.attrs.get("peak_rss_bytes")
        if layer in out and peak:
            out[layer] = max(out[layer], peak / 2**20)
    return out


def share_table(title: str, wall_s: float, seconds: dict[str, float], root: str) -> str:
    """Markdown table of each layer's self time and share of a phase's wall."""
    lines = [
        f"### {title}: {wall_s:.3f} s wall",
        "",
        "| layer span | self s | share of wall |",
        "|---|---:|---:|",
    ]
    for name, value in sorted(seconds.items(), key=lambda kv: -kv[1]):
        label = "(unattributed)" if name == root else name
        share = value / wall_s if wall_s > 0 else 0.0
        lines.append(f"| {label} | {value:.3f} | {share:.1%} |")
    return "\n".join(lines) + "\n"
