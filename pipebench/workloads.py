"""The benchmark's three workloads, on the default ``DistinctConfig`` route.

Each workload sets up, runs its timed phase, and checks the outputs
afterwards, outside every timer. The generated world of each workload is
fixed (its generator seed is part of the workload); the benchmark seed
varies what the world leaves open without changing how much work a run
does, so runs with different seeds stay comparable:

- ``table2``: the Table-1 world at generator seed 7; the timed phase
  fits (C searched by cross-validation) and then resolves and scores the
  ten names serially, in an order drawn from the benchmark seed;
- ``scale10-pool2``: the Table-1 names in a world ten times larger
  (generator seed 3); setup fits with a fixed C, the timed phase is
  ``run_resilient`` with two worker processes over the names in Table-1
  order, a name's latency running from the dispatch until its result
  reaches the caller. Its inputs do not depend on the benchmark seed:
  workers take names in order, so the order sets the makespan and which
  name pays a worker's first-call costs, and a seed-drawn order made
  per-name latencies spread more between runs;
- ``ingest-stream``: a venue-isolated world (generator seed 3) grown by
  a stream of community-local crawl increments drawn from the benchmark
  seed; setup fits with a fixed C and cold-resolves the tracked names,
  the timed phase ingests the stream one increment at a time.

No workload sets a route knob (``similarity_backend``,
``propagation_backend``, ``pair_pruning``, ``shared_memory``,
``shard_strategy``, ``degradation``, ``svm_retries``); only methodology
parameters (training-pair counts, ``svm_C``) and API arguments
(``workers=``) differ from the defaults.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro.data.deltas as deltas
import repro.data.generator as generator
import repro.data.world as world_mod
import repro.eval.experiment as experiment
import repro.eval.runner as runner
import repro.paths.trie  # noqa: F401  ProfileBuilder imports it lazily; load it before any timer
from repro import Distinct, DistinctConfig, GeneratorConfig
from repro.core.variants import variant_by_key
from repro.data.ambiguity import AmbiguousNameSpec
from repro.data.dblp_schema import PUBLICATIONS, PUBLISH
from repro.ingest import IngestEngine
from repro.obs import get_metrics, span
from repro.perf import active_segments
from repro.reldb.delta import Delta

from pipebench.layers import SETUP_ROOT, TIMED_ROOT

#: Route knobs the benchmark must never set (the tests hold it to this).
ROUTE_KNOBS = (
    "similarity_backend",
    "propagation_backend",
    "pair_pruning",
    "shared_memory",
    "shard_strategy",
    "degradation",
    "svm_retries",
)

#: Mean F1 below this fails a table2 or scale10-pool2 run (the paper
#: reports about 0.90 on Table 2).
F1_FLOOR = 0.8

#: The names the small (test) mode resolves instead of Table 1.
SMALL_SPEC = [
    AmbiguousNameSpec("Rakesh Kumar", (6, 5, 3)),
    AmbiguousNameSpec("Wei Wang", (5, 4, 3)),
    AmbiguousNameSpec("Hui Fang", (4, 3)),
]

#: Tracked names of ingest-stream: small enough that a cold resolve of
#: all of them stays a few seconds on the scalar default route.
INGEST_SPEC = [
    AmbiguousNameSpec("Wei Wang", (10, 8, 8, 6)),
    AmbiguousNameSpec("Rakesh Kumar", (14, 10, 8)),
    AmbiguousNameSpec("Bin Zhu", (12, 9, 6)),
    AmbiguousNameSpec("Lei Chen", (10, 8, 6, 6)),
    AmbiguousNameSpec("Wen Gao", (9, 7, 5)),
    AmbiguousNameSpec("Hui Fang", (6, 5, 4)),
]

#: Worker processes of scale10-pool2 (the host has two cores).
WORKERS = 2

#: Most unique-name authors an ingest-stream community draws from.
POOL_CAP = 12


@dataclass(frozen=True)
class Size:
    """How big one workload runs."""

    world_seed: int
    scale: float
    spec: list[AmbiguousNameSpec] | None  # None: Table 1
    config: dict[str, Any]
    setup_repeats: int = 1
    rare_entities: int = 120
    n_deltas: int = 0
    papers_per_delta: int = 0
    ambiguous_every: int = 4


SIZES: dict[str, dict[str, Size]] = {
    "table2": {
        "full": Size(
            world_seed=7, scale=1.0, spec=None,
            config=dict(n_positive=100, n_negative=100), setup_repeats=11,
        ),
        "small": Size(
            world_seed=5, scale=0.3, spec=SMALL_SPEC,
            config=dict(n_positive=40, n_negative=40, svm_C_grid=(1.0, 100.0)),
            setup_repeats=3,
        ),
    },
    "scale10-pool2": {
        "full": Size(
            world_seed=3, scale=10.0, spec=None, rare_entities=12, setup_repeats=2,
            config=dict(n_positive=150, n_negative=150, svm_C=10.0),
        ),
        "small": Size(
            world_seed=5, scale=0.6, spec=SMALL_SPEC,
            config=dict(n_positive=40, n_negative=40, svm_C=10.0),
        ),
    },
    "ingest-stream": {
        "full": Size(
            world_seed=3, scale=1.0, spec=INGEST_SPEC, setup_repeats=2, n_deltas=48,
            papers_per_delta=4, ambiguous_every=3,
            config=dict(n_positive=150, n_negative=150, svm_C=10.0),
        ),
        "small": Size(
            world_seed=5, scale=0.3, spec=SMALL_SPEC, setup_repeats=2, n_deltas=6,
            papers_per_delta=2, ambiguous_every=2,
            config=dict(n_positive=40, n_negative=40, svm_C=10.0),
        ),
    },
}


#: A measured ``(start, end)`` of ``time.perf_counter()``; run.py turns it
#: into host-corrected seconds.
Interval = tuple[float, float]


@dataclass
class Op:
    """One operation, one name resolved or one delta ingested, and when it ran."""

    label: str
    window: Interval
    error: str | None = None
    result: Any = None


@dataclass
class Outcome:
    """Everything a workload measured, before it becomes metrics.

    ``setup`` holds one interval per repeat of everything before the timed
    phase; setup time is their median. ``counters`` are the program's
    counters when the timed phase ended, before the output checks ran."""

    setup: list[Interval]
    fit: list[Interval]
    resolve: list[Interval]
    passes: list[Interval]
    ops: list[Op]
    f1: dict[str, float]
    problems: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)


def counter_snapshot() -> dict[str, float]:
    return dict(get_metrics().snapshot()["counters"])


def counter_value(name: str) -> float:
    return float(counter_snapshot().get(name, 0.0))


def timed_passes(seconds: float, one_pass: Callable[[], Any]) -> list[Any]:
    """Repeat ``one_pass`` until ``seconds`` have elapsed (at least once)."""
    results = []
    start = time.perf_counter()
    with span(TIMED_ROOT, bench=1):
        while True:
            results.append(one_pass())
            if time.perf_counter() - start >= seconds:
                break
    return results


def world_config(size: Size, **extra) -> GeneratorConfig:
    return GeneratorConfig(
        seed=size.world_seed, scale=size.scale, rare_entities=size.rare_entities, **extra
    )


def build_database(size: Size):
    world = generator.generate_world(world_config(size), size.spec)
    db, truth = world_mod.world_to_database(world)
    return world, db, truth


def repeated(size: Size, build: Callable[[], Any]) -> tuple[Any, list[Interval]]:
    """Run the whole, deterministic setup ``setup_repeats`` times.

    Returns the last result and every repeat's interval; setup reports
    their median, which a single setup on this noisy host does not repeat
    within a tenth. Each repeat starts from a fresh database, so lazily
    built indexes are paid in every one, as a user pays them once."""
    intervals = []
    built = None
    for _ in range(size.setup_repeats):
        # Free the previous repeat first, outside the timer, so neither its
        # memory nor its collection lands in the next one.
        built = None
        gc.collect()
        start = time.perf_counter()
        built = build()
        intervals.append((start, time.perf_counter()))
    return built, intervals


def timed(fn: Callable[[], Any]) -> tuple[Any, Interval]:
    start = time.perf_counter()
    result = fn()
    return result, (start, time.perf_counter())


def canonical(clusters) -> list[list[int]]:
    return sorted(sorted(int(row) for row in cluster) for cluster in clusters)


def partition_problem(name: str, clusters: list[list[int]], truth) -> str | None:
    """Why ``clusters`` is not a partition of the name's references, if so."""
    expected = sorted(truth.rows_of_name.get(name, []))
    flat = sorted(row for cluster in clusters for row in cluster)
    if flat != expected:
        return f"{name}: clusters cover {len(flat)} rows, truth has {len(expected)}"
    return None


def f1_problem(name: str, f1: float) -> str | None:
    if not 0.0 <= f1 <= 1.0 or f1 != f1:
        return f"{name}: F1 {f1!r} outside [0, 1]"
    return None


def _resolve_op(distinct: Distinct, name: str, truth) -> Op:
    start = time.perf_counter()
    try:
        resolution = distinct.cluster_prepared(distinct.prepare(name))
        scored = experiment.score_resolution(resolution, truth)
    except Exception as exc:  # an operation failure, counted, not fatal
        return Op(name, (start, time.perf_counter()), error=f"{type(exc).__name__}: {exc}")
    return Op(name, (start, time.perf_counter()),
              result=(canonical(resolution.clusters), scored.scores.f1))


# -- table2 -------------------------------------------------------------------


def table2(seed: int, seconds: float, size: Size) -> Outcome:
    with span(SETUP_ROOT, bench=1):
        (world, db, truth), setups = repeated(size, lambda: build_database(size))
    names = list(world.ambiguous_names)
    random.Random(seed).shuffle(names)
    config = DistinctConfig(**size.config)

    def one_pass():
        start = time.perf_counter()
        distinct = Distinct(config).fit(db)
        fitted = time.perf_counter()
        ops = [_resolve_op(distinct, name, truth) for name in names]
        end = time.perf_counter()
        return (start, fitted), (fitted, end), (start, end), ops

    passes = timed_passes(seconds, one_pass)
    outcome = Outcome(
        setup=setups,
        fit=[p[0] for p in passes],
        resolve=[p[1] for p in passes],
        passes=[p[2] for p in passes],
        ops=[op for p in passes for op in p[3]],
        f1={},
        counters=counter_snapshot(),
        info={
            "names": len(names),
            "refs": sum(len(truth.rows_of_name[n]) for n in names),
            "order": names,
        },
    )
    _check_resolved(outcome, truth)
    return outcome


def _check_resolved(outcome: Outcome, truth) -> None:
    """Partition + F1 checks per op, and identical clusters across passes."""
    first: dict[str, list[list[int]]] = {}
    for op in outcome.ops:
        if op.error is not None:
            continue
        clusters, f1 = op.result
        problem = partition_problem(op.label, clusters, truth) or f1_problem(op.label, f1)
        if problem is None and first.setdefault(op.label, clusters) != clusters:
            problem = f"{op.label}: clusters differ between passes"
        if problem is not None:
            op.error = problem
        outcome.f1.setdefault(op.label, f1)
    _check_f1_floor(outcome)


def _check_f1_floor(outcome: Outcome) -> None:
    if outcome.f1 and statistics.fmean(outcome.f1.values()) < F1_FLOOR:
        outcome.problems.append(
            f"mean F1 {statistics.fmean(outcome.f1.values()):.4f} below {F1_FLOOR}"
        )


# -- scale10-pool2 --------------------------------------------------------------


def scale10_pool2(seed: int, seconds: float, size: Size) -> Outcome:
    with span(SETUP_ROOT, bench=1):
        config = DistinctConfig(**size.config)
        fits = []

        def build_and_fit():
            world, db, truth = build_database(size)
            distinct, fit = timed(lambda: Distinct(config).fit(db))
            fits.append(fit)
            return world, truth, distinct

        (world, truth, distinct), setups = repeated(size, build_and_fit)
    names = list(world.ambiguous_names)
    variant = variant_by_key("distinct")
    segments_before = set(active_segments())
    deaths_before = counter_value("perf.parallel.worker_deaths")

    def one_pass():
        # All names are submitted when the pass starts, so a name's latency
        # runs from then until its result reaches the caller. Spans of
        # several seconds, these repeat between runs far better than the
        # sub-second worker-side task times, which also depend on which
        # worker (and which warm caches) a name happened to land on.
        arrivals: list[float] = []
        original = runner.ordered_process_map

        def observed(*args, **kwargs):
            outcomes = original(*args, **kwargs)
            try:
                for task in outcomes:
                    arrivals.append(time.perf_counter())
                    yield task
            finally:
                outcomes.close()

        runner.ordered_process_map = observed
        try:
            run, wall = timed(lambda: runner.run_resilient(
                distinct, truth, names, variant, min_sim=config.min_sim,
                policy="collect", workers=WORKERS,
            ))
        finally:
            runner.ordered_process_map = original
        return wall, run, [(wall[0], arrived) for arrived in arrivals]

    passes = timed_passes(seconds, one_pass)
    outcome = Outcome(
        setup=setups,
        fit=fits,
        resolve=[p[0] for p in passes],
        passes=[p[0] for p in passes],
        ops=[],
        f1={},
        counters=counter_snapshot(),
        info={
            "names": len(names),
            "refs": sum(len(truth.rows_of_name[n]) for n in names),
            "order": names,
        },
    )
    for wall, run, windows in passes:
        errors = {record.item: record for record in run.errors}
        results = {result.name: result for result in run.result.names}
        for name, window in zip(names, windows + [(wall[1], wall[1])] * len(names)):
            if name in errors:
                error = errors[name].error
                outcome.ops.append(Op(name, window,
                                      error=f"{type(error).__name__}: {error}"))
                continue
            result = results.get(name)
            if result is None:
                outcome.ops.append(Op(name, window, error=f"{name}: no result"))
                continue
            problem = f1_problem(name, result.scores.f1)
            if result.n_refs != len(truth.rows_of_name[name]):
                problem = f"{name}: {result.n_refs} refs resolved, truth has " \
                          f"{len(truth.rows_of_name[name])}"
            outcome.ops.append(Op(name, window, error=problem))
            outcome.f1.setdefault(name, result.scores.f1)
    deaths = counter_value("perf.parallel.worker_deaths") - deaths_before
    if deaths:
        outcome.problems.append(f"{deaths:.0f} worker deaths")
    leaked = set(active_segments()) - segments_before
    if leaked:
        outcome.problems.append(f"shared-memory segments left behind: {sorted(leaked)}")
    _check_f1_floor(outcome)
    return outcome


# -- ingest-stream ---------------------------------------------------------------


@dataclass
class Stream:
    """A base database plus the crawl increments that grow it, in order."""

    split: deltas.WorldSplit
    increments: list[Delta]
    papers: list[int]
    names: list[str]


def build_stream(seed: int, size: Size) -> Stream:
    """A venue-isolated world and ``n_deltas`` community-local increments.

    Communities take turns, starting at one drawn from ``seed``: increment
    ``k`` adds papers by (at most :data:`POOL_CAP`) authors who live in its
    community only and hold a name no one else holds, into proceedings
    those authors already publish in. Every ``ambiguous_every``-th
    increment also adds one paper by the next ambiguous entity in turn, a
    new reference of a tracked name. Each increment is grown with
    ``grow_world``; one ``split_world`` yields the base database and the
    whole stream, which is then cut into increments by paper.

    What an increment holds is drawn from its community and visit (or its
    entity), not from ``seed``, so seeds differ in the order increments
    arrive in, not in how much they add.
    """
    world = generator.generate_world(
        world_config(size, shared_conferences=0, p_shared_venue=0.0, p_foreign_venue=0.0),
        size.spec,
    )
    holders: dict[str, int] = {}
    for entity in world.entities:
        holders[entity.name] = holders.get(entity.name, 0) + 1
    communities = sorted({c for e in world.entities for c in e.communities})
    residents = {
        c: [
            e.entity_id for e in world.entities
            if e.kind != "ambiguous" and e.communities == (c,) and holders[e.name] == 1
        ][:POOL_CAP]
        for c in communities
    }
    ambiguous = [e.entity_id for e in world.entities if e.kind == "ambiguous"]
    first = random.Random(seed).randrange(len(communities))
    base = size.world_seed * 1_000_003
    grown = world
    papers = []
    for k in range(size.n_deltas):
        c = (first + k) % len(communities)
        visit = k // len(communities)
        n = size.papers_per_delta
        grown = deltas.grow_world(
            grown, n, seed=base + 1009 * c + visit, author_pool=residents[communities[c]]
        )
        if k % size.ambiguous_every == size.ambiguous_every - 1:
            j = k // size.ambiguous_every
            grown = deltas.grow_world(
                grown, 1, seed=base + 500_009 + j, author_pool=[ambiguous[j % len(ambiguous)]]
            )
            n += 1
        papers.append(n)
    split = deltas.split_world(grown, sum(papers))

    increment_of: dict[int, int] = {}
    tail = grown.papers[len(grown.papers) - sum(papers):]
    position = 0
    for k, n in enumerate(papers):
        for paper in tail[position: position + n]:
            increment_of[paper.paper_id] = k
        position += n
    increments = [Delta() for _ in papers]
    for relation, rows in split.delta.rows.items():
        if relation not in (PUBLICATIONS, PUBLISH):
            raise ValueError(f"a crawl increment added {relation} rows")
        for row in rows:
            increments[increment_of[row[0]]].add(relation, row)
    return Stream(split, increments, papers, list(world.ambiguous_names))


@dataclass
class Snapshot:
    """Everything byte-identity compares for one resolved name.

    ``benchmarks/bench_ingest.py`` keeps its own; the benchmark does not
    import that script, so its checks keep their meaning when it changes."""

    rows: list[int]
    clusters: list[list[int]]
    resem: bytes
    walk: bytes
    merges: list
    sims: bytes

    @classmethod
    def of(cls, resolution) -> "Snapshot":
        clustering = resolution.clustering
        return cls(
            rows=list(resolution.rows),
            clusters=canonical(resolution.clusters),
            resem=resolution.resem_matrix.tobytes(),
            walk=resolution.walk_matrix.tobytes(),
            merges=list(clustering.dendrogram.merges) if clustering else [],
            sims=(
                np.asarray(clustering.merge_similarities).tobytes() if clustering else b""
            ),
        )


def ingest_stream(seed: int, seconds: float, size: Size) -> Outcome:
    with span(SETUP_ROOT, bench=1):
        fits, colds = [], []

        def build_fit_resolve():
            stream = build_stream(seed, size)
            distinct, fit = timed(
                lambda: Distinct(DistinctConfig(**size.config)).fit(stream.split.base)
            )
            engine = IngestEngine(distinct)
            _, cold = timed(lambda: [engine.resolve(name) for name in stream.names])
            fits.append(fit)
            colds.append(cold)
            return stream, distinct, engine

        (stream, distinct, engine), setups = repeated(size, build_fit_resolve)

    refresh_counters = ("ingest.names_refreshed", "ingest.names_clean")
    before = {name: counter_value(name) for name in refresh_counters}

    def one_pass():
        # The stream mutates the database, so it plays once whatever the
        # time budget.
        ops = []
        start = time.perf_counter()
        for k, delta in enumerate(stream.increments):
            op_start = time.perf_counter()
            try:
                report = engine.ingest(delta)
            except Exception as exc:  # counted; later increments still run
                ops.append(Op(f"delta-{k}", (op_start, time.perf_counter()),
                              error=f"{type(exc).__name__}: {exc}"))
                continue
            ops.append(Op(f"delta-{k}", (op_start, time.perf_counter()),
                          result=report.names_refreshed))
        return (start, time.perf_counter()), ops

    wall, ops = timed_passes(0.0, one_pass)[0]
    at_end = counter_snapshot()
    refreshed = {name: at_end.get(name, 0.0) - before[name] for name in refresh_counters}
    outcome = Outcome(
        setup=setups,
        fit=fits,
        resolve=colds,
        passes=[wall],
        ops=ops,
        f1={},
        counters=at_end,
        info={
            "names": len(stream.names),
            "refs": sum(len(engine.resolution(n).rows) for n in stream.names),
            "deltas": len(stream.increments),
            "delta_papers": sum(stream.papers),
            "base_papers": stream.split.n_base_papers,
            "names_refreshed_per_delta": refreshed["ingest.names_refreshed"] / max(len(ops), 1),
        },
    )
    _check_stream(outcome, engine, distinct, stream)
    return outcome


def _check_stream(outcome: Outcome, engine: IngestEngine, distinct: Distinct,
                  stream: Stream) -> None:
    """Names the last refreshing delta touched must equal a cold resolve;
    F1 of every tracked name is scored on the post-stream database."""
    last = next((op for op in reversed(outcome.ops) if op.result), None)
    if last is not None:
        for name in last.result:
            cold = distinct.cluster_prepared(distinct.prepare(name))
            if Snapshot.of(engine.resolution(name)) != Snapshot.of(cold):
                last.error = f"{name}: ingested resolution differs from a cold resolve"
        outcome.info["checked_names"] = list(last.result)
    else:
        outcome.problems.append("no increment refreshed any tracked name")
    truth = stream.split.truth
    for name in stream.names:
        resolution = engine.resolution(name)
        f1 = experiment.score_resolution(resolution, truth).scores.f1
        problem = partition_problem(name, canonical(resolution.clusters), truth)
        problem = problem or f1_problem(name, f1)
        if problem is not None:
            outcome.problems.append(problem)
        outcome.f1[name] = f1


WORKLOADS: dict[str, Callable[[int, float, Size], Outcome]] = {
    "table2": table2,
    "scale10-pool2": scale10_pool2,
    "ingest-stream": ingest_stream,
}
