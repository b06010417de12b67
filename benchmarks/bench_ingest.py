"""Delta-ingest benchmark: incremental re-resolution vs cold refit.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_ingest.py [--tiny] [--out PATH]

A bibliographic database grows in batches; §5's DBLP snapshot is one
crawl increment away from the next. This bench measures what the
:mod:`repro.ingest` engine saves when a small, localized batch of new
papers lands on an already-resolved world:

1. **setup** — a generated world grown by a ≤10% "crawl increment"
   (:func:`repro.data.deltas.grow_world`: new papers by the coauthor
   circle of one small ambiguous name, plus a few by one of its
   entities, all into existing proceedings), split into a base database
   and a :class:`repro.reldb.Delta`; the pipeline is fitted on the base
   and every ambiguous name cold-resolved once (the steady state a
   long-running service holds);
2. **exact** — wall time of ``IngestEngine.ingest(delta)`` (the
   dirty-row → dirty-ref → dirty-pair → dirty-merge ladder) against a
   cold refit (fresh ``prepare`` + ``cluster_prepared`` per name on the
   post-delta database). The refreshed resolutions must equal the cold
   ones byte-for-byte — rows, clusters, pair matrices, dendrogram — and
   the full run additionally gates the headline claim: **≥5x** faster;
3. **parallel** — the same ingest at ``--workers`` on an identical
   second base; per-name results must be byte-identical to the serial
   ingest;
4. **greedy** — ``--mode greedy``'s single-reference assigner over the
   same delta: wall time and how many of its new-reference placements
   agree with the exact ladder's.

Results land in ``BENCH_ingest.json``; one summary line per run is
appended to ``BENCH_history.jsonl`` with ``"bench": "ingest"`` so the
regression observatory (``repro report --regress``) trends this bench
separately. Equivalence gates (byte-identity, parallel-identical) fail
the run in both modes; the ≥5x throughput gate only in the full run —
tiny worlds are too small for stable ratios.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Distinct, DistinctConfig, GeneratorConfig, generate_world
from repro.data.ambiguity import AmbiguousNameSpec
from repro.data.deltas import grow_world, split_world
from repro.ingest import IngestEngine, extend_resolution
from repro.obs import get_metrics

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"
DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"

#: One big name, several medium ones, and a small target: the delta is
#: local to the *target's* neighborhood, so the expensive names stay
#: clean and the ladder's savings are visible.
SPEC = [
    AmbiguousNameSpec("Wei Wang", tuple([12] * 8)),
    AmbiguousNameSpec("Bin Zhu", (48, 40, 32, 24)),
    AmbiguousNameSpec("Rakesh Kumar", (52, 44, 36, 28)),
    AmbiguousNameSpec("Lei Chen", (10, 8, 6, 6)),
    AmbiguousNameSpec("Wen Gao", (9, 7, 5)),
    AmbiguousNameSpec("Hui Fang", (6, 5, 4)),
]

#: The small name whose neighborhood receives the delta.
TARGET = "Hui Fang"

FULL_SCALE = 2.0
TINY_SCALE = 0.15

#: Crawl-increment size as a fraction of the world's papers (≤10% is the
#: regime the headline claims; the split keeps it local on top of small).
DELTA_FRACTION = 0.05

#: Papers in the increment written by one TARGET entity itself (these
#: become genuinely new references for the ladder and the greedy path).
TARGET_PAPERS = 3

#: How many distinct (unique-name) authors write the background
#: increment. A real crawl increment is one venue's worth of authors,
#: not a whole community; the cap keeps the changed Authors/Proceedings
#: row set — and with it the dirty blast radius — small.
POOL_CAP = 12


def git_sha() -> str:
    """The commit this run measured, for provenance; "unknown" outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def counter_value(name: str) -> float:
    return float(get_metrics().snapshot()["counters"].get(name, 0.0))


def base_config() -> DistinctConfig:
    """The ingest pipeline configuration: fixed SVM cost."""
    return DistinctConfig(n_positive=300, n_negative=300, svm_C=10.0)


@dataclass
class Snapshot:
    """Everything byte-identity compares for one name."""

    rows: list[int]
    clusters: list[list[int]]
    resem: bytes
    walk: bytes
    merges: list[tuple[int, int, int]]
    sims: bytes

    @classmethod
    def of(cls, resolution) -> "Snapshot":
        clustering = resolution.clustering
        return cls(
            rows=list(resolution.rows),
            clusters=sorted(sorted(c) for c in resolution.clusters),
            resem=resolution.resem_matrix.tobytes(),
            walk=resolution.walk_matrix.tobytes(),
            merges=list(clustering.dendrogram.merges) if clustering else [],
            sims=(
                np.asarray(clustering.merge_similarities).tobytes()
                if clustering
                else b""
            ),
        )


def build_split(scale: float, seed: int):
    """The grown world split into (base, localized delta, truth).

    The world's communities are venue-isolated (no shared or foreign
    venues), modeling the common case where one crawl increment lands in
    one research community. The delta's authors are the members of a
    TARGET entity's community chosen to host no *other* ambiguous
    entity, so the increment's genuine blast radius is that community:
    the other names' references provably keep their profiles and stay on
    the reuse rungs of the ladder.
    """
    rare = 120 if scale <= 1.0 else max(4, round(120 / scale))
    world = generate_world(
        GeneratorConfig(
            seed=seed,
            scale=scale,
            rare_entities=rare,
            shared_conferences=0,
            p_shared_venue=0.0,
            p_foreign_venue=0.0,
        ),
        SPEC,
    )
    ambiguous = [e for e in world.entities if e.kind == "ambiguous"]
    targets = [e for e in ambiguous if e.name == TARGET]
    # Anchor in the TARGET community whose foreign ambiguous co-residents
    # carry the fewest references: names with no entity resident there
    # provably keep their whole profile set, and whoever does co-reside
    # contributes only a small partially-dirty refresh (the reuse rung).
    refs_of = {s.name: sum(s.ref_counts) for s in SPEC}
    def foreign_cost(entity):
        c = set(entity.communities)
        return sum(
            refs_of.get(e.name, 0)
            for e in ambiguous
            if e.name != TARGET and set(e.communities) & c
        )
    anchor = min(targets, key=foreign_cost)
    home = set(anchor.communities)
    # Two leak channels are closed here. Authors rows are keyed by
    # *name*: a delta coauthor whose name recurs in another community
    # genuinely re-weights that shared author row for everyone carrying
    # it — so delta authors must hold globally-unique names. And
    # multi-community members (hubs) publish in *both* their
    # communities' venues, dragging foreign proceedings into the blast
    # radius — so the pool keeps single-community residents only.
    holders: dict[str, int] = {}
    for e in world.entities:
        holders[e.name] = holders.get(e.name, 0) + 1
    pool = [
        e.entity_id
        for e in world.entities
        if e.kind != "ambiguous"
        and set(e.communities) <= home
        and holders[e.name] == 1
    ]
    # A tight author pool concentrates the increment: each changed
    # Authors/Proceedings row reaches fewer foreign references, so the
    # dirty set stays a handful of refs instead of a handful of names.
    pool = pool[:POOL_CAP]
    n_background = max(1, round(DELTA_FRACTION * len(world.papers)))
    grown = grow_world(world, n_background, seed=seed, author_pool=pool)
    grown = grow_world(
        grown, TARGET_PAPERS, seed=seed + 1, author_pool=[anchor.entity_id]
    )
    n_delta = n_background + TARGET_PAPERS
    return world, split_world(grown, n_delta), n_delta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small world for CI smoke (same equivalence gates, no 5x gate)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--timestamp",
        default=None,
        help="timestamp recorded in the history line (default: now, UTC); "
             "CI passes the commit timestamp for stable trend axes",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=DEFAULT_HISTORY,
        help="JSONL file to append this run's summary line to",
    )
    args = parser.parse_args(argv)

    scale = TINY_SCALE if args.tiny else FULL_SCALE
    config = base_config()
    names = [spec.name for spec in SPEC]

    # -- setup: base world, localized delta, fitted pipeline, warm state -----
    world, split, n_delta = build_split(scale, args.seed)
    n_papers = len(world.papers)
    delta_rows = sum(len(rows) for rows in split.delta.rows.values())
    t0 = time.perf_counter()
    distinct = Distinct(config).fit(split.base)
    fit_s = time.perf_counter() - t0
    engine = IngestEngine(distinct)
    cold_state = {}
    t0 = time.perf_counter()
    for name in names:
        cold_state[name] = engine.resolve(name)
    resolve_s = time.perf_counter() - t0
    setup = {
        "scale": scale,
        "papers": n_papers,
        "delta_papers": n_delta,
        "delta_rows": delta_rows,
        "delta_fraction": n_delta / n_papers,
        "n_names": len(names),
        "n_refs": sum(len(r.rows) for r in cold_state.values()),
        "fit_seconds": fit_s,
        "cold_resolve_seconds": resolve_s,
    }
    print(
        f"setup x{scale}: {n_papers} papers, delta {n_delta} papers "
        f"({setup['delta_fraction']:.1%}, {delta_rows} rows), "
        f"{setup['n_refs']} refs over {len(names)} names  "
        f"fit {fit_s:.1f}s  resolve {resolve_s:.1f}s"
    )

    # -- exact: the ladder vs a cold refit -----------------------------------
    tracked = (
        "ingest.refs_dirty",
        "ingest.pairs_recomputed",
        "ingest.pairs_reused",
        "cluster.merges_replayed",
    )
    before = {k: counter_value(k) for k in tracked}
    t0 = time.perf_counter()
    report = engine.ingest(split.delta)
    ingest_s = time.perf_counter() - t0
    deltas = {k: counter_value(k) - v for k, v in before.items()}

    t0 = time.perf_counter()
    cold = {
        name: distinct.cluster_prepared(distinct.prepare(name))
        for name in names
    }
    cold_s = time.perf_counter() - t0

    identical = all(
        Snapshot.of(report.resolution(name)) == Snapshot.of(cold[name])
        for name in names
    )
    exact = {
        "ingest_seconds": ingest_s,
        "cold_refit_seconds": cold_s,
        "speedup": cold_s / ingest_s,
        "byte_identical": identical,
        "names_refreshed": len(report.names_refreshed),
        "names_clean": len(report.names_clean),
        "refs_dirty": int(deltas["ingest.refs_dirty"]),
        "pairs_recomputed": int(deltas["ingest.pairs_recomputed"]),
        "pairs_reused": int(deltas["ingest.pairs_reused"]),
        "merges_replayed": int(deltas["cluster.merges_replayed"]),
    }
    print(
        f"exact: ingest {ingest_s:.2f}s vs cold refit {cold_s:.2f}s "
        f"({exact['speedup']:.1f}x), identical={identical}; "
        f"{exact['names_clean']}/{len(names)} names clean, "
        f"{exact['refs_dirty']} dirty refs, "
        f"{exact['pairs_recomputed']} pairs recomputed / "
        f"{exact['pairs_reused']} reused, "
        f"{exact['merges_replayed']} merges replayed"
    )

    # -- parallel: same ingest at --workers on an identical second base ------
    _, split2, _ = build_split(scale, args.seed)
    distinct2 = Distinct.from_models(
        split2.base, distinct.resem_model_, distinct.walk_model_, config
    )
    engine2 = IngestEngine(distinct2)
    for name in names:
        engine2.resolve(name)
    t0 = time.perf_counter()
    report2 = engine2.ingest(split2.delta, workers=args.workers)
    parallel_s = time.perf_counter() - t0
    parallel_identical = all(
        Snapshot.of(report2.resolution(name)) == Snapshot.of(report.resolution(name))
        for name in names
    )
    parallel = {
        "workers": args.workers,
        "seconds": parallel_s,
        "identical_to_serial": parallel_identical,
        "speedup_vs_serial_ingest": ingest_s / parallel_s,
    }
    print(
        f"parallel x{args.workers}: {parallel_s:.2f}s "
        f"(serial ingest {ingest_s:.2f}s), identical={parallel_identical}"
    )

    # -- greedy: the approximate fast path over the same delta ---------------
    _, split3, _ = build_split(scale, args.seed)
    distinct3 = Distinct.from_models(
        split3.base, distinct.resem_model_, distinct.walk_model_, config
    )
    target_base = distinct3.resolve(TARGET)
    from repro.core.references import extract_references
    from repro.reldb.delta import apply_delta

    apply_delta(distinct3.db, split3.delta)
    refs = extract_references(distinct3.db, TARGET, distinct3.config)
    new_rows = [r for r in refs.rows if r not in set(target_base.rows)]
    t0 = time.perf_counter()
    extended, assignments = extend_resolution(distinct3, target_base, new_rows)
    greedy_s = time.perf_counter() - t0
    exact_resolution = report.resolution(TARGET)
    exact_cluster_of = {}
    for idx, cluster in enumerate(exact_resolution.clusters):
        for row in cluster:
            exact_cluster_of[row] = idx
    greedy_cluster_of = {}
    for idx, cluster in enumerate(extended.clusters):
        for row in cluster:
            greedy_cluster_of[row] = idx
    # Agreement: a new row placed with the same *old* companions.
    agree = 0
    for row in new_rows:
        exact_mates = {
            r for r in exact_resolution.rows
            if r != row and r not in new_rows
            and exact_cluster_of.get(r) == exact_cluster_of.get(row)
        }
        greedy_mates = {
            r for r in extended.rows
            if r != row and r not in new_rows
            and greedy_cluster_of.get(r) == greedy_cluster_of.get(row)
        }
        agree += exact_mates == greedy_mates
    greedy = {
        "target": TARGET,
        "new_refs": len(new_rows),
        "seconds": greedy_s,
        "agreement": agree,
        "new_clusters": sum(a.created_new_cluster for a in assignments),
    }
    print(
        f"greedy ({TARGET}): {len(new_rows)} new refs in {greedy_s:.3f}s, "
        f"{agree}/{len(new_rows)} placements agree with exact"
    )

    # -- gates ---------------------------------------------------------------
    failures = []
    if not exact["byte_identical"]:
        failures.append("exact: ingest differs from cold refit")
    if not parallel["identical_to_serial"]:
        failures.append("parallel: worker results differ from serial ingest")
    if setup["delta_fraction"] > 0.10:
        failures.append("setup: delta exceeds the ≤10% regime")
    if not args.tiny:
        if exact["speedup"] < 5.0:
            failures.append(
                f"exact: ingest speedup {exact['speedup']:.1f}x below 5x"
            )
        if exact["pairs_reused"] <= 0:
            failures.append("exact: ladder reused no pairs at full scale")
    equivalent = not failures

    timestamp = args.timestamp or datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    sha = git_sha()
    report_payload = {
        "generated_by": "benchmarks/bench_ingest.py",
        "timestamp": timestamp,
        "git_sha": sha,
        "tiny": args.tiny,
        "config": {
            "scale": scale,
            "seed": args.seed,
            "workers": args.workers,
            "n_refs": setup["n_refs"],
            "delta_fraction": setup["delta_fraction"],
        },
        "setup": setup,
        "exact": exact,
        "parallel": parallel,
        "greedy": greedy,
        "gates": {"failures": failures, "equivalent": equivalent},
    }
    args.out.write_text(json.dumps(report_payload, indent=2) + "\n")

    history_line = {
        "timestamp": timestamp,
        "git_sha": sha,
        "bench": "ingest",
        "tiny": args.tiny,
        "config": report_payload["config"],
        "speedups": {
            "ingest_vs_cold_refit": exact["speedup"],
            "parallel_ingest": parallel["speedup_vs_serial_ingest"],
        },
        "refs_dirty": exact["refs_dirty"],
        "pairs_reused": exact["pairs_reused"],
        "names_clean": exact["names_clean"],
        "equivalent": equivalent,
    }
    with args.history.open("a") as fh:
        fh.write(json.dumps(history_line) + "\n")

    print(f"ingest bench ({'tiny' if args.tiny else 'full'}) -> {args.out}")
    print(f"  history    : {timestamp} ({sha[:12]}) >> {args.history}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
