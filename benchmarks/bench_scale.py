"""Scale-out benchmark: tiered worlds and shared-memory workers.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_scale.py [--tiny] [--out PATH]

The paper evaluates DISTINCT against full DBLP (§5: 616K papers / 1.29M
authorship rows); this bench grows the synthetic world toward that scale
in tiers and measures the scale-out mechanisms this repo offers on the
largest tier:

1. **worlds** — generated DBLP-style worlds at increasing ``scale``,
   recording tuple counts and generate/load/fit wall times (the full
   run's top tier crosses 100K database tuples);
2. **shm** — :class:`repro.perf.SharedPayload` zero-copy dispatch of the
   largest name's stacked profile matrices against the
   :class:`repro.perf.PickledPayload` baseline: per-worker dispatch
   bytes and the wall time of the same pool map at ``--workers``;
3. **end_to_end** — the full resilient experiment over every ambiguous
   name: serial, ``workers=4`` with static shards, and ``workers=4``
   with cost-model (refs²) work-stealing shards + shared-memory payload
   — all three must produce byte-identical per-name results, and no
   ``/dev/shm`` segment may survive the run. Every run takes the one
   pair-feature route (batched propagation, exact blocking, matrix
   kernels); ``pairs_blocked`` reports how many pairs exact blocking
   skipped.

Results land in ``BENCH_scale.json``; one summary line per run is
appended to ``BENCH_history.jsonl`` with ``"bench": "scale"`` so the
regression observatory (``repro regress``) trends this bench separately
from the kernel bench. Equivalence gates (byte-identical end-to-end
results, shm results identical, no leaked segments) fail the run in
both modes; throughput gates (shm wall win, parallel beating serial)
only in the full run — tiny worlds are too small for stable ratios.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Distinct, DistinctConfig, GeneratorConfig, generate_world
from repro.core.references import extract_references
from repro.core.variants import variant_by_key
from repro.data.ambiguity import AmbiguousNameSpec
from repro.data.world import world_to_database
from repro.eval.persistence import name_result_to_dict
from repro.eval.runner import run_resilient
from repro.obs import get_metrics
from repro.perf import (
    PickledPayload,
    SharedPayload,
    active_segments,
    ordered_process_map,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"

#: Ambiguous names with skewed reference counts (150 … 15), deliberately
#: not in cost order so cost-model sharding visibly reorders dispatch.
SPEC = [
    AmbiguousNameSpec("Bin Zhu", (12, 10, 8, 6)),
    AmbiguousNameSpec("Wei Wang", tuple([15] * 10)),
    AmbiguousNameSpec("Hui Fang", (6, 5, 4)),
    AmbiguousNameSpec("Rakesh Kumar", (20, 15, 15, 10, 10)),
    AmbiguousNameSpec("Wen Gao", (9, 7, 5)),
    AmbiguousNameSpec("Lei Chen", (10, 8, 6, 6)),
]

#: World tiers swept per mode; sections run on the last (largest) tier.
FULL_SCALES = (2.0, 10.0)
TINY_SCALES = (0.1, 0.3)


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


def timed(fn, repeats: int):
    """Best-of-``repeats`` wall time and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def counter_value(name: str) -> float:
    return float(get_metrics().snapshot()["counters"].get(name, 0.0))


def world_config(scale: float, seed: int) -> GeneratorConfig:
    """A tier's generator config.

    ``rare_entities`` is a *scaled* knob; at large scales the rare-token
    name pools saturate and no name stays rare (§3 training needs rare
    names), so the raw knob shrinks to keep ~120 genuinely rare entities
    at every tier.
    """
    rare = 120 if scale <= 1.0 else max(4, round(120 / scale))
    return GeneratorConfig(seed=seed, scale=scale, rare_entities=rare)


def base_config() -> DistinctConfig:
    """The scale-out pipeline configuration: fixed SVM cost."""
    return DistinctConfig(n_positive=300, n_negative=300, svm_C=10.0)


# -- shm section --------------------------------------------------------------


def _chunk_mass(payload, chunk: int):
    """Per-task work unit: deterministic reduction over the shared matrices."""
    forwards = payload["forwards"]
    lo, hi = payload["bounds"][chunk]
    return float(sum(m[lo:hi].sum() + m[lo:hi].count_nonzero() for m in forwards))


def profile_payload(distinct: Distinct, name: str) -> dict:
    """The largest name's real per-path profile matrices, CSR, as a payload."""
    refs = extract_references(distinct.db, name, distinct.config)
    matrices = distinct.profile_builder(name).matrices_for(refs.rows)
    forwards = [matrices[path].forward.tocsr() for path in distinct.paths_]
    backwards = [matrices[path].backward.tocsr() for path in distinct.paths_]
    n = len(refs.rows)
    n_chunks = 8
    step = -(-n // n_chunks)
    bounds = [(k * step, min(n, (k + 1) * step)) for k in range(n_chunks)]
    return {
        "forwards": forwards,
        "backwards": backwards,
        "bounds": bounds,
        "rows": list(refs.rows),
    }


def bench_shm(payload: dict, workers: int, repeats: int) -> dict:
    """Zero-copy vs pickled dispatch of the same matrices at ``workers``."""
    n_chunks = len(payload["bounds"])
    items = list(range(n_chunks))

    def run(handle_cls):
        handle = handle_cls.wrap(payload)
        outcomes = list(
            ordered_process_map(_chunk_mass, handle, items, workers=workers)
        )
        return handle, [o.value for o in outcomes]

    shared_s, (shared_handle, shared_values) = timed(
        lambda: run(SharedPayload), repeats
    )
    pickled_s, (pickled_handle, pickled_values) = timed(
        lambda: run(PickledPayload), repeats
    )
    nnz = int(sum(m.nnz for m in payload["forwards"]))
    return {
        "workers": workers,
        "n_tasks": n_chunks,
        "forward_nnz": nnz,
        "shared_dispatch_bytes": shared_handle.dispatch_bytes,
        "pickled_dispatch_bytes": pickled_handle.dispatch_bytes,
        "shared_segment_bytes": shared_handle.shared_bytes,
        "dispatch_ratio": pickled_handle.dispatch_bytes
        / max(1, shared_handle.dispatch_bytes),
        "shared_seconds": shared_s,
        "pickled_seconds": pickled_s,
        "wall_ratio": pickled_s / shared_s,
        "results_identical": shared_values == pickled_values,
        "segments_clean": active_segments() == [],
    }


# -- end-to-end section ---------------------------------------------------------


def run_experiment(
    distinct: Distinct, truth, names: list[str], workers: int
) -> tuple[float, list[dict], dict]:
    """One resilient run; returns wall, per-name result dicts, counter deltas."""
    tracked = (
        "blocking.pairs_kept",
        "blocking.pairs_pruned",
        "perf.shard.steals",
        "perf.shard.shards",
        "perf.shm.unlinks",
    )
    before = {k: counter_value(k) for k in tracked}
    t0 = time.perf_counter()
    outcome = run_resilient(
        distinct,
        truth,
        names,
        variant_by_key("distinct"),
        min_sim=distinct.config.min_sim,
        workers=workers,
    )
    wall = time.perf_counter() - t0
    deltas = {k: counter_value(k) - v for k, v in before.items()}
    if not outcome.complete:
        raise RuntimeError("experiment run did not complete")
    return wall, [name_result_to_dict(r) for r in outcome.result.names], deltas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small world tiers for CI smoke (same equivalence gates)",
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

    scales = TINY_SCALES if args.tiny else FULL_SCALES
    repeats = 1 if args.tiny else 2
    names = [spec.name for spec in SPEC]
    config = base_config()

    # -- tiered worlds -------------------------------------------------------
    tiers = []
    distinct = truth = None
    for scale in scales:
        t0 = time.perf_counter()
        world = generate_world(world_config(scale, args.seed), SPEC)
        gen_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        db, tier_truth = world_to_database(world)
        load_s = time.perf_counter() - t0
        tuples = sum(db.relation_sizes().values())
        tier_distinct = Distinct(config)
        t0 = time.perf_counter()
        tier_distinct.fit(db)
        fit_s = time.perf_counter() - t0
        stats = world.stats()
        tiers.append(
            {
                "scale": scale,
                "tuples": tuples,
                "papers": stats["papers"],
                "authorships": stats["authorships"],
                "entities": stats["entities"],
                "generate_seconds": gen_s,
                "load_seconds": load_s,
                "fit_seconds": fit_s,
            }
        )
        distinct, truth = tier_distinct, tier_truth  # sections use the top tier
        print(
            f"tier x{scale}: {tuples} tuples ({stats['papers']} papers, "
            f"{stats['authorships']} authorships)  gen {gen_s:.1f}s  "
            f"load {load_s:.1f}s  fit {fit_s:.1f}s"
        )
    top = tiers[-1]

    # -- shm: zero-copy vs pickled dispatch ----------------------------------
    biggest = max(SPEC, key=lambda s: sum(s.ref_counts)).name
    payload = profile_payload(distinct, biggest)
    shm = bench_shm(payload, args.workers, repeats)
    print(
        f"shm ({biggest}, {shm['forward_nnz']} nnz): dispatch "
        f"{shm['shared_dispatch_bytes']} B shared vs "
        f"{shm['pickled_dispatch_bytes']} B pickled "
        f"({shm['dispatch_ratio']:.0f}x), wall {shm['shared_seconds']:.2f}s vs "
        f"{shm['pickled_seconds']:.2f}s ({shm['wall_ratio']:.2f}x) "
        f"at workers={shm['workers']}"
    )

    # -- end to end: serial vs static shards vs cost shards + shm ------------
    serial_s, serial_results, serial_counters = run_experiment(
        distinct, truth, names, workers=1
    )
    static_s, static_results, _ = run_experiment(
        distinct, truth, names, workers=args.workers
    )
    cost_distinct = Distinct.from_models(
        distinct.db,
        distinct.resem_model_,
        distinct.walk_model_,
        replace(config, shared_memory=True, shard_strategy="cost"),
    )
    cost_s, cost_results, cost_counters = run_experiment(
        cost_distinct, truth, names, workers=args.workers
    )
    end_to_end = {
        "tuples": top["tuples"],
        "n_names": len(names),
        "n_refs": sum(sum(s.ref_counts) for s in SPEC),
        "workers": args.workers,
        "serial_seconds": serial_s,
        "static_seconds": static_s,
        "cost_shm_seconds": cost_s,
        "parallel_speedup": serial_s / cost_s,
        "static_identical": static_results == serial_results,
        "cost_shm_identical": cost_results == serial_results,
        "shards_planned": int(cost_counters["perf.shard.shards"]),
        "shard_steals": int(cost_counters["perf.shard.steals"]),
        "shm_unlinks": int(cost_counters["perf.shm.unlinks"]),
        "segments_clean": active_segments() == [],
        "pairs_kept": int(serial_counters["blocking.pairs_kept"]),
        "pairs_blocked": int(serial_counters["blocking.pairs_pruned"]),
        "mean_f1": float(np.mean([r["f1"] for r in serial_results])),
    }
    print(
        f"end to end ({top['tuples']} tuples, {end_to_end['n_refs']} refs): "
        f"serial {serial_s:.1f}s  static x{args.workers} {static_s:.1f}s  "
        f"cost+shm x{args.workers} {cost_s:.1f}s "
        f"({end_to_end['parallel_speedup']:.2f}x, "
        f"steals={end_to_end['shard_steals']}, "
        f"identical={end_to_end['cost_shm_identical']})"
    )

    # -- gates ---------------------------------------------------------------
    failures = []
    if not shm["results_identical"]:
        failures.append("shm: pool results differ between shared and pickled")
    if not shm["segments_clean"] or not end_to_end["segments_clean"]:
        failures.append("shm: leaked /dev/shm segment(s)")
    if shm["shared_dispatch_bytes"] >= shm["pickled_dispatch_bytes"]:
        failures.append("shm: shared dispatch bytes not below pickled")
    if not end_to_end["static_identical"] or not end_to_end["cost_shm_identical"]:
        failures.append("end_to_end: parallel results differ from serial")
    if not args.tiny:
        if top["tuples"] < 100_000:
            failures.append("worlds: largest tier below 100K tuples")
        if shm["wall_ratio"] <= 1.0:
            failures.append("shm: shared-memory map not beating pickled wall")
        if end_to_end["parallel_speedup"] <= 1.0:
            failures.append("end_to_end: parallel run not beating serial")
    equivalent = not failures

    timestamp = args.timestamp or datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    sha = git_sha()
    report = {
        "generated_by": "benchmarks/bench_scale.py",
        "timestamp": timestamp,
        "git_sha": sha,
        "tiny": args.tiny,
        "config": {
            "scales": list(scales),
            "n_names": len(names),
            "n_refs": end_to_end["n_refs"],
            "workers": args.workers,
            "seed": args.seed,
            "repeats": repeats,
        },
        "worlds": tiers,
        "shm": shm,
        "end_to_end": end_to_end,
        "gates": {"failures": failures, "equivalent": equivalent},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    history_line = {
        "timestamp": timestamp,
        "git_sha": sha,
        "bench": "scale",
        "tiny": args.tiny,
        "config": report["config"],
        "speedups": {
            "shm_dispatch_ratio": shm["dispatch_ratio"],
            "shm_wall": shm["wall_ratio"],
            "parallel_end_to_end": end_to_end["parallel_speedup"],
        },
        "tuples": top["tuples"],
        "shard_steals": end_to_end["shard_steals"],
        "equivalent": equivalent,
    }
    with args.history.open("a") as fh:
        fh.write(json.dumps(history_line) + "\n")

    print(f"scale bench ({'tiny' if args.tiny else 'full'}) -> {args.out}")
    print(f"  history    : {timestamp} ({sha[:12]}) >> {args.history}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
