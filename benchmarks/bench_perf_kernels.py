"""Perf-kernel benchmark: the pair-feature route against its scalar reference.

Standalone script (not a pytest bench — CI runs it directly)::

    PYTHONPATH=src python benchmarks/bench_perf_kernels.py [--tiny] [--out PATH]

It times each stage of the pair-feature route against the scalar
reference the tests use, on a synthetic ambiguous name:

1. **pair kernels** — the pair-list kernels of
   :mod:`repro.similarity.vectorized` against the per-pair loops
   (:func:`repro.similarity.resemblance.set_resemblance`,
   :func:`repro.similarity.randomwalk.walk_probability`);
2. **batched propagation** — :mod:`repro.paths.batch` SpMM propagation
   against the scalar :class:`~repro.paths.profiles.ProfileBuilder`
   walk, on a community-structured synthetic DBLP database;
3. **pipeline route** — :func:`repro.core.features.compute_pair_features`
   (batched propagation, matrix kernels) against the
   scalar propagation and per-pair kernels, including the
   clustering-unchanged check;
4. **parallel** — the per-name map of :mod:`repro.perf.parallel`, with
   dispatch mode chosen by :func:`repro.perf.should_inline`.

Results land in ``BENCH_perf.json`` (machine-readable: wall times,
speedup ratios, max kernel deviations), and a one-line summary of each
run is appended to ``BENCH_history.jsonl`` for trend tracking across
commits. The script exits non-zero if any stage disagrees with its
scalar reference beyond ``ATOL``, if the route changes the clustering,
or if the parallel map's output differs from serial — those equivalence
gates are what the CI bench-smoke job enforces; speedups are reported
for trend tracking, not gated in CI (they are hardware-dependent).

Kernel-stage profiles are synthesized with a seeded RNG to the paper's
scale (§5: the largest evaluated name has 151 references); the
propagation stages run on a generated DBLP-style database whose papers
split into disjoint coauthor/conference communities (so most pairs
score an exact 0), so the bench needs no world generation or SVM fit
and runs in seconds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster.agglomerative import AgglomerativeClusterer
from repro.cluster.composite import CompositeMeasure
from repro.core.features import compute_pair_features, pair_matrix
from repro.data.dblp_schema import new_dblp_database
from repro.obs import enable_tracing, span, write_trace
from repro.paths.joinpath import JoinPath
from repro.paths.profiles import NeighborProfile, ProfileBuilder
from repro.paths.propagation import make_exclusions
from repro.perf import ordered_process_map, should_inline
from repro.reldb.joins import JoinStep
from repro.similarity.combine import uniform_weights
from repro.similarity.randomwalk import walk_probability
from repro.similarity.resemblance import set_resemblance
from repro.similarity.vectorized import (
    pair_resemblance_values,
    pair_walk_values,
    profile_matrices,
)

#: Kernel-equivalence tolerance (floating-point reassociation only).
ATOL = 1e-9

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"


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

PATHS = [
    JoinPath([JoinStep("Publish", f"k{i}", f"R{i}", f"k{i}", "n1")])
    for i in range(4)
]

# Join steps of the DBLP schema, for the propagation-stage paths.
PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
PUB_AUTH = JoinStep("Publish", "author_key", "Authors", "author_key", "n1")
PAP_PROC = JoinStep("Publications", "proc_key", "Proceedings", "proc_key", "n1")
PROC_CONF = JoinStep("Proceedings", "conf_key", "Conferences", "conf_key", "n1")

#: The four propagation-bench paths: coauthors, conference, proceedings
#: siblings, and coauthors' papers (a mix of short and high-fanout walks).
PROP_PATHS = [
    JoinPath([PUB_PAP, PUB_PAP.reverse(), PUB_AUTH]),
    JoinPath([PUB_PAP, PAP_PROC, PROC_CONF]),
    JoinPath([PUB_PAP, PAP_PROC, PAP_PROC.reverse()]),
    JoinPath(
        [PUB_PAP, PUB_PAP.reverse(), PUB_AUTH, PUB_AUTH.reverse(), PUB_PAP]
    ),
]


def synth_community_db(n_refs: int, n_communities: int, seed: int):
    """A DBLP-style database whose references split into disjoint communities.

    One ambiguous author (row 0) appears on ``n_refs`` papers; papers are
    assigned round-robin to ``n_communities`` communities with disjoint
    coauthor pools and disjoint conferences, so references of different
    communities share no neighbor tuples on any of ``PROP_PATHS`` and
    score an exact 0 on both sides. Returns the database and the
    Publish row ids of the ambiguous references.
    """
    rng = np.random.default_rng(seed)
    coauthors_per_comm = 40
    db = new_dblp_database()

    authors = [(0, "J Smith")]
    pools = []
    next_key = 1
    for c in range(n_communities):
        pool = list(range(next_key, next_key + coauthors_per_comm))
        authors.extend((k, f"c{c} author {k}") for k in pool)
        pools.append(pool)
        next_key += coauthors_per_comm

    confs = [(c, f"CONF{c}", f"publisher {c}") for c in range(n_communities)]
    procs = []
    proc_ids = [[] for _ in range(n_communities)]
    pid = 0
    for c in range(n_communities):
        for year in range(4):
            procs.append((pid, c, 2000 + year, f"city {pid}"))
            proc_ids[c].append(pid)
            pid += 1

    publications = []
    publish = []
    ref_rows = []
    paper_key = 0
    for r in range(n_refs):
        c = r % n_communities
        proc = int(rng.choice(proc_ids[c]))
        publications.append((paper_key, f"paper {paper_key}", proc))
        ref_rows.append(len(publish))
        publish.append((paper_key, 0))
        for co in rng.choice(pools[c], size=5, replace=False):
            publish.append((paper_key, int(co)))
        paper_key += 1
    # Coauthor-only filler papers: give the coauthors other publications
    # so the longer walks have realistic fanout (each coauthor circle is
    # shared by many references — the redundancy batched SpMM dedups).
    for c in range(n_communities):
        for _ in range(2 * (n_refs // n_communities)):
            proc = int(rng.choice(proc_ids[c]))
            publications.append((paper_key, f"paper {paper_key}", proc))
            for co in rng.choice(pools[c], size=5, replace=False):
                publish.append((paper_key, int(co)))
            paper_key += 1

    db.insert_many("Authors", authors)
    db.insert_many("Conferences", confs)
    db.insert_many("Proceedings", procs)
    db.insert_many("Publications", publications)
    db.insert_many("Publish", publish)
    db.check_integrity()
    return db, ref_rows


def synth_profiles(
    rng: np.ndarray, path: JoinPath, n_refs: int, n_columns: int, support: int
) -> list[NeighborProfile]:
    """Random profiles mimicking propagation output: each reference
    reaches ``support`` of ``n_columns`` end-relation tuples with a
    sub-distribution of forward mass and per-tuple backward probabilities."""
    profiles = []
    for row in range(n_refs):
        cols = rng.choice(n_columns, size=support, replace=False)
        fwd = rng.random(support)
        fwd /= fwd.sum() * rng.uniform(1.0, 1.5)  # forward mass <= 1
        back = rng.random(support)
        weights = {
            int(c): (float(f), float(b)) for c, f, b in zip(cols, fwd, back)
        }
        profiles.append(NeighborProfile(path=path, origin_row=row, weights=weights))
    return profiles


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def timed(fn, repeats: int):
    """Best-of-``repeats`` wall time and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


# -- per-strategy feature computation ----------------------------------------


def scalar_features(profiles_by_path, pairs):
    resem = np.zeros((len(pairs), len(profiles_by_path)))
    walk = np.zeros_like(resem)
    for p, profiles in enumerate(profiles_by_path):
        for k, (i, j) in enumerate(pairs):
            resem[k, p] = set_resemblance(profiles[i], profiles[j])
            walk[k, p] = walk_probability(profiles[i], profiles[j])
    return resem, walk


def vectorized_features(profiles_by_path, pairs):
    idx_a = np.fromiter((i for i, _ in pairs), dtype=np.int64, count=len(pairs))
    idx_b = np.fromiter((j for _, j in pairs), dtype=np.int64, count=len(pairs))
    resem = np.zeros((len(pairs), len(profiles_by_path)))
    walk = np.zeros_like(resem)
    for p, profiles in enumerate(profiles_by_path):
        forward, backward = profile_matrices(profiles)
        resem[:, p] = pair_resemblance_values(forward, idx_a, idx_b)
        walk[:, p] = pair_walk_values(forward, backward, idx_a, idx_b)
    return resem, walk


def _name_task(payload, name_idx):
    """Per-name work unit for the parallel phase (module-level: pickled
    by reference into the pool)."""
    profile_sets, pairs = payload
    resem, walk = vectorized_features(profile_sets[name_idx], pairs)
    return float(resem.sum() + walk.sum())


# -- propagation + pipeline-route stages (real database) ----------------------


def _fresh_builder(db) -> ProfileBuilder:
    """A builder under the ambiguous name's exclusions, cold caches."""
    return ProfileBuilder(db, PROP_PATHS, make_exclusions(Authors={0}))


def bench_propagation(db, ref_rows, repeats: int) -> dict:
    """Scalar ``warm`` walk vs batched SpMM over the same references.

    Fresh builders per timing run so neither side benefits from a warm
    profile cache; equivalence compares every per-reference profile of
    every path (values *and* supports).
    """
    scalar_s, builder = timed(
        lambda: (lambda b: (b.warm(ref_rows), b)[1])(_fresh_builder(db)), repeats
    )
    batched_s, matrices = timed(
        lambda: _fresh_builder(db).matrices_for(ref_rows), repeats
    )

    max_diff = 0.0
    supports_identical = True
    for path in PROP_PATHS:
        batched = matrices[path]
        for k, row in enumerate(ref_rows):
            scalar = builder.profile(path, row).weights
            got = batched.weights_for(k)
            if set(scalar) != set(got):
                supports_identical = False
            for t in set(scalar) | set(got):
                sf, sb = scalar.get(t, (0.0, 0.0))
                gf, gb = got.get(t, (0.0, 0.0))
                max_diff = max(max_diff, abs(sf - gf), abs(sb - gb))
    return {
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": scalar_s / batched_s,
        "max_abs_diff": max_diff,
        "supports_identical": supports_identical,
    }


def bench_pipeline_route(db, ref_rows, repeats: int) -> dict:
    """The production pair-feature route against the scalar reference.

    Both sides start from a fresh builder, so each pays its own
    propagation. Pairs with disjoint supports are *exact* zeros on both
    sides; features are compared at ``ATOL``, and the downstream agglomerative
    clustering must produce identical clusters.
    """
    pairs = [
        (ref_rows[i], ref_rows[j])
        for i in range(len(ref_rows))
        for j in range(i + 1, len(ref_rows))
    ]

    def run_scalar():
        builder = _fresh_builder(db)
        resem = np.zeros((len(pairs), len(PROP_PATHS)))
        walk = np.zeros_like(resem)
        for k, (a, b) in enumerate(pairs):
            profiles_a, profiles_b = builder.profiles_for(a), builder.profiles_for(b)
            for p, path in enumerate(PROP_PATHS):
                resem[k, p] = set_resemblance(profiles_a[path], profiles_b[path])
                walk[k, p] = walk_probability(profiles_a[path], profiles_b[path])
        return resem, walk

    scalar_s, (resem, walk) = timed(run_scalar, repeats)
    route_s, route = timed(
        lambda: compute_pair_features(_fresh_builder(db), pairs), repeats
    )
    features_max_diff = max(
        float(np.abs(resem - route.resemblance).max()),
        float(np.abs(walk - route.walk).max()),
    )

    def clusters_of(resem_rows, walk_rows):
        uniform = np.asarray(uniform_weights(len(PROP_PATHS)).weights)
        resem_m = pair_matrix(ref_rows, pairs, resem_rows @ uniform)
        walk_m = pair_matrix(ref_rows, pairs, walk_rows @ uniform)
        result = AgglomerativeClusterer(min_sim=0.005).cluster(
            CompositeMeasure(resem_m, walk_m)
        )
        return sorted(sorted(c) for c in result.clusters)

    clusterings_identical = clusters_of(resem, walk) == clusters_of(
        route.resemblance, route.walk
    )
    return {
        "scalar_seconds": scalar_s,
        "route_seconds": route_s,
        "speedup": scalar_s / route_s,
        "pairs_total": len(pairs),
        "max_abs_diff": features_max_diff,
        "clusterings_identical": clusterings_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small corpus for CI smoke (same gates, seconds of runtime)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1007)
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
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="enable tracing and write the bench's span tree + metrics "
             "JSON here (feed to `repro report` for the Chrome export)",
    )
    args = parser.parse_args(argv)

    if args.trace_out:
        enable_tracing()

    if args.tiny:
        n_refs, n_columns, support, n_names, repeats = 40, 200, 20, 3, 1
    else:
        # The paper's largest evaluated name has 151 references (§5).
        n_refs, n_columns, support, n_names, repeats = 150, 600, 50, 6, 3
    n_communities = 3

    rng = np.random.default_rng(args.seed)
    profiles_by_path = [
        synth_profiles(rng, path, n_refs, n_columns, support) for path in PATHS
    ]
    pairs = all_pairs(n_refs)

    # -- pair-list kernels (the shape compute_pair_features runs) ------------
    with span("bench.pair_kernels", n_pairs=len(pairs)):
        scalar_s, (resem_s, walk_s) = timed(
            lambda: scalar_features(profiles_by_path, pairs), repeats
        )
        vector_s, (resem_v, walk_v) = timed(
            lambda: vectorized_features(profiles_by_path, pairs), repeats
        )
    diff_resem = float(np.abs(resem_s - resem_v).max())
    diff_walk = float(np.abs(walk_s - walk_v).max())

    # -- batched propagation + the pipeline route (real database) ------------
    prop_db, ref_rows = synth_community_db(n_refs, n_communities, args.seed + 2)
    with span("bench.propagation", n_refs=len(ref_rows)):
        propagation = bench_propagation(prop_db, ref_rows, repeats)
    with span("bench.pipeline_route"):
        route = bench_pipeline_route(prop_db, ref_rows, repeats)

    # -- parallel per-name map ------------------------------------------------
    name_rng = np.random.default_rng(args.seed + 1)
    profile_sets = [
        [synth_profiles(name_rng, path, n_refs, n_columns, support) for path in PATHS]
        for _ in range(n_names)
    ]
    payload = (profile_sets, pairs)
    serial_p, serial_values = timed(
        lambda: [_name_task(payload, i) for i in range(n_names)], 1
    )
    task_cost = serial_p / n_names
    inline = should_inline(n_names, args.workers, task_cost_hint=task_cost)
    chunk_size = 1 if inline else max(1, n_names // (args.workers * 2))
    t0 = time.perf_counter()
    with span("bench.parallel_map", workers=args.workers, n_names=n_names):
        outcomes = list(
            ordered_process_map(
                _name_task,
                payload,
                list(range(n_names)),
                workers=args.workers,
                chunk_size=chunk_size,
                inline=inline,
            )
        )
    parallel_p = time.perf_counter() - t0
    parallel_values = [o.value for o in outcomes]
    parallel_identical = parallel_values == serial_values

    equivalent = (
        max(
            diff_resem,
            diff_walk,
            propagation["max_abs_diff"],
            route["max_abs_diff"],
        )
        <= ATOL
    )
    # Provenance: every report and history line says which commit and when,
    # so trend lines and the regression observatory can attribute changes.
    timestamp = args.timestamp or datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    sha = git_sha()
    report = {
        "generated_by": "benchmarks/bench_perf_kernels.py",
        "timestamp": timestamp,
        "git_sha": sha,
        "tiny": args.tiny,
        "config": {
            "n_refs": n_refs,
            "n_columns": n_columns,
            "support": support,
            "n_paths": len(PATHS),
            "n_pairs": len(pairs),
            "n_names_parallel": n_names,
            "n_communities": n_communities,
            "workers": args.workers,
            "seed": args.seed,
            "repeats": repeats,
        },
        "pair_kernels": {
            "scalar_seconds": scalar_s,
            "vectorized_seconds": vector_s,
            "speedup": scalar_s / vector_s,
            "max_abs_diff_resemblance": diff_resem,
            "max_abs_diff_walk": diff_walk,
        },
        "propagation": propagation,
        "pipeline_route": route,
        "parallel_map": {
            "serial_seconds": serial_p,
            "parallel_seconds": parallel_p,
            "speedup": serial_p / parallel_p,
            "mode": "inline" if inline else "pool",
            "chunk_size": chunk_size,
            "task_cost_seconds": task_cost,
            "results_identical": parallel_identical,
        },
        "equivalence": {"atol": ATOL, "equivalent": equivalent},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    history_line = {
        "timestamp": timestamp,
        "git_sha": sha,
        "tiny": args.tiny,
        "config": report["config"],
        "speedups": {
            "pair_kernels": report["pair_kernels"]["speedup"],
            "propagation": propagation["speedup"],
            "pipeline_route": route["speedup"],
            "parallel_map": report["parallel_map"]["speedup"],
        },
        "parallel_mode": report["parallel_map"]["mode"],
        "equivalent": equivalent,
    }
    with args.history.open("a") as fh:
        fh.write(json.dumps(history_line) + "\n")

    print(f"perf kernels ({'tiny' if args.tiny else 'full'} corpus) -> {args.out}")
    print(
        f"  pair kernels : scalar {scalar_s:.3f}s  vectorized {vector_s:.3f}s  "
        f"({report['pair_kernels']['speedup']:.1f}x)"
    )
    print(
        f"  propagation  : scalar {propagation['scalar_seconds']:.3f}s  "
        f"batched {propagation['batched_seconds']:.3f}s  "
        f"({propagation['speedup']:.1f}x, max diff "
        f"{propagation['max_abs_diff']:.2e})"
    )
    print(
        f"  route        : scalar {route['scalar_seconds']:.3f}s  route "
        f"{route['route_seconds']:.3f}s  ({route['speedup']:.2f}x, "
        f"{route['pairs_total']} pairs)"
    )
    print(
        f"  parallel map : serial {serial_p:.3f}s  workers={args.workers} "
        f"{parallel_p:.3f}s  ({report['parallel_map']['speedup']:.2f}x, "
        f"mode={report['parallel_map']['mode']}, "
        f"identical={parallel_identical})"
    )
    print(
        f"  equivalence  : max diff "
        f"{max(diff_resem, diff_walk, propagation['max_abs_diff'], route['max_abs_diff']):.2e} "
        f"(atol {ATOL:g}) -> {'OK' if equivalent else 'FAIL'}"
    )
    print(f"  history      : {timestamp} ({sha[:12]}) >> {args.history}")
    if args.trace_out:
        write_trace(args.trace_out)
        print(f"  trace        : {args.trace_out}")
    if not equivalent:
        print(
            "FAIL: a stage deviates from the scalar reference beyond ATOL",
            file=sys.stderr,
        )
        return 1
    if not propagation["supports_identical"]:
        print("FAIL: batched propagation support differs from scalar", file=sys.stderr)
        return 1
    if not route["clusterings_identical"]:
        print("FAIL: the pipeline route changed the clustering", file=sys.stderr)
        return 1
    if not parallel_identical:
        print("FAIL: parallel map results differ from serial", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
