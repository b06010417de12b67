"""Resilient delta-ingest runner: the engine behind ``repro ingest``.

Runs the delta-ingest engine through the per-name loop
:class:`repro.eval.runner.NameLoop` that ``experiment`` and
``calibrate`` use: per-name failure policies, a wall-clock deadline and
atomic per-name checkpoints with ``--resume`` — while keeping the
byte-identity contract (a resumed run assembles the same results as an
uninterrupted one; completed names are loaded from the checkpoint,
remaining names re-ingested exactly as a fresh run would, because every
name's cold-resolve → apply → refresh pipeline is deterministic and
independent of the other names). Names refresh in-process, one after
another.

The run has two phases. *Cold phase*: each not-yet-checkpointed name is
resolved on the pre-delta database, building the engine state a
long-running service would already hold. *Ingest phase*: the delta is
applied once and caches advance. In ``mode="exact"``
:meth:`IngestEngine.apply` plans every name and runs one propagation
batch, and each name refreshes down the invalidation ladder on its rows
of it; ``mode="greedy"`` applies the delta alone (no plan, no batch) and
each name runs the greedy single-reference assigner. Each name then
scores against the post-delta ground truth. Both phases are stages of
one loop (``ingest.cold``, ``ingest.refresh``). Checkpoints record
scored names after the ingest phase, so a crash at any point loses at
most one name's work on resume.

The checkpoint signature includes a fingerprint of the delta's rows:
resuming the store with a different delta raises
:class:`~repro.errors.CheckpointError` instead of silently mixing
epochs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.distinct import Distinct
from repro.core.references import extract_references
from repro.data.world import GroundTruth
from repro.eval.experiment import ExperimentResult, NameResult, score_resolution
from repro.eval.persistence import name_result_from_dict, name_result_to_dict
from repro.eval.runner import ExperimentRunOutcome, NameLoop, NameMetrics
from repro.obs import counter, histogram, span
from repro.reldb.delta import Delta, apply_delta
from repro.resilience import CheckpointStore, Deadline, ErrorCollector, Policy

from repro.ingest.engine import IngestEngine, NameRefresh
from repro.ingest.greedy import extend_resolution

__all__ = [
    "INGEST_MODES",
    "IngestRunOutcome",
    "delta_fingerprint",
    "ingest_checkpoint",
    "ingest_resilient",
]

INGEST_MODES = ("exact", "greedy")

_NAMES_INGESTED = counter("ingest.names_scored")
_NAMES_FAILED = counter("ingest.names_failed")
_NAME_SECONDS = histogram("ingest.name_seconds")


def delta_fingerprint(delta: Delta) -> str:
    """Stable content hash of a delta's rows (checkpoint signature part)."""
    canonical = json.dumps(
        {rel: [list(row) for row in rows] for rel, rows in delta.rows.items()},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def ingest_checkpoint(
    path, names: list[str], delta: Delta, min_sim: float, mode: str
) -> CheckpointStore:
    """The checkpoint store for one ``ingest`` run's parameters."""
    return CheckpointStore(
        path,
        kind="ingest",
        signature={
            "names": list(names),
            "delta": delta_fingerprint(delta),
            "min_sim": min_sim,
            "mode": mode,
        },
    )


@dataclass
class IngestRunOutcome(ExperimentRunOutcome):
    """What a resilient ingest run produced, and how it ended: an
    experiment outcome plus the delta's epoch and the refresh stats."""

    epoch: int | None = None
    stats: dict[str, int] = field(default_factory=dict)


def _accumulate(stats: dict[str, int], refresh: NameRefresh) -> None:
    stats["names_refreshed" if refresh.refreshed else "names_clean"] += 1
    stats["refs_dirty"] += refresh.n_refs_dirty
    stats["refs_new"] += refresh.n_refs_new
    stats["pairs_recomputed"] += refresh.n_pairs_recomputed
    stats["pairs_reused"] += refresh.n_pairs_reused


def _refresh_task(payload, name: str) -> NameResult:
    """Exact-mode work: refresh one name down the ladder and score it."""
    engine, truth, stats = payload
    refresh = engine.refresh(name)
    _accumulate(stats, refresh)
    return score_resolution(refresh.resolution, truth)


def _extend_task(payload, name: str) -> NameResult:
    """Greedy-mode work: assign one name's new references and score it."""
    engine, truth, stats, cold = payload
    distinct = engine.distinct
    refs = extract_references(distinct.db, name, distinct.config)
    known = set(cold[name].rows)
    new_rows = [r for r in refs.rows if r not in known]
    extended, _ = extend_resolution(
        distinct, cold[name], new_rows, min_sim=engine.min_sim
    )
    scored = score_resolution(extended, truth)
    stats["refs_new"] += len(new_rows)
    stats["names_refreshed"] += 1
    return scored


_COLD_METRICS = NameMetrics(failed=_NAMES_FAILED)
_REFRESH_METRICS = NameMetrics(_NAMES_INGESTED, _NAMES_FAILED, _NAME_SECONDS)


def ingest_resilient(
    distinct: Distinct,
    truth: GroundTruth,
    names: list[str],
    delta: Delta,
    min_sim: float,
    mode: str = "exact",
    policy: Policy | str = Policy.RAISE,
    collector: ErrorCollector | None = None,
    checkpoint: CheckpointStore | None = None,
    deadline: Deadline | None = None,
) -> IngestRunOutcome:
    """Cold-resolve ``names``, apply ``delta``, refresh, and score.

    ``distinct.db`` must hold the *pre-delta* database; ``truth`` the
    *post-delta* ground truth (the delta's new references belong to
    known entities). ``mode="exact"`` walks the byte-identical ladder;
    ``mode="greedy"`` runs the approximate single-reference assigner.
    """
    if mode not in INGEST_MODES:
        raise ValueError(f"mode must be one of {INGEST_MODES}, got {mode!r}")
    loop = NameLoop(
        names, policy=policy, collector=collector, checkpoint=checkpoint,
        deadline=deadline, decode=name_result_from_dict,
    )
    result = ExperimentResult(variant_key=f"ingest:{mode}", min_sim=min_sim)
    stats = {
        "names_refreshed": 0, "names_clean": 0, "refs_dirty": 0, "refs_new": 0,
        "pairs_recomputed": 0, "pairs_reused": 0,
    }
    outcome = IngestRunOutcome(
        result=result, errors=loop.collector, n_total=len(names), stats=stats
    )
    with span(
        "ingest.resilient",
        mode=mode,
        min_sim=min_sim,
        n_names=len(names),
    ) as sp:
        # -- cold phase: pre-delta state for every name still to ingest ----
        engine = IngestEngine(distinct, min_sim=min_sim)
        cold = loop.run(
            "ingest.cold", IngestEngine.resolve, engine, metrics=_COLD_METRICS
        )

        # -- ingest phase: one apply, then per-name refresh + score --------
        if not loop.interrupted:
            if mode == "exact":
                outcome.epoch = engine.apply(delta).epoch
                task, payload = _refresh_task, (engine, truth, stats)
            else:
                outcome.epoch = apply_delta(distinct.db, delta).epoch
                task, payload = _extend_task, (engine, truth, stats, cold)
            loop.run(
                "ingest.refresh", task, payload, [n for n in names if n in cold],
                encode=name_result_to_dict, metrics=_REFRESH_METRICS,
            )
        result.names = loop.completed()
        outcome.interrupted = loop.interrupted
        sp.annotate(
            n_completed=outcome.n_completed,
            n_failed=len(loop.collector),
            interrupted=outcome.interrupted,
        )
    loop.finish()
    return outcome
