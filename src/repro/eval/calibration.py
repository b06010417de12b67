"""Automatic min-sim calibration from synthetic ambiguity.

The paper reports a fixed min-sim but not how it was chosen. This module
makes the choice automatic, with the same spirit as §3's training-set trick:
*pretend* that k rare names (assumed unique, §3) are one shared name by
pooling their references, resolve the pooled set, and score against the
known grouping. Sweeping the threshold over many such synthetic ambiguous
names and picking the f-maximizing value calibrates min-sim with zero
manual labels.

The pooled references are profiled with the union of the member names'
exclusions, exactly as a genuinely shared name would be.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.distinct import Distinct, NamePreparation
from repro.core.features import all_pairs, compute_pair_features
from repro.core.references import extract_references
from repro.errors import DeadlineExceeded, NotFittedError, TrainingError
from repro.eval.metrics import pairwise_scores
from repro.ml.trainingset import build_training_set
from repro.obs import get_logger, span
from repro.perf import (
    DEFAULT_TASK_RETRIES,
    RemoteTaskError,
    ordered_process_map,
)
from repro.resilience import (
    CheckpointStore,
    Deadline,
    ErrorCollector,
    Policy,
    fault_check,
    guard,
)

log = get_logger("eval.calibration")

DEFAULT_GRID: tuple[float, ...] = (
    0.001, 0.002, 0.004, 0.006, 0.008, 0.012, 0.02, 0.03, 0.05,
)


@dataclass
class SyntheticName:
    """One pooled pseudo-ambiguous name: rows + their true grouping."""

    member_names: tuple[str, ...]
    rows: list[int]
    gold: list[set[int]]


@dataclass
class CalibrationResult:
    """Outcome of :func:`calibrate_min_sim`.

    ``seconds_prepare`` / ``seconds_sweep`` are ``time.perf_counter``
    wall times of the two calibration phases (profiling the pooled
    synthetic names vs. the threshold sweep over them).
    """

    best_min_sim: float
    f1_by_min_sim: dict[float, float]
    n_synthetic_names: int
    members_per_name: int
    details: list[SyntheticName] = field(default_factory=list, repr=False)
    seconds_prepare: float = 0.0
    seconds_sweep: float = 0.0
    #: Synthetic names actually scored (— < n_synthetic_names when some were
    #: skipped/collected by the error policy or cut off by the deadline).
    n_scored: int = 0
    interrupted: bool = False

    @property
    def seconds_total(self) -> float:
        return self.seconds_prepare + self.seconds_sweep


def make_synthetic_names(
    distinct: Distinct,
    n_names: int = 20,
    members: int = 3,
    min_refs: int = 3,
    max_refs: int = 25,
    seed: int = 0,
) -> list[SyntheticName]:
    """Sample pseudo-ambiguous names by pooling rare names' references."""
    if distinct.db is None:
        raise NotFittedError("fit the pipeline before calibrating")
    config = distinct.config
    training = build_training_set(
        distinct.db,
        n_positive=1,
        n_negative=1,
        max_token_count=config.max_token_count,
        min_refs=min_refs,
        max_refs=max_refs,
        seed=seed,
        reference_relation=config.reference_relation,
        object_relation=config.object_relation,
        object_key=config.object_key,
        name_attribute=config.name_attribute,
    )
    rare_names = training.rare_names
    if len(rare_names) < members:
        raise TrainingError(
            f"only {len(rare_names)} rare names available; need >= {members}"
        )

    rng = random.Random(seed)
    synthetic: list[SyntheticName] = []
    for _ in range(n_names):
        chosen = tuple(rng.sample(rare_names, members))
        rows: list[int] = []
        gold: list[set[int]] = []
        for name in chosen:
            refs = extract_references(distinct.db, name, config)
            rows.extend(refs.rows)
            gold.append(set(refs.rows))
        synthetic.append(SyntheticName(chosen, sorted(rows), gold))
    return synthetic


def prepare_synthetic(distinct: Distinct, synthetic: SyntheticName) -> NamePreparation:
    """Profile a pooled pseudo-name with the union of member exclusions."""
    assert distinct.db is not None and distinct.paths_ is not None
    fault_check("profile", "+".join(synthetic.member_names))
    config = distinct.config
    excluded_rows: set[int] = set()
    for name in synthetic.member_names:
        refs = extract_references(distinct.db, name, config)
        excluded_rows.update(refs.object_rows)
    builder = distinct._builder({config.object_relation: frozenset(excluded_rows)})
    features = compute_pair_features(builder, all_pairs(synthetic.rows))
    return NamePreparation(
        name="+".join(synthetic.member_names), rows=synthetic.rows, features=features
    )


def _calibrate_name_task(payload, synthetic: SyntheticName) -> dict:
    """Worker body for parallel calibration: profile + sweep one pooled name.

    Returns the per-grid-point f1 list plus the phase wall times so the
    parent's :class:`CalibrationResult` timing fields stay meaningful
    (they sum worker-side seconds, exactly like a serial run would).
    """
    distinct, grid = payload
    tp = time.perf_counter()
    prep = prepare_synthetic(distinct, synthetic)
    ts = time.perf_counter()
    f1s = [
        pairwise_scores(
            distinct.cluster_prepared(prep, min_sim=min_sim).clusters,
            synthetic.gold,
        ).f1
        for min_sim in grid
    ]
    return {
        "f1": f1s,
        "seconds_prepare": ts - tp,
        "seconds_sweep": time.perf_counter() - ts,
    }


def calibration_checkpoint(
    path,
    grid: tuple[float, ...] = DEFAULT_GRID,
    n_names: int = 20,
    members: int = 3,
    seed: int = 0,
) -> CheckpointStore:
    """The checkpoint store for one ``calibrate`` run's parameters."""
    return CheckpointStore(
        path,
        kind="calibrate",
        signature={
            "grid": list(grid),
            "n_names": n_names,
            "members": members,
            "seed": seed,
        },
    )


def calibrate_min_sim(
    distinct: Distinct,
    grid: tuple[float, ...] = DEFAULT_GRID,
    n_names: int = 20,
    members: int = 3,
    seed: int = 0,
    policy: Policy | str = Policy.RAISE,
    collector: ErrorCollector | None = None,
    checkpoint: CheckpointStore | None = None,
    deadline: Deadline | None = None,
    workers: int = 1,
    task_retries: int = DEFAULT_TASK_RETRIES,
) -> CalibrationResult:
    """Pick the f-maximizing min-sim over synthetic ambiguous names.

    Uses the already-fitted supervised models and the composite measure —
    the exact configuration that will run at resolve time.

    The expensive per-synthetic-name work (profiling the pooled references,
    then sweeping the grid) runs one name at a time so failures follow
    ``policy``, progress can be ``checkpoint``-ed after every name and
    resumed, and an expired ``deadline`` stops the run gracefully
    (``interrupted=True``; the partial result covers the scored names).
    Raises :class:`DeadlineExceeded` if the deadline expires before any
    synthetic name was scored.

    ``workers > 1`` fans the per-name work out over a process pool
    (:func:`repro.perf.ordered_process_map`); results are consumed in
    input order and worker failures re-enter the same ``guard`` the
    serial path uses, so the calibrated threshold and every policy /
    checkpoint / deadline behaviour match a single-worker run.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    policy = Policy.coerce(policy)
    collector = collector if collector is not None else ErrorCollector()
    t0 = time.perf_counter()
    with span("calibration.make_names", n_names=n_names, members=members):
        synthetic = make_synthetic_names(
            distinct, n_names=n_names, members=members, seed=seed
        )

    done: dict[str, list[float]] = {}
    if checkpoint is not None and checkpoint.exists():
        payload = checkpoint.load()  # None: corrupt file was quarantined
        if payload is not None:
            done = {entry["key"]: entry["f1"] for entry in payload["completed"]}

    completed: list[dict] = []
    per_name_f1: list[list[float]] = []
    interrupted = False
    seconds_prepare = time.perf_counter() - t0  # synthetic-name construction
    seconds_sweep = 0.0

    def save_progress(complete: bool = False) -> None:
        if checkpoint is not None:
            checkpoint.save(completed, errors=collector.to_dicts(), complete=complete)

    with span(
        "calibration.names",
        n_names=len(synthetic),
        grid_size=len(grid),
        workers=workers,
    ):
        results_iter = None
        if workers > 1:
            pending = [
                syn for syn in synthetic
                if "+".join(syn.member_names) not in done
            ]
            results_iter = ordered_process_map(
                _calibrate_name_task,
                (distinct, grid),
                pending,
                workers=workers,
                deadline=deadline,
                task_retries=task_retries,
            )
        try:
            for syn in synthetic:
                key = "+".join(syn.member_names)
                if deadline is not None and deadline.expired():
                    interrupted = True
                    log.warning(
                        "calibration deadline expired after %d/%d synthetic names",
                        len(per_name_f1), len(synthetic),
                    )
                    break
                if key in done:
                    per_name_f1.append(done[key])
                    completed.append({"key": key, "f1": done[key]})
                    continue
                f1s: list[float] | None = None
                if results_iter is not None:
                    task = next(results_iter)
                    assert task.item is syn, "parallel map yielded out of order"
                    if task.interrupted:
                        interrupted = True
                        log.warning(
                            "calibration deadline expired after %d/%d synthetic names",
                            len(per_name_f1), len(synthetic),
                        )
                        break
                    with guard("calibration.name", key, policy, collector):
                        if task.error is not None:
                            raise RemoteTaskError(task.error)
                        f1s = task.value["f1"]
                        seconds_prepare += task.value["seconds_prepare"]
                        seconds_sweep += task.value["seconds_sweep"]
                else:
                    with guard("calibration.name", key, policy, collector):
                        tp = time.perf_counter()
                        prep = prepare_synthetic(distinct, syn)
                        seconds_prepare += time.perf_counter() - tp
                        ts = time.perf_counter()
                        f1s = [
                            pairwise_scores(
                                distinct.cluster_prepared(
                                    prep, min_sim=min_sim
                                ).clusters,
                                syn.gold,
                            ).f1
                            for min_sim in grid
                        ]
                        seconds_sweep += time.perf_counter() - ts
                if f1s is None:  # failed; policy skipped/collected it
                    save_progress()
                    continue
                per_name_f1.append(f1s)
                completed.append({"key": key, "f1": f1s})
                save_progress()
        finally:
            if results_iter is not None:
                # Cancels still-queued tasks when the loop exits early
                # (deadline, raise policy); no-op after full consumption.
                results_iter.close()

    if not per_name_f1:
        if interrupted:
            raise DeadlineExceeded(
                "calibration deadline expired before any synthetic name was scored"
            )
        raise TrainingError(
            "no synthetic name could be scored "
            f"({len(collector)} failure(s) collected)"
        )

    f1_by_min_sim = {
        min_sim: float(np.mean([f1s[i] for f1s in per_name_f1]))
        for i, min_sim in enumerate(grid)
    }
    save_progress(complete=not interrupted)

    best = max(f1_by_min_sim, key=f1_by_min_sim.get)
    log.info(
        "calibrated min_sim=%g over %d/%d synthetic names "
        "(prepare %.2fs, sweep %.2fs)",
        best, len(per_name_f1), len(synthetic), seconds_prepare, seconds_sweep,
    )
    return CalibrationResult(
        best_min_sim=best,
        f1_by_min_sim=f1_by_min_sim,
        n_synthetic_names=n_names,
        members_per_name=members,
        details=synthetic,
        seconds_prepare=seconds_prepare,
        seconds_sweep=seconds_sweep,
        n_scored=len(per_name_f1),
        interrupted=interrupted,
    )
