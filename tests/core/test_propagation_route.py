"""The one propagation route: every batch any caller propagates goes
through :meth:`repro.paths.profiles.ProfileBuilder.matrices_for`,
resolving a name extracts its references once, and a database codes
each joined column once."""

from __future__ import annotations

import repro.core.distinct as distinct_module
import repro.core.references as references
from repro import Distinct, DistinctConfig
from repro.core.explain import explain_pair
from repro.data.world import world_to_database
from repro.eval.calibration import calibrate_min_sim
from repro.ingest import IngestEngine
from repro.ingest.greedy import extend_resolution
from repro.obs import get_metrics
from repro.paths.profiles import ProfileBuilder
from repro.reldb.index import KeyColumn

from tests.ingest.test_engine import (
    MIN_SIM,
    NAMES,
    assert_same_state,
    own_traces,
    warm_pipeline,
)


def test_every_batch_goes_through_matrices_for(fitted, small_world, monkeypatch):
    """Fit, prepare, calibration, explanation, ingest's cold resolves,
    its ``apply`` and greedy assignment each propagate, and every batch
    they run is one ``matrices_for`` call; the refreshes after ``apply``
    run none, and land on a cold resolve's resolution and traces."""
    calls: list[None] = []
    original = ProfileBuilder.matrices_for

    def spy(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ProfileBuilder, "matrices_for", spy)
    runs = get_metrics().counter("propagation.batch.runs")

    def through_route(step, fn):
        n_calls, n_runs = len(calls), runs.value
        out = fn()
        assert len(calls) - n_calls >= 1, step
        assert len(calls) - n_calls == runs.value - n_runs, step
        return out

    _, split = warm_pipeline(fitted, small_world)
    config = DistinctConfig(n_positive=40, n_negative=40, svm_C=10.0)
    distinct = through_route("fit", lambda: Distinct(config).fit(split.base))
    prep = through_route("prepare", lambda: distinct.prepare("Wei Wang"))
    through_route("calibrate", lambda: calibrate_min_sim(distinct, n_names=2, members=2))
    through_route(
        "explain", lambda: explain_pair(distinct, "Wei Wang", prep.rows[0], prep.rows[1])
    )

    engine = IngestEngine(distinct, min_sim=MIN_SIM)
    cold = through_route("cold", lambda: {name: engine.resolve(name) for name in NAMES})
    through_route("apply", lambda: engine.apply(split.delta))
    n_calls = len(calls)
    refreshes = engine.refresh_all()
    assert len(calls) == n_calls
    known = set(cold["Jim Smith"].rows)
    new_rows = [row for row in engine.resolution("Jim Smith").rows if row not in known]
    assert new_rows
    through_route(
        "extend", lambda: extend_resolution(distinct, cold["Jim Smith"], new_rows)
    )

    cold_engine = IngestEngine(
        Distinct.from_models(
            distinct.db, distinct.resem_model_, distinct.walk_model_, config
        ),
        min_sim=MIN_SIM,
    )
    for refresh in refreshes:
        name = refresh.name
        want = through_route("cold resolve", lambda: cold_engine.resolve(name))
        assert_same_state(
            (refresh.resolution, own_traces(engine, name)),
            (want, own_traces(cold_engine, name)),
            refresh.refreshed,
        )


def test_prepare_extracts_references_once(fitted, monkeypatch):
    names: list[str] = []
    original = references.extract_references

    def spy(db, name, *args, **kwargs):
        names.append(name)
        return original(db, name, *args, **kwargs)

    monkeypatch.setattr(references, "extract_references", spy)
    monkeypatch.setattr(distinct_module, "extract_references", spy)
    for name in ("Wei Wang", "Jim Smith"):
        fitted.prepare(name)
    assert names == ["Wei Wang", "Jim Smith"]


def test_a_fit_codes_each_joined_column_once(small_world, monkeypatch):
    """Loading a database and fitting on it code every column a live
    path joins on exactly once; a second fit on the same database codes
    none."""
    coded: list[tuple[str, str]] = []
    original = KeyColumn.refresh

    def spy(self):
        if self.stale:
            coded.append((self.table.schema.name, self.attribute))
        return original(self)

    monkeypatch.setattr(KeyColumn, "refresh", spy)
    db, _ = world_to_database(small_world)
    config = DistinctConfig(n_positive=40, n_negative=40, svm_C=10.0)
    distinct = Distinct(config).fit(db)
    joined = {
        column
        for path in distinct.paths_
        for step in path
        for column in (
            (step.src_relation, step.src_attribute),
            (step.dst_relation, step.dst_attribute),
        )
    }
    assert joined and joined <= set(coded)
    assert len(coded) == len(set(coded))
    coded.clear()
    Distinct(config).fit(db)
    assert coded == []
