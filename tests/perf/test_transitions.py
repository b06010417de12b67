"""Unit tests for the per-epoch join-step matrices behind batched propagation."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.config import DistinctConfig
from repro.core.distinct import Distinct
from repro.obs import get_metrics
from repro.paths.propagation import PropagationEngine
from repro.perf.transitions import (
    StepMatrices,
    build_step,
    without_columns,
    without_rows,
)
from repro.reldb import Attribute, Database, ForeignKey, RelationSchema, Schema
from repro.reldb.delta import Delta, apply_delta
from repro.reldb.joins import steps_for_foreign_key

from tests.oracle import assert_rows_are_partner_splits

FK = ForeignKey("Src", "dst", "Dst", "k")
TO_DST, TO_SRC = steps_for_foreign_key(FK)


SRC_ROWS = ((0, "a"), (1, None), (2, "b"), (3, "a"), (4, "a"))


def toy_db(src_rows=SRC_ROWS) -> Database:
    """Src rows join Dst by value; Src row 1 has a NULL join value."""
    schema = Schema()
    schema.add_relation(
        RelationSchema("Src", [Attribute("k", kind="key"), Attribute("dst", kind="fk")])
    )
    schema.add_relation(RelationSchema("Dst", [Attribute("k", kind="key")]))
    schema.add_foreign_key(FK)
    db = Database(schema)
    for key in "abc":
        db.insert("Dst", (key,))
    for row in src_rows:
        db.insert("Src", row)
    return db


def _built() -> int:
    return int(get_metrics().snapshot()["counters"].get("perf.transitions.built", 0))


class TestBuildTransition:
    def test_rows_are_normalized_mass_splits(self):
        dense = build_step(toy_db(), TO_SRC).forward.toarray()
        np.testing.assert_allclose(dense[0], [1 / 3, 0, 0, 1 / 3, 1 / 3])
        np.testing.assert_allclose(dense[1], [0, 0, 1, 0, 0])
        assert dense[2].sum() == 0  # "c" has no partners

    def test_matches_scalar_mass_split(self):
        db = toy_db()
        engine = PropagationEngine(db)
        for step in (TO_DST, TO_SRC):
            assert_rows_are_partner_splits(build_step(db, step).forward, engine, step)

    def test_empty_row_set(self):
        db = toy_db(src_rows=())
        assert build_step(db, TO_DST).forward.shape == (0, 3)
        pair = build_step(db, TO_SRC)
        assert pair.forward.shape == (3, 0) and pair.forward.nnz == 0
        assert pair.backward.nnz == 0

    def test_null_join_value_joins_nothing(self):
        db = toy_db()
        db.insert("Dst", (None,))  # NULL on both sides of the join
        assert build_step(db, TO_DST).forward[1].nnz == 0
        reverse = build_step(db, TO_SRC).forward
        assert reverse[3].nnz == 0
        assert 1 not in reverse.indices.tolist()

    def test_backward_is_the_reverse_split_transposed(self):
        db = toy_db()
        for step in (TO_DST, TO_SRC):
            backward = build_step(db, step).backward
            reverse = build_step(db, step.reverse()).forward
            assert (backward != reverse.T.tocsr()).nnz == 0

    def test_layout_is_fixed_at_build_time(self):
        pair = build_step(toy_db(), TO_SRC)
        for matrix in (pair.forward, pair.backward):
            assert isinstance(matrix, sparse.csr_matrix)
            assert matrix.indices.dtype == np.int32
            assert matrix.indptr.dtype == np.int32
            assert matrix.has_canonical_format
        # T and T_rev.T share one sparsity pattern in memory.
        assert np.shares_memory(pair.forward.indices, pair.backward.indices)


class TestMasks:
    def test_without_columns_renormalizes_rows(self):
        forward = build_step(toy_db(), TO_SRC).forward
        dense = without_columns(forward, {3, 99, -1}).toarray()
        np.testing.assert_allclose(dense[0], [0.5, 0, 0, 0, 0.5])
        np.testing.assert_allclose(dense[1], [0, 0, 1, 0, 0])
        assert without_columns(forward, {99}) is forward  # nothing in range

    def test_without_rows_renormalizes_columns(self):
        backward = build_step(toy_db(), TO_DST).backward
        dense = without_rows(backward, {3, 99}).toarray()
        # Dst "a" now splits over Src rows 0 and 4 only.
        np.testing.assert_allclose(dense[:, 0], [0.5, 0, 0, 0, 0.5])
        np.testing.assert_allclose(dense[:, 1], [0, 0, 1, 0, 0])
        assert without_rows(backward, {99}) is backward

    def test_masks_match_partners_under_exclusions(self):
        db = toy_db()
        excluded = {"Src": frozenset({0, 99}), "Dst": frozenset({1})}
        engine = PropagationEngine(db, excluded)
        for step in (TO_DST, TO_SRC):
            pair = build_step(db, step)
            forward = without_columns(pair.forward, excluded[step.dst_relation])
            assert_rows_are_partner_splits(forward, engine, step)
            backward = without_rows(pair.backward, excluded[step.src_relation])
            assert_rows_are_partner_splits(backward.T.tocsr(), engine, step.reverse())


class TestStepMatrices:
    def test_hit_returns_same_entry(self):
        db = toy_db()
        store = StepMatrices()
        first = store.get(db, TO_SRC)
        before = _built()
        assert store.get(db, TO_SRC) is first
        assert _built() == before
        assert len(store) == 1

    def test_new_epoch_rebuilds_with_the_delta_rows(self):
        db = toy_db()
        store = StepMatrices()
        stale = store.get(db, TO_SRC)
        apply_delta(db, Delta({"Src": [(5, "c")]}))
        fresh = store.get(db, TO_SRC)
        assert fresh is not stale and len(store) == 1
        assert fresh.forward.shape == (3, 6)
        assert fresh.forward[2].indices.tolist() == [5]

    def test_another_database_rebuilds(self):
        store = StepMatrices()
        first = store.get(toy_db(), TO_SRC)
        assert store.get(toy_db(), TO_SRC) is not first


class TestSharedAcrossNames:
    def test_fit_and_resolve_build_each_step_once(self, small_db):
        db, truth = small_db
        distinct = Distinct(DistinctConfig(n_positive=40, n_negative=40, svm_C=10.0))
        before = _built()
        distinct.fit(db)
        distinct.resolve("Wei Wang")
        steps = {s for path in distinct.paths_ for step in path
                 for s in (step, step.reverse())}
        assert 0 < len(distinct.steps) <= len(steps)
        assert _built() - before == len(distinct.steps)
