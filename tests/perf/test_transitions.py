"""Unit tests for the join-step matrices behind batched propagation."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.config import DistinctConfig
from repro.core.distinct import Distinct
from repro.data.world import world_to_database
from repro.obs import get_metrics
from repro.paths import JoinPath
from repro.paths.batch import batch_profile_matrices
from repro.perf.transitions import (
    StepMatrices,
    StepPair,
    build_step,
    grown_partner_rows,
)
from repro.reldb import Attribute, Database, ForeignKey, RelationSchema, Schema
from repro.reldb.delta import Delta, apply_delta
from repro.reldb.joins import JoinStep, steps_for_foreign_key

from tests.minidb import build_minidb
from tests.oracle import ScalarPropagation, assert_rows_are_partner_splits, weights_for

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
        for step in (TO_DST, TO_SRC):
            assert_rows_are_partner_splits(build_step(db, step).forward, db, step)

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
    def test_masks_match_partners_under_exclusions(self):
        """The store holds the unfiltered partner splits; exclusions are
        the route's, per reference, and ids outside a relation drop
        nothing."""
        db = toy_db()
        steps = StepMatrices()
        for step in (TO_DST, TO_SRC):
            pair = steps.get(db, step)
            assert_rows_are_partner_splits(pair.forward, db, step)
            assert_rows_are_partner_splits(pair.backward.T.tocsr(), db, step.reverse())
        paths = [JoinPath([TO_DST]), JoinPath([TO_DST, TO_SRC])]
        refs = [0, 2, 3, 4]
        excluded = {"Src": frozenset({4}), "Dst": frozenset({1})}
        padded = {"Src": frozenset({4, 99, -1}), "Dst": frozenset({1, 10**9})}
        oracle = ScalarPropagation(db, excluded)
        want = batch_profile_matrices(db, steps, paths, refs, [excluded] * len(refs))
        got = batch_profile_matrices(db, steps, paths, refs, [padded] * len(refs))
        for path in paths:
            assert (got[path].forward != want[path].forward).nnz == 0
            assert (got[path].backward != want[path].backward).nnz == 0
            for k, row in enumerate(refs):
                scalar = oracle.propagate(path, row)
                weights = weights_for(got[path], k)
                assert set(weights) == set(scalar.forward)
                for t, forward in scalar.forward.items():
                    assert weights[t][0] == pytest.approx(forward, abs=1e-12)
                    assert weights[t][1] == pytest.approx(
                        scalar.backward.get(t, 0.0), abs=1e-12
                    )


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

    def test_another_database_of_the_same_size_builds_anew(self):
        store = StepMatrices()
        store.get(toy_db(), TO_SRC)
        other = toy_db(src_rows=((0, "c"), (1, "b"), (2, None), (3, "c"), (4, "b")))
        before = _built()
        assert_same_bytes(store.get(other, TO_SRC), build_step(other, TO_SRC))
        assert _built() - before == 2

    def test_direct_insert_extends_without_an_epoch(self):
        db = toy_db()
        store = StepMatrices()
        store.get(db, TO_SRC)
        db.insert("Src", (5, "b"))  # no delta, so no epoch bump
        assert db.epoch == 0
        assert_same_bytes(store.get(db, TO_SRC), build_step(db, TO_SRC))


def assert_same_bytes(got: StepPair, want: StepPair) -> None:
    for a, b in ((got.forward, want.forward), (got.backward, want.backward)):
        assert a.shape == b.shape
        assert a.has_sorted_indices and b.has_sorted_indices
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def minidb_steps(db) -> list[JoinStep]:
    return [s for fk in db.schema.foreign_keys for s in steps_for_foreign_key(fk)]


#: Deltas for the mini DBLP database (Publish, Publications, Proceedings
#: and their virtual value relations). Between them they add NULL join
#: values on both sides of a join, first-seen virtual values (a year and
#: locations), rows that join old rows (papers in old proceedings, new
#: coauthors of old papers) and rows that join only new ones.
STREAM = [
    Delta({
        "Proceedings": [(3, 1, 2005, "Tokyo"), (4, 0, None, "Athens")],
        "Publications": [(4, "Top-k joins", 3), (5, "Untitled", None), (6, "Cubes", 0)],
        "Publish": [(4, 0), (4, 2), (5, 4), (2, None), (6, 3)],
    }),
    Delta({
        "Authors": [(5, "Jian Pei"), (None, "nobody")],
        "Conferences": [(2, "KDD", "ACM"), (3, "PODS", None)],
        "Proceedings": [(5, 2, 2005, None), (6, None, 1997, "Paris")],
        "Publications": [(7, "Mining", 5)],
        "Publish": [(7, 5), (7, 1), (0, 5), (None, 2)],
    }),
    Delta({"Publish": [(3, 2), (1, 1)]}),
]


class TestExtension:
    def test_extension_equals_a_fresh_build_across_a_stream(self):
        db = build_minidb()
        steps = minidb_steps(db)
        store = StepMatrices()
        for step in steps:
            store.get(db, step)
        grew_virtual = False
        for delta in STREAM:
            applied = apply_delta(db, delta)
            grew_virtual |= any(rel.startswith("_v_") for rel in applied.row_ids)
            for step in steps:
                assert_same_bytes(store.get(db, step), build_step(db, step))
        assert grew_virtual

    def test_step_whose_relations_did_not_grow_keeps_its_pair(self):
        db = build_minidb()
        steps = minidb_steps(db)
        store = StepMatrices()
        pairs = {step: store.get(db, step) for step in steps}
        applied = apply_delta(db, STREAM[2])  # Publish rows only
        before = _built()
        grew = set(applied.row_ids)
        grown = [s for s in steps if {s.src_relation, s.dst_relation} & grew]
        for step in steps:
            pair = store.get(db, step)
            assert (pair is pairs[step]) == (step not in grown)
        assert 0 < len(grown) < len(steps)
        assert _built() - before == len(grown)

    def test_grown_partner_rows_are_the_old_rows_a_new_row_joins(self):
        db = build_minidb()
        n_publish, n_papers = len(db.table("Publish")), len(db.table("Publications"))
        apply_delta(db, STREAM[0])
        to_papers = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
        # Papers 4-6 are new: no old authorship joins them.
        assert grown_partner_rows(db, to_papers, n_publish, n_papers).tolist() == []
        # Paper 2 gains a NULL-author row (joins no author) and paper 6
        # sits in old proceedings 0.
        to_authorships = to_papers.reverse()
        grown = grown_partner_rows(db, to_authorships, n_papers, n_publish)
        assert grown.tolist() == [2]
        to_proc = JoinStep("Proceedings", "proc_key", "Publications", "proc_key", "1n")
        assert grown_partner_rows(db, to_proc, 3, n_papers).tolist() == [0]
        assert grown_partner_rows(db, to_proc, 0, n_papers).tolist() == []


class TestDirectInsert:
    """A direct :meth:`Database.insert` bumps no epoch; the step matrices
    must still follow the rows."""

    @pytest.fixture()
    def pipeline(self, fitted, small_world):
        db, truth = world_to_database(small_world)
        distinct = Distinct.from_models(
            db, fitted.resem_model_, fitted.walk_model_, fitted.config
        )
        return distinct, truth

    @staticmethod
    def fresh_features(distinct, name):
        distinct.steps = StepMatrices()
        return distinct.prepare(name).features

    def assert_prepares_like_a_fresh_store(self, distinct, name):
        got = distinct.prepare(name).features
        want = self.fresh_features(distinct, name)
        assert got.resemblance.tobytes() == want.resemblance.tobytes()
        assert got.walk.tobytes() == want.walk.tobytes()
        return got

    def test_start_relation_grows(self, pipeline):
        distinct, truth = pipeline
        db = distinct.db
        before = distinct.prepare("Wei Wang").features
        paper, author = db.table("Publish").row(truth.rows_of_name["Wei Wang"][0])
        other_author = db.table("Publish").row(0)[1]
        db.insert("Publish", (paper, other_author if other_author != author else None))
        after = self.assert_prepares_like_a_fresh_store(distinct, "Wei Wang")
        assert after.walk.tobytes() != before.walk.tobytes()

    def test_start_relation_does_not_grow(self, pipeline):
        distinct, truth = pipeline
        db = distinct.db
        before = distinct.prepare("Wei Wang").features
        paper = db.table("Publish").row(truth.rows_of_name["Wei Wang"][0])[0]
        papers = db.table("Publications")
        proc = papers.value(papers.row_by_key(paper), "proc_key")
        db.insert("Publications", (10**6, "A new paper in an old proceedings", proc))
        after = self.assert_prepares_like_a_fresh_store(distinct, "Wei Wang")
        assert after.walk.tobytes() != before.walk.tobytes()


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
