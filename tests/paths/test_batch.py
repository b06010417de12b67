"""Batched sparse propagation vs the scalar oracle on the mini DBLP DB.

Every test compares :func:`repro.paths.batch.batch_profile_matrices`
row-by-row against the oracle's :meth:`ScalarPropagation.propagate` —
same exclusions, same origin handling, same supports — at reassociation
tolerance.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.cli import main
from repro.config import DistinctConfig
from repro.core.references import exclusions_for_name, extract_references
from repro.data.dblp_schema import prepare_dblp_database
from repro.obs import get_metrics
from repro.paths import JoinPath
from repro.paths.batch import batch_profile_matrices
from repro.paths.enumerate import enumerate_paths
from repro.paths.propagation import make_exclusions
from repro.perf.transitions import StepMatrices
from repro.reldb.csvio import load_database
from repro.reldb.joins import JoinStep

from tests.minidb import WW_AUTHOR_ROW, WW_REFS, build_minidb
from tests.oracle import (
    ScalarProfileBuilder,
    ScalarPropagation,
    assert_rows_are_partner_splits,
    weights_for,
)

PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
PUB_AUTH = JoinStep("Publish", "author_key", "Authors", "author_key", "n1")
PAP_PROC = JoinStep("Publications", "proc_key", "Proceedings", "proc_key", "n1")
PROC_CONF = JoinStep("Proceedings", "conf_key", "Conferences", "conf_key", "n1")

PATHS = [
    JoinPath([PUB_PAP]),
    JoinPath([PUB_PAP, PAP_PROC, PROC_CONF]),
    JoinPath([PUB_PAP, PUB_PAP.reverse(), PUB_AUTH]),
    JoinPath([PUB_PAP, PUB_PAP.reverse(), PUB_AUTH, PUB_AUTH.reverse(), PUB_PAP]),
]
EXCLUSIONS = make_exclusions(Authors={WW_AUTHOR_ROW})
ATOL = 1e-12


def assert_matches_scalar(engine: ScalarPropagation, paths=PATHS, refs=WW_REFS):
    refs = list(refs)
    batched = batch_profile_matrices(
        engine.db, StepMatrices(), paths, refs, [engine.exclusions] * len(refs)
    )
    for path in paths:
        stacked = batched[path]
        assert stacked.rows == list(refs)
        for k, row in enumerate(refs):
            scalar = engine.propagate(path, row)
            got = weights_for(stacked, k)
            assert set(got) == set(scalar.forward)  # identical supports
            for t, fwd in scalar.forward.items():
                gf, gb = got[t]
                assert gf == pytest.approx(fwd, abs=ATOL)
                assert gb == pytest.approx(scalar.backward.get(t, 0.0), abs=ATOL)


class TestBatchMatchesScalar:
    def test_with_exclusions_and_origin_drop(self):
        assert_matches_scalar(ScalarPropagation(build_minidb(), EXCLUSIONS))

    def test_without_global_exclusions(self):
        # origin exclusion still active: the shared author row is reachable
        assert_matches_scalar(ScalarPropagation(build_minidb()))

    def test_single_reference_batch(self):
        assert_matches_scalar(
            ScalarPropagation(build_minidb(), EXCLUSIONS), refs=[WW_REFS[0]]
        )

    def test_mixed_start_relations_rejected(self):
        other = JoinPath([PAP_PROC])
        with pytest.raises(ValueError, match="start"):
            batch_profile_matrices(
                build_minidb(), StepMatrices(), [PATHS[0], other], WW_REFS
            )

    def test_one_exclusion_set_per_reference(self):
        with pytest.raises(ValueError, match="exclusion sets"):
            batch_profile_matrices(
                build_minidb(), StepMatrices(), PATHS, WW_REFS, [EXCLUSIONS]
            )

    def test_origin_rows_outside_the_start_relation_rejected(self):
        # The compiled product reads indices unchecked: a bad origin must
        # stop the batch before any level is built.
        db = build_minidb()
        n_rows = len(db.table(PATHS[0].start_relation))
        for bad in (-1, n_rows):
            with pytest.raises(ValueError, match="origin rows outside"):
                batch_profile_matrices(db, StepMatrices(), PATHS, [WW_REFS[0], bad])

    def test_empty_paths(self):
        assert batch_profile_matrices(build_minidb(), StepMatrices(), [], WW_REFS) == {}

    def test_no_rows_runs_no_batch(self):
        runs = get_metrics().counter("propagation.batch.runs")
        before = runs.value
        assert batch_profile_matrices(build_minidb(), StepMatrices(), PATHS, []) == {}
        assert runs.value == before


class TestBatchedProfilesContract:
    def test_backward_pattern_subset_of_forward(self):
        exclusions = [EXCLUSIONS] * len(WW_REFS)
        batched = batch_profile_matrices(
            build_minidb(), StepMatrices(), PATHS, WW_REFS, exclusions
        )
        for stacked in batched.values():
            fwd = stacked.forward
            back = stacked.backward
            for k in range(fwd.shape[0]):
                f_cols = set(fwd.getrow(k).indices.tolist())
                b_cols = set(back.getrow(k).indices.tolist())
                assert b_cols <= f_cols

    def test_builder_matrices_for_equals_profiles(self):
        builder = ScalarProfileBuilder(build_minidb(), PATHS, EXCLUSIONS)
        batched = builder.matrices_for(WW_REFS)
        for path in PATHS:
            for k, row in enumerate(WW_REFS):
                profile = builder.profile(path, row)
                got = weights_for(batched[path], k)
                assert set(got) == profile.support
                for t, (fwd, back) in got.items():
                    ef, eb = profile.weights[t]
                    assert fwd == pytest.approx(ef, abs=ATOL)
                    assert back == pytest.approx(eb, abs=ATOL)

    def test_tuples_visited_keeps_the_scalar_definition(self, fitted, small_db):
        """Batched propagation counts the tuples the scalar trie walk
        materializes, summed over references, on a real name."""
        db, truth = small_db
        rows = truth.rows_of_name["Wei Wang"]
        exclusions = exclusions_for_name(db, "Wei Wang", fitted.config)
        oracle = ScalarProfileBuilder(db, fitted.paths_, exclusions)
        oracle.warm(rows)
        scalar = oracle.engine.tuples_visited
        tuples = get_metrics().counter("propagation.tuples_visited")
        before = tuples.value
        fitted.profiles.matrices_for(rows, [exclusions] * len(rows))
        assert scalar > 0
        assert tuples.value - before == scalar

    def test_batch_leaves_no_reference_cycle(self):
        db = build_minidb()
        gc.collect()
        gc.disable()
        try:
            batch_profile_matrices(
                db, StepMatrices(), PATHS, list(WW_REFS), [EXCLUSIONS] * len(WW_REFS)
            )
            # A cycle would keep the batch's matrices until the cyclic
            # collector happened to run.
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestStepMatricesOnCliWorld:
    def test_every_row_equals_partners_under_exclusions(self, tmp_path):
        """Both matrices of every step, in both directions, against the
        scalar partner lists, across NULL join values; then a name's
        exclusions padded with ids outside the relation propagate to the
        same bytes as the name's own, and match the scalar oracle."""
        out = tmp_path / "db"
        assert main(["generate", "--out", str(out), "--scale", "0.3", "--seed", "5"]) == 0
        db = prepare_dblp_database(load_database(out))
        # The generator writes no NULLs; give each join column one (and
        # the author key a NULL on both sides of its join).
        db.insert("Authors", (None, "nobody"))
        db.insert("Publish", (10**6, None))
        db.insert("Publications", (10**6, "untitled", None))
        db.insert("Proceedings", (10**6, None, None, None))
        db.insert("Conferences", (10**6, "unnamed", None))
        config = DistinctConfig()
        paths = enumerate_paths(db.schema, config.reference_relation, config.path_config)
        store = StepMatrices()
        steps = {s for path in paths for step in path for s in (step, step.reverse())}
        for step in steps:
            pair = store.get(db, step)
            assert_rows_are_partner_splits(pair.forward, db, step)
            assert_rows_are_partner_splits(pair.backward.T.tocsr(), db, step.reverse())

        own = exclusions_for_name(db, "Wei Wang", config)
        padded = {relation: rows | {-1, 10**9} for relation, rows in own.items()}
        refs = extract_references(db, "Wei Wang", config).rows[:3]
        want = batch_profile_matrices(db, store, paths, refs, [own] * len(refs))
        got = batch_profile_matrices(db, store, paths, refs, [padded] * len(refs))
        for path in paths:
            for name in ("forward", "backward"):
                a, b = getattr(got[path], name), getattr(want[path], name)
                assert a.indptr.tolist() == b.indptr.tolist()
                assert a.indices.tolist() == b.indices.tolist()
                assert a.data.tobytes() == b.data.tobytes()
        assert_matches_scalar(ScalarPropagation(db, padded), paths, refs)
