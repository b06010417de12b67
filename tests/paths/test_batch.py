"""Batched sparse propagation vs the scalar engine on the mini DBLP DB.

Every test compares :func:`repro.paths.batch.batch_profile_matrices`
row-by-row against :meth:`PropagationEngine.propagate` — same exclusions,
same origin handling, same supports — at reassociation tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.config import DistinctConfig
from repro.core.references import exclusions_for_name
from repro.data.dblp_schema import prepare_dblp_database
from repro.obs import get_metrics
from repro.paths import JoinPath, ProfileBuilder, PropagationEngine
from repro.paths.batch import _BatchContext, batch_profile_matrices, merge_batched
from repro.paths.enumerate import enumerate_paths
from repro.paths.propagation import make_exclusions
from repro.reldb.csvio import load_database
from repro.reldb.joins import JoinStep

from tests.minidb import WW_AUTHOR_ROW, WW_REFS, build_minidb
from tests.oracle import assert_rows_are_partner_splits

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


def assert_matches_scalar(engine: PropagationEngine, paths=PATHS, refs=WW_REFS):
    batched = batch_profile_matrices(engine, paths, list(refs))
    for path in paths:
        stacked = batched[path]
        assert stacked.rows == list(refs)
        for k, row in enumerate(refs):
            scalar = engine.propagate(path, row)
            got = stacked.weights_for(k)
            assert set(got) == set(scalar.forward)  # identical supports
            for t, fwd in scalar.forward.items():
                gf, gb = got[t]
                assert gf == pytest.approx(fwd, abs=ATOL)
                assert gb == pytest.approx(scalar.backward.get(t, 0.0), abs=ATOL)


class TestBatchMatchesScalar:
    def test_with_exclusions_and_origin_drop(self):
        assert_matches_scalar(PropagationEngine(build_minidb(), EXCLUSIONS))

    def test_without_global_exclusions(self):
        # origin exclusion still active: the shared author row is reachable
        assert_matches_scalar(PropagationEngine(build_minidb()))

    def test_exclude_origin_false(self):
        assert_matches_scalar(
            PropagationEngine(build_minidb(), EXCLUSIONS, exclude_origin=False)
        )

    def test_single_reference_batch(self):
        assert_matches_scalar(
            PropagationEngine(build_minidb(), EXCLUSIONS), refs=[WW_REFS[0]]
        )

    def test_mixed_start_relations_rejected(self):
        engine = PropagationEngine(build_minidb(), EXCLUSIONS)
        other = JoinPath([PAP_PROC])
        with pytest.raises(ValueError, match="start"):
            batch_profile_matrices(engine, [PATHS[0], other], WW_REFS)

    def test_empty_paths(self):
        engine = PropagationEngine(build_minidb(), EXCLUSIONS)
        assert batch_profile_matrices(engine, [], WW_REFS) == {}


class TestBatchedProfilesContract:
    def test_backward_pattern_subset_of_forward(self):
        engine = PropagationEngine(build_minidb(), EXCLUSIONS)
        for stacked in batch_profile_matrices(engine, PATHS, WW_REFS).values():
            fwd = stacked.forward
            back = stacked.backward
            for k in range(fwd.shape[0]):
                f_cols = set(fwd.getrow(k).indices.tolist())
                b_cols = set(back.getrow(k).indices.tolist())
                assert b_cols <= f_cols

    def test_builder_matrices_for_equals_profiles(self):
        builder = ProfileBuilder(build_minidb(), PATHS, EXCLUSIONS)
        batched = builder.matrices_for(WW_REFS)
        for path in PATHS:
            for k, row in enumerate(WW_REFS):
                profile = builder.profile(path, row)
                got = batched[path].weights_for(k)
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
        tuples = get_metrics().counter("propagation.tuples_visited")
        before = tuples.value
        fitted.profile_builder("Wei Wang").warm(rows)
        scalar = tuples.value - before
        before = tuples.value
        fitted.profile_builder("Wei Wang").matrices_for(rows)
        assert scalar > 0
        assert tuples.value - before == scalar


class TestMergeBatched:
    def test_merge_restores_row_order(self):
        engine = PropagationEngine(build_minidb(), EXCLUSIONS)
        whole = batch_profile_matrices(engine, PATHS, WW_REFS)
        # split the batch in two and merge back in interleaved order
        part_a = batch_profile_matrices(engine, PATHS, [WW_REFS[1], WW_REFS[3]])
        part_b = batch_profile_matrices(engine, PATHS, [WW_REFS[0], WW_REFS[2]])
        merged = merge_batched(list(WW_REFS), [part_a, part_b])
        for path in PATHS:
            assert merged[path].rows == list(WW_REFS)
            np.testing.assert_allclose(
                merged[path].forward.toarray(),
                whole[path].forward.toarray(),
                rtol=0,
                atol=ATOL,
            )
            np.testing.assert_allclose(
                merged[path].backward.toarray(),
                whole[path].backward.toarray(),
                rtol=0,
                atol=ATOL,
            )


class TestStepMatricesOnCliWorld:
    def test_every_row_equals_partners_under_exclusions(self, tmp_path):
        """Both matrices of every step, in both directions, against the
        scalar partner lists: a name's exclusions plus ids outside the
        relation, and any NULL join values the world holds."""
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
        exclusions = {
            relation: rows | {-1, 10**9}
            for relation, rows in exclusions_for_name(db, "Wei Wang", config).items()
        }
        engine = PropagationEngine(db, exclusions)
        ctx = _BatchContext(engine, [])
        steps = {s for path in paths for step in path for s in (step, step.reverse())}
        for step in steps:
            assert_rows_are_partner_splits(ctx.forward(step), engine, step)
            assert_rows_are_partner_splits(
                ctx.backward(step).T.tocsr(), engine, step.reverse()
            )
