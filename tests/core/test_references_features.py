import numpy as np
import pytest

from repro.config import DistinctConfig
from repro.core.features import all_pairs, compute_pair_features, pair_matrix
from repro.core.references import (
    NameReferences,
    exclusions_for_name,
    extract_references,
    reference_counts_by_name,
)
from repro.errors import ReproError
from repro.paths import JoinPath, ProfileBuilder
from repro.reldb.joins import JoinStep

from tests.minidb import WW_AUTHOR_ROW, WW_REFS, build_minidb

PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
COAUTHOR = JoinPath(
    [PUB_PAP, PUB_PAP.reverse(), JoinStep("Publish", "author_key", "Authors", "author_key", "n1")]
)


class TestReferences:
    def test_extract_references_minidb(self):
        db = build_minidb()
        refs = extract_references(db, "Wei Wang")
        assert refs.rows == WW_REFS
        assert refs.object_rows == [WW_AUTHOR_ROW]
        assert refs.exclusions == {"Authors": frozenset({WW_AUTHOR_ROW})}

    def test_pooled_unites_rows_and_exclusions(self):
        db = build_minidb()
        wei = extract_references(db, "Wei Wang")
        jiong = extract_references(db, "Jiong Yang")
        pooled = NameReferences.pooled("Wei Wang+Jiong Yang", [wei, jiong])
        assert pooled.name == "Wei Wang+Jiong Yang"
        assert pooled.rows == sorted(wei.rows + jiong.rows)
        assert pooled.object_rows == wei.object_rows + jiong.object_rows
        assert pooled.exclusions == {
            "Authors": frozenset(wei.object_rows + jiong.object_rows)
        }

    def test_extract_unknown_name_raises(self):
        db = build_minidb()
        with pytest.raises(ReproError):
            extract_references(db, "Nobody Here")

    def test_exclusions_for_name(self):
        db = build_minidb()
        excl = exclusions_for_name(db, "Wei Wang")
        assert excl == {"Authors": frozenset({WW_AUTHOR_ROW})}

    def test_reference_counts_by_name(self):
        db = build_minidb()
        counts = reference_counts_by_name(db)
        assert counts["Wei Wang"] == 4
        assert counts["Jiong Yang"] == 2

    def test_counts_on_small_world(self, small_db):
        db, truth = small_db
        counts = reference_counts_by_name(db)
        assert counts["Wei Wang"] == len(truth.rows_of_name["Wei Wang"]) == 23


class TestPairFeatures:
    def make_features(self):
        exclusions = {"Authors": frozenset({WW_AUTHOR_ROW})}
        matrices = ProfileBuilder(build_minidb(), [COAUTHOR]).matrices_for(
            WW_REFS, [exclusions] * len(WW_REFS)
        )
        pairs = all_pairs(WW_REFS)
        return compute_pair_features([COAUTHOR], pairs, matrices), pairs

    def test_all_pairs(self):
        assert all_pairs([1, 2, 3]).tolist() == [[1, 2], [1, 3], [2, 3]]
        assert all_pairs([9, 4, 7]).tolist() == [[9, 4], [9, 7], [4, 7]]
        for rows in ([7], []):
            pairs = all_pairs(rows)
            assert pairs.shape == (0, 2)
            assert pairs.dtype == np.int64

    def test_shapes(self):
        features, pairs = self.make_features()
        assert features.n_pairs == 6
        assert features.resemblance.shape == (6, 1)
        assert features.walk.shape == (6, 1)

    def test_known_values(self):
        features, pairs = self.make_features()
        value = {
            tuple(p): features.resemblance[k, 0] for k, p in enumerate(pairs.tolist())
        }
        assert value[(0, 6)] == pytest.approx(1 / 3)
        assert value[(0, 3)] == 0.0

    def test_combined_weighted_sum(self):
        features, _ = self.make_features()
        resem, walk = features.combined(np.array([2.0]), np.array([0.5]))
        assert np.allclose(resem, 2.0 * features.resemblance[:, 0])
        assert np.allclose(walk, 0.5 * features.walk[:, 0])

    def test_combined_length_mismatch(self):
        features, _ = self.make_features()
        with pytest.raises(ValueError):
            features.combined(np.array([1.0, 2.0]), np.array([1.0]))

    def test_pair_matrix_symmetric(self):
        features, pairs = self.make_features()
        matrix = pair_matrix(len(WW_REFS), features.resemblance[:, 0])
        assert matrix.shape == (4, 4)
        assert np.allclose(matrix, matrix.T)
        assert matrix[0, 2] == pytest.approx(1 / 3)  # rows 0 and 6
        assert np.all(np.diag(matrix) == 0.0)

    def test_pair_matrix_unsorted_rows_and_pairs(self):
        # Rows [30, 10, 20] in any order; values in all_pairs order of them:
        # (30, 10), (30, 20), (10, 20).
        assert all_pairs([30, 10, 20]).tolist() == [[30, 10], [30, 20], [10, 20]]
        matrix = pair_matrix(3, np.array([2.0, 1.0, 0.0]))
        expected = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(matrix, expected)
