import numpy as np
import pytest

from repro.paths import JoinPath
from repro.paths.propagation import make_exclusions
from repro.reldb.joins import JoinStep
from repro.similarity.vectorized import pair_similarities

from tests.minidb import WW_AUTHOR_ROW, WW_REFS, build_minidb
from tests.oracle import ScalarProfileBuilder, profile_matrices, walk_probability

PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
COAUTHOR = JoinPath(
    [PUB_PAP, PUB_PAP.reverse(), JoinStep("Publish", "author_key", "Authors", "author_key", "n1")]
)


def pairwise_walk_matrix(profiles) -> np.ndarray:
    """The symmetric walk matrix, one pair-kernel call over the upper triangle."""
    forward, backward = profile_matrices(profiles)
    iu, ju = np.triu_indices(len(profiles), k=1)
    matrix = np.zeros((len(profiles), len(profiles)))
    _, walk = pair_similarities(forward, backward, iu, ju)
    matrix[iu, ju] = matrix[ju, iu] = walk
    return matrix


@pytest.fixture(scope="module")
def ww_profiles():
    db = build_minidb()
    builder = ScalarProfileBuilder(db, [COAUTHOR], make_exclusions(Authors={WW_AUTHOR_ROW}))
    return [builder.profile(COAUTHOR, row) for row in WW_REFS]


class TestProfileMatrices:
    def test_shapes_and_values(self, ww_profiles):
        forward, backward = profile_matrices(ww_profiles)
        assert forward.shape == backward.shape
        assert forward.shape[0] == len(WW_REFS)
        # Row sums equal forward masses.
        masses = np.asarray(forward.sum(axis=1)).ravel()
        for mass, profile in zip(masses, ww_profiles):
            assert mass == pytest.approx(profile.forward_mass())

    def test_empty_input(self, ww_profiles):
        forward, backward = profile_matrices(ww_profiles)
        resem, walk = pair_similarities(forward, backward, [], [])
        assert resem.shape == walk.shape == (0,)


class TestPairwiseWalkMatrix:
    def test_matches_scalar_implementation(self, ww_profiles):
        matrix = pairwise_walk_matrix(ww_profiles)
        n = len(ww_profiles)
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert matrix[i, j] == 0.0
                else:
                    expected = walk_probability(ww_profiles[i], ww_profiles[j])
                    assert matrix[i, j] == pytest.approx(expected)

    def test_symmetric(self, ww_profiles):
        matrix = pairwise_walk_matrix(ww_profiles)
        assert np.allclose(matrix, matrix.T)

    def test_known_value(self, ww_profiles):
        # walk(r0, r6) = (1/8 + 1/6) / 2 from the worked example.
        matrix = pairwise_walk_matrix(ww_profiles)
        assert matrix[0, 2] == pytest.approx((1 / 8 + 1 / 6) / 2)


class TestVectorizedOnLargerWorld:
    def test_equivalence_on_fixture_world(self, fitted, small_db):
        db, truth = small_db
        rows = truth.rows_of_name["Wei Wang"]
        from repro.core.references import exclusions_for_name

        builder = ScalarProfileBuilder(
            db, fitted.paths_, exclusions_for_name(db, "Wei Wang", fitted.config)
        )
        path = fitted.paths_[5]
        profiles = [builder.profile(path, row) for row in rows]
        matrix = pairwise_walk_matrix(profiles)
        for i in (0, 3, 7):
            for j in (1, 5, 11):
                expected = walk_probability(profiles[i], profiles[j])
                assert matrix[i, j] == pytest.approx(expected)
