import math

import pytest

from repro.paths import JoinPath
from repro.paths.propagation import make_exclusions
from repro.reldb.joins import JoinStep

from tests.minidb import WW_AUTHOR_ROW, build_minidb
from tests.oracle import (
    NeighborProfile,
    ScalarPropagation,
    directed_walk_probability,
    set_resemblance,
    walk_probability,
)

PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
COAUTHOR = JoinPath([PUB_PAP, PUB_PAP.reverse(),
                     JoinStep("Publish", "author_key", "Authors", "author_key", "n1")])


def profile(weights: dict[int, tuple[float, float]]) -> NeighborProfile:
    return NeighborProfile(path=COAUTHOR, origin_row=0, weights=weights)


class TestSetResemblance:
    def test_identical_profiles_have_resemblance_one(self):
        p = profile({1: (0.5, 0.2), 2: (0.5, 0.1)})
        assert set_resemblance(p, p) == pytest.approx(1.0)

    def test_disjoint_supports_have_resemblance_zero(self):
        a = profile({1: (0.5, 0.2)})
        b = profile({2: (0.5, 0.2)})
        assert set_resemblance(a, b) == 0.0

    def test_empty_profile_gives_zero(self):
        a = profile({})
        b = profile({1: (1.0, 1.0)})
        assert set_resemblance(a, b) == 0.0
        assert set_resemblance(b, a) == 0.0

    def test_hand_computed_weighted_jaccard(self):
        a = profile({1: (0.5, 0.0), 2: (0.5, 0.0)})
        b = profile({1: (1.0, 0.0)})
        # min: 0.5 ; max: 1.0 (t=1) + 0.5 (t=2 only in a) = 1.5
        assert set_resemblance(a, b) == pytest.approx(1 / 3)

    def test_symmetry(self):
        a = profile({1: (0.3, 0.0), 2: (0.7, 0.0)})
        b = profile({2: (0.4, 0.0), 3: (0.6, 0.0)})
        assert set_resemblance(a, b) == pytest.approx(set_resemblance(b, a))

    def test_on_minidb_references(self):
        db = build_minidb()
        engine = ScalarPropagation(db, make_exclusions(Authors={WW_AUTHOR_ROW}))
        p0 = NeighborProfile.from_result(engine.propagate(COAUTHOR, 0))
        p6 = NeighborProfile.from_result(engine.propagate(COAUTHOR, 6))
        p3 = NeighborProfile.from_result(engine.propagate(COAUTHOR, 3))
        assert set_resemblance(p0, p6) == pytest.approx(1 / 3)
        assert set_resemblance(p0, p3) == 0.0


class TestWalkProbability:
    def test_directed_walk_hand_computed(self):
        db = build_minidb()
        engine = ScalarPropagation(db, make_exclusions(Authors={WW_AUTHOR_ROW}))
        p0 = NeighborProfile.from_result(engine.propagate(COAUTHOR, 0))
        p6 = NeighborProfile.from_result(engine.propagate(COAUTHOR, 6))
        # fwd_0(a1)=0.5, rev_6(a1)=1/4 ; fwd_6(a1)=1.0, rev_0(a1)=1/6
        assert directed_walk_probability(p0, p6) == pytest.approx(0.125)
        assert directed_walk_probability(p6, p0) == pytest.approx(1 / 6)
        assert walk_probability(p0, p6) == pytest.approx((0.125 + 1 / 6) / 2)

    def test_walk_zero_for_disjoint(self):
        a = profile({1: (0.5, 0.5)})
        b = profile({2: (0.5, 0.5)})
        assert walk_probability(a, b) == 0.0

    def test_walk_empty_profile(self):
        a = profile({})
        b = profile({1: (1.0, 1.0)})
        assert walk_probability(a, b) == 0.0

    def test_walk_symmetric_measure_is_symmetric(self):
        a = profile({1: (0.5, 0.3), 2: (0.5, 0.1)})
        b = profile({1: (0.2, 0.9), 3: (0.8, 0.2)})
        assert walk_probability(a, b) == pytest.approx(walk_probability(b, a))

    def test_walk_bounded_by_one(self):
        a = profile({1: (1.0, 1.0)})
        b = profile({1: (1.0, 1.0)})
        assert walk_probability(a, b) == pytest.approx(1.0)
