import math

import pytest

from repro.paths import JoinPath
from repro.paths.propagation import make_exclusions
from repro.reldb.joins import JoinStep

from tests.minidb import WW_AUTHOR_ROW, WW_REFS, build_minidb
from tests.oracle import NeighborProfile, ScalarProfileBuilder, ScalarPropagation

PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
PAP_PUB = PUB_PAP.reverse()
PUB_AUTH = JoinStep("Publish", "author_key", "Authors", "author_key", "n1")

COAUTHOR = JoinPath([PUB_PAP, PAP_PUB, PUB_AUTH])
PAPER = JoinPath([PUB_PAP])


@pytest.fixture(scope="module")
def db():
    return build_minidb()


@pytest.fixture(scope="module")
def engine(db):
    return ScalarPropagation(db, make_exclusions(Authors={WW_AUTHOR_ROW}))


class TestForward:
    def test_paper_path_is_deterministic(self, engine):
        result = engine.propagate(PAPER, 0)
        assert result.forward == {0: 1.0}

    def test_coauthor_forward_hand_computed(self, engine):
        # Ref 0 = (p0, WW); coauthors Jiong Yang (a1) and Jiawei Han (a2),
        # reached with probability 1/2 each (origin row excluded at level 2).
        result = engine.propagate(COAUTHOR, 0)
        assert result.forward == pytest.approx({1: 0.5, 2: 0.5})

    def test_single_coauthor_gets_full_mass(self, engine):
        # Ref 6 = (p2, WW); only coauthor is Jiong Yang (a1).
        result = engine.propagate(COAUTHOR, 6)
        assert result.forward == pytest.approx({1: 1.0})

    def test_forward_mass_at_most_one(self, engine):
        for ref in WW_REFS:
            assert engine.propagate(COAUTHOR, ref).forward_mass() <= 1.0 + 1e-12

    def test_without_exclusions_mass_is_conserved(self, db):
        # No global exclusions, origin still excluded: mass splits over the
        # coauthor rows only, which all reach Authors -> total mass 1.
        engine = ScalarPropagation(db)
        result = engine.propagate(COAUTHOR, 0)
        assert result.forward_mass() == pytest.approx(1.0)

    def test_origin_not_in_own_neighborhood(self, db):
        engine = ScalarPropagation(db)
        pub_sibling = JoinPath([PUB_PAP, PAP_PUB])
        result = engine.propagate(pub_sibling, 0)
        assert 0 not in result.forward
        assert set(result.forward) == {1, 2}

    def test_level_sizes_recorded(self, engine):
        result = engine.propagate(COAUTHOR, 0)
        assert result.level_sizes == [1, 1, 2, 2]


class TestBackward:
    def test_backward_hand_computed(self, engine):
        # See tests/minidb.py docstring. For ref 0: rev(a1) = 1/6 because a1
        # has authorship rows {1, 7}; row 1 gathers 1/3 (paper p0 has 3
        # authorship rows), row 7 contributes 0; degree 2 halves it.
        result = engine.propagate(COAUTHOR, 0)
        assert result.backward[1] == pytest.approx(1 / 6)
        assert result.backward[2] == pytest.approx(1 / 3)

    def test_backward_support_equals_forward_support(self, engine):
        for ref in WW_REFS:
            result = engine.propagate(COAUTHOR, ref)
            assert set(result.backward) == set(result.forward)

    def test_backward_probabilities_in_unit_interval(self, engine):
        for ref in WW_REFS:
            result = engine.propagate(COAUTHOR, ref)
            for value in result.backward.values():
                assert 0.0 < value <= 1.0 + 1e-12

    def test_backward_for_ref6(self, engine):
        # Ref 6 = (p2, WW): a1's rows {1, 7}; row 7 gathers 1/2 (p2 has two
        # authorship rows), row 1 contributes 0; degree 2 -> 1/4.
        result = engine.propagate(COAUTHOR, 6)
        assert result.backward[1] == pytest.approx(1 / 4)


class TestWalkComposition:
    def test_walk_probability_between_equivalent_refs(self, engine):
        # Walk r0 -> coauthors -> r6 = sum_t fwd_0(t) * rev_6(t)
        r0 = engine.propagate(COAUTHOR, 0)
        r6 = engine.propagate(COAUTHOR, 6)
        walk = sum(p * r6.backward.get(t, 0.0) for t, p in r0.forward.items())
        assert walk == pytest.approx(0.5 * 0.25)

    def test_walk_probability_zero_between_distinct_refs(self, engine):
        r0 = engine.propagate(COAUTHOR, 0)
        r3 = engine.propagate(COAUTHOR, 3)
        walk = sum(p * r3.backward.get(t, 0.0) for t, p in r0.forward.items())
        assert walk == 0.0


class TestProfiles:
    def test_profile_from_result(self, engine):
        profile = NeighborProfile.from_result(engine.propagate(COAUTHOR, 0))
        assert profile.support == {1, 2}
        assert profile.forward(1) == pytest.approx(0.5)
        assert profile.backward(2) == pytest.approx(1 / 3)
        assert profile.forward(99) == 0.0
        assert len(profile) == 2
        assert not profile.is_empty()
        assert profile.forward_mass() == pytest.approx(1.0)

    def test_builder_caches(self, db):
        builder = ScalarProfileBuilder(
            db, [COAUTHOR, PAPER], make_exclusions(Authors={WW_AUTHOR_ROW})
        )
        first = builder.profile(COAUTHOR, 0)
        second = builder.profile(COAUTHOR, 0)
        assert first is second
        assert builder.cache_size == 1

    def test_builder_profiles_for_and_warm(self, db):
        builder = ScalarProfileBuilder(
            db, [COAUTHOR, PAPER], make_exclusions(Authors={WW_AUTHOR_ROW})
        )
        profiles = builder.profiles_for(0)
        assert set(profiles) == {COAUTHOR, PAPER}
        builder.warm(WW_REFS)
        assert builder.cache_size == 2 * len(WW_REFS)

    def test_empty_profile_when_no_coauthors(self, db):
        # A paper where WW is the only author yields an empty coauthor profile.
        db2 = build_minidb()
        db2.insert("Publications", (4, "Solo paper", 0))
        row = db2.insert("Publish", (4, 0))
        builder = ScalarProfileBuilder(
            db2, [COAUTHOR], make_exclusions(Authors={WW_AUTHOR_ROW})
        )
        assert builder.profile(COAUTHOR, row).is_empty()


class TestExclusionHelper:
    def test_make_exclusions(self):
        excl = make_exclusions(Publish={1, 2}, Authors={0})
        assert excl == {"Publish": frozenset({1, 2}), "Authors": frozenset({0})}
        assert isinstance(excl["Publish"], frozenset)
