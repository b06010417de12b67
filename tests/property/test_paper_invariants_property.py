"""Property: the paper's invariants hold on the production route.

Random chain databases (references -> mid -> top, with sibling and
back-and-forth paths) go through what the pipeline runs —
:meth:`ProfileBuilder.matrices_for` (batched propagation) and
:func:`compute_pair_features` (the matrix kernels) — and
every invariant is checked against the scalar oracle as well:

- per-path forward probability mass is at most 1, and exactly 1 when no
  tuple dead-ends (§2.2);
- set resemblance lies in [0, 1] and is symmetric (§2.3);
- the symmetrized walk probability is symmetric (§2.4);
- both measures are exactly 0 when two forward supports are disjoint,
  which is why the route needs no pair blocking: the kernels already
  score such a pair 0.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.features import all_pairs, compute_pair_features
from repro.paths import ProfileBuilder
from repro.paths.propagation import make_exclusions

from tests.oracle import scalar_pair_features
from tests.property.test_batched_propagation_property import (
    chain_database,
    chain_paths,
)

ATOL = 1e-12


def builder_for(db, exclude_origin=True, excluded_mid=None):
    exclusions = make_exclusions(Mid={excluded_mid}) if excluded_mid is not None else None
    return ProfileBuilder(db, chain_paths(db), exclusions, exclude_origin=exclude_origin)


def ref_rows(db) -> list[int]:
    return list(range(len(db.table("Refs"))))


class TestForwardMass:
    @given(chain_database())
    @settings(max_examples=40, deadline=None)
    def test_mass_is_one_without_dead_ends(self, db):
        # Every reference has a mid and every mid a top; with the origin
        # allowed as a stop, a mid reached from a reference leads back to
        # one and a top reached from a mid leads back to one. Only the
        # last chain path (top -> mid -> references) can dead-end, at a mid
        # no reference points to.
        builder = builder_for(db, exclude_origin=False)
        rows = ref_rows(db)
        matrices = builder.matrices_for(rows)
        for path in chain_paths(db)[:4]:
            stacked = matrices[path]
            masses = np.asarray(stacked.forward.sum(axis=1)).ravel()
            np.testing.assert_allclose(masses, 1.0, rtol=0, atol=ATOL)
            for k, row in enumerate(rows):
                scalar = builder.profiles_for(row)[path].forward_mass()
                assert masses[k] == pytest.approx(scalar, abs=ATOL)

    @given(chain_database(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_mass_at_most_one_with_exclusions(self, db, excluded_mid):
        builder = builder_for(db, excluded_mid=excluded_mid)
        rows = ref_rows(db)
        for path, stacked in builder.matrices_for(rows).items():
            masses = np.asarray(stacked.forward.sum(axis=1)).ravel()
            assert (masses <= 1.0 + ATOL).all()
            for k, row in enumerate(rows):
                scalar = builder.profiles_for(row)[path].forward_mass()
                assert masses[k] == pytest.approx(scalar, abs=ATOL)


class TestMeasures:
    @given(chain_database(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_resemblance_in_unit_interval_and_symmetric(self, db, excluded_mid):
        pairs = all_pairs(ref_rows(db))
        swapped = [(b, a) for a, b in pairs]
        got = compute_pair_features(builder_for(db, excluded_mid=excluded_mid), pairs)
        back = compute_pair_features(builder_for(db, excluded_mid=excluded_mid), swapped)
        oracle = scalar_pair_features(builder_for(db, excluded_mid=excluded_mid), pairs)
        assert (got.resemblance >= 0.0).all() and (got.resemblance <= 1.0).all()
        np.testing.assert_array_equal(got.resemblance, back.resemblance)
        np.testing.assert_allclose(got.resemblance, oracle.resemblance, rtol=0, atol=ATOL)

    @given(chain_database(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_symmetrized_walk_is_symmetric(self, db, excluded_mid):
        pairs = all_pairs(ref_rows(db))
        swapped = [(b, a) for a, b in pairs]
        got = compute_pair_features(builder_for(db, excluded_mid=excluded_mid), pairs)
        back = compute_pair_features(builder_for(db, excluded_mid=excluded_mid), swapped)
        oracle = scalar_pair_features(builder_for(db, excluded_mid=excluded_mid), swapped)
        assert (got.walk >= 0.0).all()
        np.testing.assert_array_equal(got.walk, back.walk)
        np.testing.assert_allclose(back.walk, oracle.walk, rtol=0, atol=ATOL)

    @given(chain_database(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_supports_give_exact_zeros(self, db, excluded_mid):
        builder = builder_for(db, excluded_mid=excluded_mid)
        pairs = all_pairs(ref_rows(db))
        got = compute_pair_features(builder, pairs)
        oracle = scalar_pair_features(builder, pairs)
        for k, (a, b) in enumerate(pairs):
            for p, path in enumerate(builder.paths):
                support_a = builder.profiles_for(a)[path].support
                support_b = builder.profiles_for(b)[path].support
                if support_a.isdisjoint(support_b):
                    assert got.resemblance[k, p] == 0.0
                    assert got.walk[k, p] == 0.0
                    assert oracle.resemblance[k, p] == 0.0
                    assert oracle.walk[k, p] == 0.0
