"""Property tests: the pair kernel equals the scalar reference, bit-stably.

Random profiles honoring the propagation invariants are pushed through
both implementations; values must agree to floating-point reassociation
tolerance on every pair, for every chunk budget. A pair's values must
also be bit-identical under either enumeration of the shared support,
whatever else is scored beside it and whatever rows surround it.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.perf.chunking as chunking
import repro.similarity.vectorized as vectorized
from repro.paths import JoinPath
from repro.reldb.joins import JoinStep
from repro.similarity.vectorized import pair_similarities

from tests.oracle import (
    NeighborProfile,
    profile_matrices,
    set_resemblance,
    walk_probability,
)

PATH = JoinPath([JoinStep("A", "x", "B", "y", "n1")])

ATOL = 1e-12

probability = st.floats(
    min_value=1e-6, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def profiles(draw, min_support: int = 0):
    """One random profile: forward a sub-distribution, backward in (0, 1]."""
    support = draw(
        st.sets(st.integers(min_value=0, max_value=15), min_size=min_support, max_size=10)
    )
    forwards = {t: draw(probability) for t in support}
    total = sum(forwards.values())
    if total > 1.0:
        forwards = {t: v / total for t, v in forwards.items()}
    weights = {t: (forwards[t], draw(probability)) for t in support}
    return NeighborProfile(path=PATH, origin_row=0, weights=weights)


profile_lists = st.lists(profiles(), min_size=1, max_size=7)

#: Wider supports, so pairs share several columns and chunks split them.
overlapping_profile_lists = st.lists(profiles(min_support=4), min_size=2, max_size=9)


ENUMERATIONS = [vectorized.cooccurrence_terms, vectorized.intersection_terms]


def slice_budget(budget_bytes: int):
    return mock.patch.object(chunking, "TERM_CHUNK_BYTES", budget_bytes)


def forced(enumeration):
    return mock.patch.object(
        vectorized, "cheaper_enumeration", lambda *_: enumeration
    )


@st.composite
def pair_lists(draw, n: int, max_size: int = 12):
    """Random pairs of ``n`` rows: any order, repeats and self-pairs."""
    index = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=max_size))
    return np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])


def full_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    grid = np.arange(n)
    return np.repeat(grid, n), np.tile(grid, n)


class TestAllPairsMatrices:
    @given(profile_lists, st.integers(min_value=1, max_value=4096))
    @settings(max_examples=60, deadline=None)
    def test_resemblance_matrix_matches_scalar(self, group, budget_bytes):
        forward, backward = profile_matrices(group)
        idx_a, idx_b = full_grid(len(group))
        with slice_budget(budget_bytes):
            values, _ = pair_similarities(forward, backward, idx_a, idx_b)
        for a, b, value in zip(idx_a, idx_b, values):
            expected = set_resemblance(group[a], group[b])
            assert value == pytest.approx(expected, abs=ATOL)

    @given(profile_lists, st.integers(min_value=1, max_value=4096))
    @settings(max_examples=60, deadline=None)
    def test_walk_matrix_matches_scalar(self, group, budget_bytes):
        forward, backward = profile_matrices(group)
        idx_a, idx_b = full_grid(len(group))
        with slice_budget(budget_bytes):
            _, values = pair_similarities(forward, backward, idx_a, idx_b)
        for a, b, value in zip(idx_a, idx_b, values):
            expected = walk_probability(group[a], group[b])
            assert value == pytest.approx(expected, abs=ATOL)


class TestPairListKernels:
    @given(profile_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_kernels_match_scalar(self, group, data):
        idx_a, idx_b = data.draw(pair_lists(len(group)))
        forward, backward = profile_matrices(group)
        with slice_budget(data.draw(st.integers(min_value=1, max_value=2048))):
            resem, walk = pair_similarities(forward, backward, idx_a, idx_b)
        for k, (a, b) in enumerate(zip(idx_a, idx_b)):
            assert resem[k] == pytest.approx(
                set_resemblance(group[a], group[b]), abs=ATOL
            )
            assert walk[k] == pytest.approx(
                walk_probability(group[a], group[b]), abs=ATOL
            )


class TestBitwiseContract:
    @given(overlapping_profile_lists, st.data())
    @settings(max_examples=80, deadline=None)
    def test_enumerations_agree_bitwise(self, group, data):
        idx_a, idx_b = data.draw(pair_lists(len(group), max_size=30))
        forward, backward = profile_matrices(group)
        results = []
        for enumeration in ENUMERATIONS:
            with forced(enumeration):
                results.append(pair_similarities(forward, backward, idx_a, idx_b))
        (resem_c, walk_c), (resem_i, walk_i) = results
        np.testing.assert_array_equal(resem_c, resem_i)
        np.testing.assert_array_equal(walk_c, walk_i)

    @given(overlapping_profile_lists, st.data())
    @settings(max_examples=80, deadline=None)
    def test_pair_bits_do_not_depend_on_the_batch(self, group, data):
        idx_a, idx_b = data.draw(pair_lists(len(group), max_size=30))
        forward, backward = profile_matrices(group)
        enumeration = data.draw(st.sampled_from(ENUMERATIONS))
        with forced(enumeration):
            resem, walk = pair_similarities(forward, backward, idx_a, idx_b)
            order = data.draw(st.permutations(range(len(idx_a))))
            shuffled = pair_similarities(
                forward, backward, idx_a[order], idx_b[order]
            )
            # A 1-byte budget gives every column (or pair) a chunk of its
            # own; the others also split a pair's terms across chunks.
            rebudgeted = []
            for budget_bytes in (1, 512, 2048, 8192):
                with slice_budget(budget_bytes):
                    rebudgeted.append(
                        pair_similarities(forward, backward, idx_a, idx_b)
                    )
        np.testing.assert_array_equal(shuffled[0], resem[order])
        np.testing.assert_array_equal(shuffled[1], walk[order])
        for budget_resem, budget_walk in rebudgeted:
            np.testing.assert_array_equal(budget_resem, resem)
            np.testing.assert_array_equal(budget_walk, walk)
        # Alone: the pair's two profiles stacked on their own, scored by
        # the kernel's own choice of enumeration.
        for k, (a, b) in enumerate(zip(idx_a, idx_b)):
            pair_fwd, pair_back = profile_matrices([group[a], group[b]])
            alone = pair_similarities(
                pair_fwd, pair_back, [0], [0 if a == b else 1]
            )
            assert alone[0][0] == resem[k]
            assert alone[1][0] == walk[k]


    @given(overlapping_profile_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_outside_the_pairs_do_not_matter(self, group, data):
        """Pairs among a block of rows score the same bits with or
        without the rows around the block, also where the backward
        pattern holds fewer entries than the forward one."""
        forward, backward = profile_matrices(group)
        dropped = data.draw(st.sets(st.integers(0, backward.nnz - 1), max_size=3))
        backward.data[list(dropped)] = 0.0
        backward.eliminate_zeros()
        first = data.draw(st.integers(0, len(group) - 1))
        last = data.draw(st.integers(first + 1, len(group)))
        idx_a, idx_b = data.draw(pair_lists(last - first))
        whole = pair_similarities(forward, backward, idx_a + first, idx_b + first)
        block = pair_similarities(
            forward[first:last], backward[first:last], idx_a, idx_b
        )
        np.testing.assert_array_equal(whole[0], block[0])
        np.testing.assert_array_equal(whole[1], block[1])


class TestProfileMatrices:
    @given(profile_lists)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_weights(self, group):
        forward, backward = profile_matrices(group)
        columns = np.unique(
            np.array(
                [t for p in group for t in p.weights], dtype=np.int64
            )
        )
        assert forward.shape == (len(group), len(columns))
        dense_f = forward.toarray()
        dense_b = backward.toarray()
        col_of = {int(c): k for k, c in enumerate(columns)}
        for i, profile in enumerate(group):
            for t, (fwd, back) in profile.weights.items():
                assert dense_f[i, col_of[t]] == fwd
                assert dense_b[i, col_of[t]] == back
            assert np.count_nonzero(dense_f[i]) <= len(profile.weights)
