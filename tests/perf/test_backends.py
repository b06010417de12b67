"""The production pair-feature route against the scalar reference.

Uses the hand-built mini DBLP database so expectations stay checkable:
batched propagation + the pair kernel must agree with
the scalar oracle on every (pair, path) feature, whatever the chunk
budget.
"""

from __future__ import annotations

import numpy as np

import repro.perf.chunking as chunking
from repro.core.features import all_pairs, compute_pair_features
from repro.obs import get_metrics
from repro.paths import JoinPath
from repro.paths.propagation import make_exclusions
from repro.reldb.joins import JoinStep

from tests.minidb import WW_AUTHOR_ROW, WW_REFS, build_minidb
from tests.oracle import ScalarProfileBuilder, scalar_pair_features

PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
PUB_AUTH = JoinStep("Publish", "author_key", "Authors", "author_key", "n1")
PATHS = [
    JoinPath([PUB_PAP]),
    JoinPath([PUB_PAP, PUB_PAP.reverse(), PUB_AUTH]),
]


def _oracle():
    return ScalarProfileBuilder(
        build_minidb(), PATHS, make_exclusions(Authors={WW_AUTHOR_ROW})
    )


class TestBackendEquivalence:
    def test_backends_agree_on_all_pairs(self):
        pairs = all_pairs(WW_REFS)
        scalar = scalar_pair_features(_oracle(), pairs)
        route = _oracle().route_features(pairs)
        np.testing.assert_array_equal(scalar.pairs, route.pairs)
        np.testing.assert_allclose(
            scalar.resemblance, route.resemblance, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(scalar.walk, route.walk, rtol=0, atol=1e-12)

    def test_vectorized_handles_tiny_pair_chunk(self, monkeypatch):
        pairs = all_pairs(WW_REFS)
        whole = _oracle().route_features(pairs)
        monkeypatch.setattr(chunking, "TERM_CHUNK_BYTES", 1)  # one item per chunk
        sliced = _oracle().route_features(pairs)
        np.testing.assert_array_equal(whole.resemblance, sliced.resemblance)
        np.testing.assert_array_equal(whole.walk, sliced.walk)

    def test_empty_pair_list(self):
        features = _oracle().route_features([])
        assert features.n_pairs == 0
        assert features.resemblance.shape == (0, len(PATHS))


class TestPropagationBackends:
    def test_batched_matches_scalar_features(self):
        pairs = all_pairs(WW_REFS)
        reference = scalar_pair_features(_oracle(), pairs)
        # A pair list whose first-seen row order differs from a given batch.
        batch = _oracle().matrices_for(list(reversed(WW_REFS)))
        for got in (
            _oracle().route_features(pairs),
            compute_pair_features(PATHS, pairs, batch),
        ):
            np.testing.assert_array_equal(got.pairs, reference.pairs)
            np.testing.assert_allclose(
                got.resemblance, reference.resemblance, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(got.walk, reference.walk, rtol=0, atol=1e-12)

    def test_empty_pairs_batched(self):
        runs = get_metrics().counter("propagation.batch.runs")
        before = runs.value
        assert _oracle().route_features([]).n_pairs == 0
        assert runs.value == before  # nothing to propagate

