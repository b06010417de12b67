import time

import pytest

from repro.data.dblp_schema import dblp_schema
from repro.paths import JoinPath, PathEnumerationConfig, enumerate_paths
from repro.paths.propagation import make_exclusions
from repro.reldb.joins import JoinStep

from tests.minidb import WW_AUTHOR_ROW, WW_REFS, build_minidb
from tests.oracle import ScalarProfileBuilder, ScalarPropagation, propagate_trie


@pytest.fixture(scope="module")
def db():
    return build_minidb()


@pytest.fixture(scope="module")
def engine(db):
    return ScalarPropagation(db, make_exclusions(Authors={WW_AUTHOR_ROW}))


@pytest.fixture(scope="module")
def paths(db):
    return enumerate_paths(db.schema, "Publish", PathEnumerationConfig(max_hops=5))


class TestTrieEquivalence:
    def test_identical_to_per_path_propagation(self, engine, paths):
        for ref in WW_REFS:
            shared = propagate_trie(engine, paths, ref)
            assert set(shared) == set(paths)
            for path in paths:
                independent = engine.propagate(path, ref)
                assert shared[path].forward == pytest.approx(independent.forward)
                assert shared[path].backward == pytest.approx(independent.backward)
                assert shared[path].level_sizes == independent.level_sizes

    def test_empty_path_list(self, engine):
        assert propagate_trie(engine, [], 0) == {}

    def test_mixed_start_relations_rejected(self, engine):
        a = JoinPath([JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")])
        b = JoinPath([JoinStep("Authors", "author_key", "Publish", "author_key", "1n")])
        with pytest.raises(ValueError):
            propagate_trie(engine, [a, b], 0)

    def test_single_path(self, engine, paths):
        result = propagate_trie(engine, [paths[0]], 0)
        assert paths[0] in result

    def test_duplicate_prefixes_share_levels(self, engine, paths):
        # Structural check: results for a path and its extension agree on
        # the prefix level sizes.
        by_sig = {p.signature(): p for p in paths}
        for path in paths:
            for cut in range(1, path.length):
                prefix = JoinPath(path.steps[:cut])
                if prefix.signature() not in by_sig:
                    continue
                results = propagate_trie(engine, [path, prefix], 0)
                assert (
                    results[path].level_sizes[: cut + 1]
                    == results[prefix].level_sizes
                )


class TestBuilderUsesTrie:
    def test_profiles_for_matches_individual_profiles(self, db, paths):
        shared = ScalarProfileBuilder(db, paths, make_exclusions(Authors={WW_AUTHOR_ROW}))
        individual = ScalarProfileBuilder(
            db, paths, make_exclusions(Authors={WW_AUTHOR_ROW})
        )
        batch = shared.profiles_for(0)
        for path in paths:
            single = individual.profile(path, 0)
            assert batch[path].weights == pytest.approx(single.weights)

    def test_trie_not_slower_on_prefix_heavy_sets(self, db):
        # A smoke perf check on the larger path budget (not a strict timing
        # assertion — just that the shared walk handles the 7-hop set).
        deep = enumerate_paths(
            db.schema,
            "Publish",
            PathEnumerationConfig(max_hops=7, max_sibling_expansions=3, max_start_revisits=3),
        )
        engine = ScalarPropagation(db, make_exclusions(Authors={WW_AUTHOR_ROW}))
        results = propagate_trie(engine, deep, 0)
        assert len(results) == len(deep)
