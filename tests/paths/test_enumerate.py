import pytest

from repro.data.dblp_schema import dblp_schema
from repro.paths import PathEnumerationConfig, enumerate_paths
from repro.paths.enumerate import paths_by_signature
from repro.reldb.virtual import is_virtual_relation

from tests.minidb import build_minidb


@pytest.fixture(scope="module")
def prepared_schema():
    """DBLP schema including the virtual relations (needs data, so via minidb)."""
    return build_minidb().schema


def descriptions(paths):
    return {p.describe() for p in paths}


class TestEnumerationOnBareSchema:
    def test_one_hop_paths(self):
        paths = enumerate_paths(dblp_schema(), "Publish", PathEnumerationConfig(max_hops=1))
        assert descriptions(paths) == {
            "Publish~Publications",
            "Publish~Authors",
        }

    def test_coauthor_path_found_at_three_hops(self):
        paths = enumerate_paths(dblp_schema(), "Publish", PathEnumerationConfig(max_hops=3))
        assert "Publish~Publications~Publish~Authors" in descriptions(paths)

    def test_degenerate_backtrack_pruned(self):
        paths = enumerate_paths(dblp_schema(), "Publish", PathEnumerationConfig(max_hops=3))
        # Sibling expansion (n1 then 1n) is allowed: an author's other
        # authorship rows and their papers are reachable.
        assert "Publish~Authors~Publish~Publications" in descriptions(paths)
        # But re-crossing a 1n step with its n1 inverse can only return to
        # the same parent tuple and must be pruned.
        assert "Publish~Authors~Publish~Authors" not in descriptions(paths)
        for path in paths:
            for prev, nxt in zip(path.steps, path.steps[1:]):
                if nxt.is_reverse_of(prev):
                    assert prev.cardinality == "n1"

    def test_prefixes_of_emitted_paths_are_emitted(self):
        paths = enumerate_paths(dblp_schema(), "Publish", PathEnumerationConfig(max_hops=4))
        sigs = {p.signature() for p in paths}
        from repro.paths import JoinPath

        for path in paths:
            for cut in range(1, path.length):
                assert JoinPath(path.steps[:cut]).signature() in sigs

    def test_sibling_expansion_budget_limits_paths(self):
        few = enumerate_paths(
            dblp_schema(),
            "Publish",
            PathEnumerationConfig(max_hops=7, max_sibling_expansions=1, max_start_revisits=3),
        )
        many = enumerate_paths(
            dblp_schema(),
            "Publish",
            PathEnumerationConfig(max_hops=7, max_sibling_expansions=3, max_start_revisits=3),
        )
        assert len(few) < len(many)

    def test_coauthor_of_coauthor_reachable_with_defaults(self):
        paths = enumerate_paths(
            dblp_schema(),
            "Publish",
            PathEnumerationConfig(max_hops=7, max_sibling_expansions=3, max_start_revisits=3),
        )
        target = "Publish~Publications~Publish~Authors~Publish~Publications~Publish~Authors"
        assert target in descriptions(paths)

    def test_deterministic_order(self):
        a = enumerate_paths(dblp_schema(), "Publish", PathEnumerationConfig(max_hops=4))
        b = enumerate_paths(dblp_schema(), "Publish", PathEnumerationConfig(max_hops=4))
        assert [p.signature() for p in a] == [p.signature() for p in b]

    def test_unknown_start_relation_raises(self):
        from repro.errors import UnknownRelationError

        with pytest.raises(UnknownRelationError):
            enumerate_paths(dblp_schema(), "Nope")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PathEnumerationConfig(max_hops=0)
        with pytest.raises(ValueError):
            PathEnumerationConfig(max_sibling_expansions=-1)


class TestEnumerationWithVirtualRelations:
    def test_virtual_relations_are_terminal(self, prepared_schema):
        paths = enumerate_paths(
            prepared_schema, "Publish", PathEnumerationConfig(max_hops=7)
        )
        for path in paths:
            for relation in path.relation_sequence()[1:-1]:
                assert not is_virtual_relation(relation), path.describe()

    def test_value_paths_present(self, prepared_schema):
        paths = enumerate_paths(
            prepared_schema, "Publish", PathEnumerationConfig(max_hops=5)
        )
        descr = descriptions(paths)
        assert "Publish~Publications~Proceedings~_v_Proceedings_year" in descr
        assert (
            "Publish~Publications~Proceedings~Conferences~_v_Conferences_publisher"
            in descr
        )

    def test_paths_by_signature_round_trip(self, prepared_schema):
        paths = enumerate_paths(
            prepared_schema, "Publish", PathEnumerationConfig(max_hops=4)
        )
        index = paths_by_signature(paths)
        assert all(index[p.signature()] == p for p in paths)
