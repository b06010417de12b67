"""Property test: the scalar oracle's trie walk == its per-path
propagation on random DBs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.paths import JoinPath
from repro.reldb import Attribute, Database, ForeignKey, RelationSchema, Schema
from repro.reldb.joins import steps_for_foreign_key

from tests.oracle import ScalarPropagation, propagate_trie


@st.composite
def chain_database(draw):
    """A three-level chain DB: Refs -> Mid -> Top, with random fan-out."""
    n_top = draw(st.integers(min_value=1, max_value=4))
    n_mid = draw(st.integers(min_value=1, max_value=8))
    n_refs = draw(st.integers(min_value=1, max_value=15))

    schema = Schema()
    schema.add_relation(
        RelationSchema("Refs", [Attribute("k", kind="key"), Attribute("mid", kind="fk")])
    )
    schema.add_relation(
        RelationSchema("Mid", [Attribute("k", kind="key"), Attribute("top", kind="fk")])
    )
    schema.add_relation(RelationSchema("Top", [Attribute("k", kind="key")]))
    schema.add_foreign_key(ForeignKey("Refs", "mid", "Mid", "k"))
    schema.add_foreign_key(ForeignKey("Mid", "top", "Top", "k"))

    db = Database(schema)
    for t in range(n_top):
        db.insert("Top", (t,))
    for m in range(n_mid):
        db.insert("Mid", (m, draw(st.integers(0, n_top - 1))))
    for r in range(n_refs):
        db.insert("Refs", (r, draw(st.integers(0, n_mid - 1))))
    return db


def chain_paths(db) -> list[JoinPath]:
    to_mid, mid_to_refs = steps_for_foreign_key(db.schema.foreign_keys[0])
    to_top, top_to_mid = steps_for_foreign_key(db.schema.foreign_keys[1])
    return [
        JoinPath([to_mid]),
        JoinPath([to_mid, to_top]),
        JoinPath([to_mid, mid_to_refs]),  # sibling refs on the same mid
        JoinPath([to_mid, to_top, top_to_mid]),  # sibling mids
        JoinPath([to_mid, to_top, top_to_mid, mid_to_refs]),
    ]


class TestTrieEquivalenceProperty:
    @given(chain_database(), st.integers(min_value=0, max_value=14))
    @settings(max_examples=60, deadline=None)
    def test_results_identical(self, db, origin_seed):
        origin = origin_seed % len(db.table("Refs"))
        engine = ScalarPropagation(db)
        paths = chain_paths(db)
        shared = propagate_trie(engine, paths, origin)
        for path in paths:
            single = engine.propagate(path, origin)
            assert shared[path].forward == pytest.approx(single.forward)
            assert shared[path].backward == pytest.approx(single.backward)
            assert shared[path].level_sizes == single.level_sizes

    @given(chain_database())
    @settings(max_examples=40, deadline=None)
    def test_trie_respects_global_exclusions(self, db):
        excl = {"Mid": frozenset({0})}
        engine = ScalarPropagation(db, excl)
        paths = chain_paths(db)
        shared = propagate_trie(engine, paths, 0)
        for path in paths:
            single = engine.propagate(path, 0)
            assert shared[path].forward == pytest.approx(single.forward)
