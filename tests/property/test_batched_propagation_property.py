"""Property test: batched SpMM propagation == scalar engine on random DBs.

Random three-level chain databases (the same generator family as the trie
equivalence suite) and random global exclusions — the batched backend
must reproduce every scalar profile to 1e-12.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.paths import JoinPath, PropagationEngine
from repro.paths.batch import batch_profile_matrices
from repro.reldb import Attribute, Database, ForeignKey, RelationSchema, Schema
from repro.reldb.joins import steps_for_foreign_key

ATOL = 1e-12


@st.composite
def chain_database(draw):
    """A three-level chain DB: Refs -> Mid -> Top, with random fan-out."""
    n_top = draw(st.integers(min_value=1, max_value=4))
    n_mid = draw(st.integers(min_value=1, max_value=8))
    n_refs = draw(st.integers(min_value=2, max_value=15))

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
        JoinPath([to_mid, mid_to_refs]),  # sibling refs: origin-drop levels
        JoinPath([to_mid, to_top, top_to_mid]),
        JoinPath([to_mid, to_top, top_to_mid, mid_to_refs]),
    ]


def assert_equivalent(engine: PropagationEngine, db) -> None:
    refs = list(range(len(db.table("Refs"))))
    paths = chain_paths(db)
    batched = batch_profile_matrices(engine, paths, refs)
    for path in paths:
        stacked = batched[path]
        for k, row in enumerate(refs):
            scalar = engine.propagate(path, row)
            got = stacked.weights_for(k)
            assert set(got) == set(scalar.forward)
            for t, fwd in scalar.forward.items():
                gf, gb = got[t]
                assert gf == pytest.approx(fwd, abs=ATOL)
                assert gb == pytest.approx(scalar.backward.get(t, 0.0), abs=ATOL)


class TestBatchedPropagationProperty:
    @given(chain_database())
    @settings(max_examples=50, deadline=None)
    def test_plain_engine(self, db):
        assert_equivalent(PropagationEngine(db), db)

    @given(chain_database(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_with_global_exclusions(self, db, excl_seed):
        mid = excl_seed % len(db.table("Mid"))
        excl = {"Mid": frozenset({mid}), "Refs": frozenset({0})}
        assert_equivalent(PropagationEngine(db, excl), db)

    @given(chain_database())
    @settings(max_examples=30, deadline=None)
    def test_exclude_origin_false(self, db):
        assert_equivalent(PropagationEngine(db, exclude_origin=False), db)
