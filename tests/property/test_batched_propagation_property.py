"""Property tests of batched SpMM propagation on random DBs.

Random three-level chain databases (the same generator family as the trie
equivalence suite) and random global exclusions:

- the batched backend must reproduce every scalar profile to 1e-12;
- a reference's rows (forward, backward and visited trace) must not
  depend on which other references share its batch, or in what order:
  they are byte-equal whether it propagates alone, in the full batch,
  in a sub-batch or in a shuffled batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.paths import JoinPath, PropagationEngine
from repro.paths.batch import batch_profile_matrices
from repro.reldb import Attribute, Database, ForeignKey, RelationSchema, Schema
from repro.reldb.joins import steps_for_foreign_key

from tests.oracle import ScalarPropagation, weights_for

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


def assert_equivalent(engine: ScalarPropagation, db) -> None:
    refs = list(range(len(db.table("Refs"))))
    paths = chain_paths(db)
    batched = batch_profile_matrices(engine, paths, refs)
    for path in paths:
        stacked = batched[path]
        for k, row in enumerate(refs):
            scalar = engine.propagate(path, row)
            got = weights_for(stacked, k)
            assert set(got) == set(scalar.forward)
            for t, fwd in scalar.forward.items():
                gf, gb = got[t]
                assert gf == pytest.approx(fwd, abs=ATOL)
                assert gb == pytest.approx(scalar.backward.get(t, 0.0), abs=ATOL)


class TestBatchedPropagationProperty:
    @given(chain_database())
    @settings(max_examples=50, deadline=None)
    def test_plain_engine(self, db):
        assert_equivalent(ScalarPropagation(db), db)

    @given(chain_database(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_with_global_exclusions(self, db, excl_seed):
        mid = excl_seed % len(db.table("Mid"))
        excl = {"Mid": frozenset({mid}), "Refs": frozenset({0})}
        assert_equivalent(ScalarPropagation(db, excl), db)


def row_bytes(matrix, k: int) -> tuple[bytes, bytes]:
    lo, hi = matrix.indptr[k], matrix.indptr[k + 1]
    indices = matrix.indices[lo:hi].astype(np.int64)
    return indices.tobytes(), matrix.data[lo:hi].tobytes()


def rows_by_reference(engine, paths, refs) -> dict:
    """Per reference of one batch: its forward and backward row of every
    path and its visited-trace row of every relation, as bytes."""
    trace: dict = {}
    batched = batch_profile_matrices(engine, paths, refs, trace=trace)
    return {
        ref: (
            [row_bytes(batched[p].forward, k) + row_bytes(batched[p].backward, k)
             for p in paths],
            {relation: row_bytes(pattern, k) for relation, pattern in trace.items()},
        )
        for k, ref in enumerate(refs)
    }


def assert_batch_independent(engine, db, rnd) -> None:
    refs = list(range(len(db.table("Refs"))))
    paths = chain_paths(db)
    whole = rows_by_reference(engine, paths, refs)
    shuffled = refs[:]
    rnd.shuffle(shuffled)
    sub = sorted(rnd.sample(refs, rnd.randint(1, len(refs))))
    for batch in (shuffled, sub, *([ref] for ref in refs)):
        for ref, rows in rows_by_reference(engine, paths, batch).items():
            assert rows == whole[ref], (ref, batch)


class TestBatchIndependence:
    @given(chain_database(), st.integers(min_value=0, max_value=7), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_with_global_exclusions(self, db, excl_seed, rnd):
        mid = excl_seed % len(db.table("Mid"))
        excl = {"Mid": frozenset({mid}), "Refs": frozenset({0})}
        assert_batch_independent(PropagationEngine(db, excl), db, rnd)

    @given(chain_database(), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_without_global_exclusions(self, db, rnd):
        assert_batch_independent(PropagationEngine(db), db, rnd)

    def test_on_a_fitted_world(self, fitted, small_db):
        """Every name of the small world, full batch against one reference
        at a time and against the name's reversed batch."""
        _, truth = small_db
        for name in ("Wei Wang", "Rakesh Kumar", "Jim Smith"):
            refs = list(truth.rows_of_name[name])
            engine = fitted.profile_builder(name).engine
            whole = rows_by_reference(engine, fitted.paths_, refs)
            for batch in (refs[::-1], *([ref] for ref in refs)):
                got = rows_by_reference(engine, fitted.paths_, batch)
                for ref, rows in got.items():
                    assert rows == whole[ref], (name, ref)
