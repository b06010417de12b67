"""Property tests of batched SpMM propagation on random DBs.

Random three-level chain databases (the same generator family as the trie
equivalence suite) and random exclusions, shared by the whole batch or
drawn per reference:

- the batched backend must reproduce every scalar profile to 1e-12,
  each reference under its own exclusions, and hand out every forward,
  backward and trace matrix canonical (sorted, duplicate-free indices
  in every row, no stored zeros), which the pair kernel trusts without
  checking;
- a reference's rows (forward, backward and visited trace) must not
  depend on which other references share its batch, or in what order,
  or under which exclusions they propagate: they are byte-equal whether
  it propagates alone, in the full batch, in a sub-batch or in a
  shuffled batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.references import exclusions_for_name
from repro.obs import get_metrics
from repro.paths import JoinPath
from repro.paths.batch import batch_profile_matrices
from repro.perf.transitions import StepMatrices
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
    return chain_database_from(
        tops=list(range(n_top)),
        mids=[draw(st.integers(0, n_top - 1)) for _ in range(n_mid)],
        refs=[draw(st.integers(0, n_mid - 1)) for _ in range(n_refs)],
    )


def chain_schema() -> Schema:
    """Refs -> Mid -> Top by foreign keys."""
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
    return schema


def chain_database_from(tops: list[int], mids: list[int], refs: list[int]) -> Database:
    """A chain DB with ``Mid`` row ``m`` under Top ``mids[m]`` and ``Refs``
    row ``r`` under Mid ``refs[r]``."""
    db = Database(chain_schema())
    for t in tops:
        db.insert("Top", (t,))
    for m, top in enumerate(mids):
        db.insert("Mid", (m, top))
    for r, mid in enumerate(refs):
        db.insert("Refs", (r, mid))
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


@st.composite
def mixed_batch(draw):
    """A chain DB and one exclusion mapping per reference: 0-2 ``Mid``
    rows of its own, plus ``Refs`` row 0 for every reference, so that
    the origin and the exclusions meet on the start relation."""
    db = draw(chain_database())
    n_mid = len(db.table("Mid"))
    exclusions = [
        {
            "Mid": frozenset(draw(st.sets(st.integers(0, n_mid - 1), max_size=2))),
            "Refs": frozenset({0}),
        }
        for _ in range(len(db.table("Refs")))
    ]
    return db, exclusions


def assert_canonical(matrix) -> None:
    """Sorted, duplicate-free, in-range indices in every row and no
    stored zeros, computed from the arrays (no scipy flag is read)."""
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    n_rows, n_cols = matrix.shape
    assert len(indptr) == n_rows + 1 and indptr[0] == 0
    assert len(indices) == len(data) == indptr[-1]
    assert (np.diff(indptr) >= 0).all()
    rows = np.repeat(np.arange(n_rows), np.diff(indptr))
    same_row = rows[1:] == rows[:-1]
    assert (np.diff(indices.astype(np.int64))[same_row] > 0).all()
    assert ((indices >= 0) & (indices < n_cols)).all()
    assert (data != 0).all()


def assert_equivalent(db, exclusions=None) -> None:
    """Every reference of one batch against the scalar oracle under its
    own exclusions (``exclusions[k]`` for reference ``k``; none when
    None), and every output of the batch canonical."""
    refs = list(range(len(db.table("Refs"))))
    exclusions = exclusions or [{}] * len(refs)
    paths = chain_paths(db)
    trace: dict = {}
    batched = batch_profile_matrices(db, StepMatrices(), paths, refs, exclusions, trace)
    assert set(trace) == {"Refs", "Mid", "Top"}
    for pattern in trace.values():
        assert_canonical(pattern)
    for path in paths:
        stacked = batched[path]
        assert_canonical(stacked.fwd)
        assert_canonical(stacked.back)
        for k, row in enumerate(refs):
            scalar = ScalarPropagation(db, exclusions[k]).propagate(path, row)
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
        assert_equivalent(db)

    @given(chain_database(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_with_global_exclusions(self, db, excl_seed):
        mid = excl_seed % len(db.table("Mid"))
        excl = {"Mid": frozenset({mid}), "Refs": frozenset({0})}
        assert_equivalent(db, [excl] * len(db.table("Refs")))

    @given(mixed_batch())
    @settings(max_examples=60, deadline=None)
    def test_with_exclusions_per_reference(self, batch):
        db, exclusions = batch
        assert_equivalent(db, exclusions)

    def test_correction_on_a_level_a_sibling_branch_extends(self):
        """Mid row 0 carries refs 0-2, Mid row 1 carries ref 3, and both
        sit under Top row 0. Stepping back to the references from the
        Mid level, which the ``-> Top`` branch also extends, splits mass
        over two or more partners minus an excluded one (the origin, and
        for ref 1 also ref 2); stepping from Top to Mid splits over two
        Mid rows minus ref 3's excluded Mid row 0. Both build ``U``."""
        schema_db = chain_database_from(tops=[0], mids=[0, 0], refs=[0, 0, 0, 1])
        exclusions = [
            {},
            {"Refs": frozenset({2})},
            {"Mid": frozenset({1})},
            {"Mid": frozenset({0})},
        ]
        corrections = get_metrics().counter("propagation.batch.origin_corrections")
        before = corrections.value
        assert_equivalent(schema_db, exclusions)
        assert corrections.value > before


def row_bytes(matrix, k: int) -> tuple[bytes, bytes]:
    lo, hi = matrix.indptr[k], matrix.indptr[k + 1]
    indices = matrix.indices[lo:hi].astype(np.int64)
    return indices.tobytes(), matrix.data[lo:hi].tobytes()


def rows_by_reference(db, steps, paths, refs, exclusions) -> dict:
    """Per reference of one batch: its forward and backward row of every
    path and its visited-trace row of every relation, as bytes.
    ``exclusions`` maps each reference to its own."""
    trace: dict = {}
    batched = batch_profile_matrices(
        db, steps, paths, refs, [exclusions[ref] for ref in refs], trace=trace
    )
    return {
        ref: (
            [row_bytes(batched[p].forward, k) + row_bytes(batched[p].backward, k)
             for p in paths],
            {relation: row_bytes(pattern, k) for relation, pattern in trace.items()},
        )
        for k, ref in enumerate(refs)
    }


def assert_batch_independent(db, exclusions, rnd) -> None:
    steps = StepMatrices()
    refs = list(range(len(db.table("Refs"))))
    paths = chain_paths(db)
    whole = rows_by_reference(db, steps, paths, refs, exclusions)
    shuffled = refs[:]
    rnd.shuffle(shuffled)
    sub = sorted(rnd.sample(refs, rnd.randint(1, len(refs))))
    for batch in (shuffled, sub, *([ref] for ref in refs)):
        for ref, rows in rows_by_reference(db, steps, paths, batch, exclusions).items():
            assert rows == whole[ref], (ref, batch)


class TestBatchIndependence:
    @given(chain_database(), st.integers(min_value=0, max_value=7), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_with_global_exclusions(self, db, excl_seed, rnd):
        mid = excl_seed % len(db.table("Mid"))
        excl = {"Mid": frozenset({mid}), "Refs": frozenset({0})}
        assert_batch_independent(db, dict.fromkeys(range(len(db.table("Refs"))), excl), rnd)

    @given(chain_database(), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_without_global_exclusions(self, db, rnd):
        assert_batch_independent(db, dict.fromkeys(range(len(db.table("Refs"))), {}), rnd)

    @given(mixed_batch(), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_with_exclusions_per_reference(self, batch, rnd):
        db, exclusions = batch
        assert_batch_independent(db, dict(enumerate(exclusions)), rnd)

    def test_on_a_fitted_world(self, fitted, small_db):
        """Every name of the small world: its full batch against one
        reference at a time, against the name's reversed batch and
        against one batch of all three names."""
        _, truth = small_db
        names = ("Wei Wang", "Rakesh Kumar", "Jim Smith")
        exclusions = {
            ref: exclusions_for_name(fitted.db, name, fitted.config)
            for name in names
            for ref in truth.rows_of_name[name]
        }
        db, steps = fitted.db, fitted.steps
        mixed = rows_by_reference(db, steps, fitted.paths_, list(exclusions), exclusions)
        for name in names:
            refs = list(truth.rows_of_name[name])
            whole = rows_by_reference(db, steps, fitted.paths_, refs, exclusions)
            for ref in refs:
                assert mixed[ref] == whole[ref], (name, ref)
            for batch in (refs[::-1], *([ref] for ref in refs)):
                got = rows_by_reference(db, steps, fitted.paths_, batch, exclusions)
                for ref, rows in got.items():
                    assert rows == whole[ref], (name, ref)
