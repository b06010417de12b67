"""Property-based tests for the relational substrate."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntegrityError
from repro.perf.transitions import StepMatrices, build_step, grown_partner_rows
from repro.reldb import Attribute, Database, ForeignKey, RelationSchema, Schema
from repro.reldb.csvio import load_database, save_database
from repro.reldb.joins import JoinStep
from repro.reldb.query import count_rows, select

from tests.oracle import (
    HashIndex,
    assert_same_step_bytes,
    hash_build_step,
    hash_grown_partner_rows,
)

value = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F
        ),
        max_size=8,
    ),
    st.none(),
)


@st.composite
def simple_database(draw):
    """Parent/child two-table database with random rows."""
    n_parents = draw(st.integers(min_value=1, max_value=8))
    n_children = draw(st.integers(min_value=0, max_value=20))

    schema = Schema()
    schema.add_relation(
        RelationSchema(
            "Parent",
            [Attribute("pk", kind="key"), Attribute("label", kind="value")],
        )
    )
    schema.add_relation(
        RelationSchema(
            "Child",
            [Attribute("parent", kind="fk"), Attribute("payload", kind="value")],
        )
    )
    schema.add_foreign_key(ForeignKey("Child", "parent", "Parent", "pk"))
    db = Database(schema)
    for pk in range(n_parents):
        db.insert("Parent", (pk, draw(value)))
    for _ in range(n_children):
        db.insert(
            "Child",
            (draw(st.integers(min_value=0, max_value=n_parents - 1)), draw(value)),
        )
    return db


class TestIndexConsistency:
    @given(simple_database(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_index_lookup_equals_linear_scan(self, db, parent):
        table = db.table("Child")
        index = db.index("Child", "parent")
        scan = [i for i, row in enumerate(table.rows) if row[0] == parent]
        assert index.lookup(parent) == scan
        assert index.count(parent) == len(scan)

    @given(simple_database())
    @settings(max_examples=60, deadline=None)
    def test_index_buckets_partition_rows(self, db):
        index = db.index("Child", "parent")
        covered = sorted(
            row_id for v in index.distinct_values() for row_id in index.lookup(v)
        )
        assert covered == list(range(len(db.table("Child"))))


class TestCsvRoundTrip:
    @given(simple_database())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_preserves_everything(self, db):
        import tempfile

        with tempfile.TemporaryDirectory() as directory:
            save_database(db, directory)
            loaded = load_database(directory)
            self._check(db, loaded)

    def _check(self, db, loaded):
        assert loaded.relation_sizes() == db.relation_sizes()
        for name in db.schema.relations:
            assert [tuple(r) for r in loaded.table(name).rows] == [
                tuple(_stringify(v) for v in row) for row in db.table(name).rows
            ]
        loaded.check_integrity()


def _stringify(v):
    """Mirror the CSV format's canonicalization: values persist as text and
    anything that parses as an integer loads as ``int`` (so the string "12"
    legitimately comes back as 12); ``None`` survives via the NULL sentinel."""
    if v is None or isinstance(v, int):
        return v
    try:
        return int(v)
    except (TypeError, ValueError):
        return str(v)


class TestQueryProperties:
    @given(simple_database(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_select_equals_count(self, db, parent):
        selected = list(select(db, "Child", {"parent": parent}))
        assert count_rows(db, "Child", {"parent": parent}) == len(selected)

    @given(simple_database())
    @settings(max_examples=60, deadline=None)
    def test_integrity_always_holds_by_construction(self, db):
        db.check_integrity()


# -- key columns against the hash index ---------------------------------------

#: Join values: NULL, three values that are one dict key (1, 1.0, True),
#: two more (0, False), and strings, one of which reads like a number.
KEYS = (None, 1, 1.0, True, 0, False, 2, "a", "b", "1")
key = st.sampled_from(KEYS)

#: Steps over L(a) and R(b, c): both directions of L.a = R.b, another
#: column pair, and a self-join.
STEPS = (
    JoinStep("L", "a", "R", "b", "n1"),
    JoinStep("R", "b", "L", "a", "1n"),
    JoinStep("R", "c", "L", "a", "n1"),
    JoinStep("L", "a", "L", "a", "n1"),
)
COLUMNS = (("L", "a"), ("R", "b"), ("R", "c"))

#: Append batches: rows for L, then rows for R.
batches = st.lists(
    st.tuples(st.lists(key, max_size=6), st.lists(st.tuples(key, key), max_size=6)),
    min_size=1,
    max_size=4,
)


def key_database() -> Database:
    schema = Schema()
    schema.add_relation(RelationSchema("L", [Attribute("a")]))
    schema.add_relation(RelationSchema("R", [Attribute("b"), Attribute("c")]))
    return Database(schema)


def append(db: Database, left, right) -> None:
    db.insert_many("L", [(v,) for v in left])
    db.insert_many("R", right)


def assert_columns_match_hash_index(db: Database) -> None:
    for relation, attribute in COLUMNS:
        column = db.index(relation, attribute)
        want = HashIndex(db.table(relation), attribute)
        for value in (*KEYS, "zzz", 3.5):
            assert column.lookup(value) == want.lookup(value)
            assert column.count(value) == want.count(value)
        assert [repr(v) for v in column.distinct_values()] == [
            repr(v) for v in want.distinct_values()
        ]
        assert len(column) == len(want)


def assert_steps_match_hash_index(db: Database, store: StepMatrices) -> None:
    for step in STEPS:
        want = hash_build_step(db, step)
        assert_same_step_bytes(store.get(db, step), want)
        assert_same_step_bytes(build_step(db, step), want)


class TestKeyColumns:
    """The code-column store serves the same partners, probes, lookups
    and counts as a value -> row-list hash index, as tables grow."""

    @given(batches)
    @settings(max_examples=80, deadline=None)
    def test_steps_probes_and_lookups_match_the_hash_index(self, stream):
        db = key_database()
        store = StepMatrices()
        for left, right in stream:
            old = {"L": len(db.table("L")), "R": len(db.table("R"))}
            append(db, left, right)
            for step in STEPS:
                n_src, n_dst = old[step.src_relation], old[step.dst_relation]
                got = grown_partner_rows(db, step, n_src, n_dst)
                want = hash_grown_partner_rows(db, step, n_src, n_dst)
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert_steps_match_hash_index(db, store)
            assert_columns_match_hash_index(db)

    @given(st.data(), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_another_database_of_the_same_size_has_its_own_columns(
        self, data, n_left, n_right
    ):
        """Key columns live on their database: a new database of the same
        size, made after the first one is freed, is coded from its own
        rows."""
        rows = [
            (
                data.draw(st.lists(key, min_size=n_left, max_size=n_left)),
                data.draw(
                    st.lists(st.tuples(key, key), min_size=n_right, max_size=n_right)
                ),
            )
            for _ in range(2)
        ]
        first = key_database()
        append(first, *rows[0])
        assert_columns_match_hash_index(first)
        assert_steps_match_hash_index(first, StepMatrices())
        del first
        gc.collect()
        second = key_database()
        append(second, *rows[1])
        assert_columns_match_hash_index(second)
        assert_steps_match_hash_index(second, StepMatrices())

    @given(st.lists(key, unique=True, max_size=5), st.lists(key, max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_integrity_error_names_the_first_dangling_row(self, parents, children):
        schema = Schema()
        schema.add_relation(RelationSchema("P", [Attribute("k", kind="key")]))
        schema.add_relation(RelationSchema("C", [Attribute("p", kind="fk")]))
        schema.add_foreign_key(ForeignKey("C", "p", "P", "k"))
        db = Database(schema)
        db.insert_many("P", [(v,) for v in parents])
        db.insert_many("C", [(v,) for v in children])
        targets = HashIndex(db.table("P"), "k")
        dangling = [
            (row, v) for row, v in enumerate(children)
            if v is not None and not targets.count(v)
        ]
        if not dangling:
            db.check_integrity()
            return
        row, v = dangling[0]
        with pytest.raises(IntegrityError) as raised:
            db.check_integrity()
        assert str(raised.value) == (
            f"dangling foreign key {schema.foreign_keys[0]}: row {row} of C "
            f"references missing {v!r}"
        )
