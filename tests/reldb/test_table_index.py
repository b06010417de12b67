import pytest

from repro.errors import IntegrityError
from repro.reldb import Attribute, KeyColumn, RelationSchema, Table
from repro.reldb.index import ValueCodes


@pytest.fixture
def authors() -> Table:
    table = Table(
        RelationSchema(
            "Authors",
            [Attribute("author_key", kind="key"), Attribute("name", kind="value")],
        )
    )
    table.insert_many([(1, "Wei Wang"), (2, "Jiawei Han"), (3, "Wei Wang II")])
    return table


class TestTable:
    def test_insert_returns_sequential_row_ids(self, authors):
        assert authors.insert((4, "Hui Fang")) == 3

    def test_wrong_arity_rejected(self, authors):
        with pytest.raises(IntegrityError):
            authors.insert((4,))

    def test_duplicate_primary_key_rejected(self, authors):
        with pytest.raises(IntegrityError):
            authors.insert((1, "Someone Else"))

    def test_value_and_row(self, authors):
        assert authors.value(0, "name") == "Wei Wang"
        assert authors.row(1) == (2, "Jiawei Han")

    def test_column(self, authors):
        assert authors.column("author_key") == [1, 2, 3]

    def test_row_by_key(self, authors):
        assert authors.row_by_key(2) == 1
        assert authors.row_by_key(99) is None

    def test_row_by_key_without_key_raises(self):
        table = Table(RelationSchema("R", [Attribute("a")]))
        with pytest.raises(IntegrityError):
            table.row_by_key(1)

    def test_as_dict(self, authors):
        assert authors.as_dict(0) == {"author_key": 1, "name": "Wei Wang"}

    def test_len_and_iter(self, authors):
        assert len(authors) == 3
        assert list(authors)[2] == (3, "Wei Wang II")


class TestKeyColumn:
    def test_lookup_groups_rows_by_value(self):
        table = Table(RelationSchema("R", [Attribute("x")]))
        table.insert_many([("a",), ("b",), ("a",), ("a",)])
        index = KeyColumn(table, "x", ValueCodes())
        assert index.lookup("a") == [0, 2, 3]
        assert index.lookup("b") == [1]
        assert index.lookup("zzz") == []

    def test_count_matches_lookup_length(self):
        table = Table(RelationSchema("R", [Attribute("x")]))
        table.insert_many([(1,), (1,), (2,)])
        index = KeyColumn(table, "x", ValueCodes())
        assert index.count(1) == 2
        assert index.count(3) == 0

    def test_incremental_refresh_sees_appended_rows(self):
        table = Table(RelationSchema("R", [Attribute("x")]))
        table.insert(("a",))
        index = KeyColumn(table, "x", ValueCodes())
        table.insert(("a",))
        assert index.stale
        index.refresh()
        assert index.lookup("a") == [0, 1]
        assert not index.stale

    def test_distinct_values_and_len(self):
        table = Table(RelationSchema("R", [Attribute("x")]))
        table.insert_many([("a",), ("b",), ("a",)])
        index = KeyColumn(table, "x", ValueCodes())
        assert sorted(index.distinct_values()) == ["a", "b"]
        assert len(index) == 2
