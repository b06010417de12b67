"""Edge cases of the propagation engine: null FKs mid-path, dead ends,
degenerate schemas."""

import pytest

from repro.data.dblp_schema import new_dblp_database, prepare_dblp_database
from repro.paths import JoinPath
from repro.reldb.joins import JoinStep

from tests.oracle import (
    NeighborProfile,
    ScalarPropagation,
    set_resemblance,
    walk_probability,
)

PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
PAP_PROC = JoinStep("Publications", "proc_key", "Proceedings", "proc_key", "n1")
PROC_CONF = JoinStep("Proceedings", "conf_key", "Conferences", "conf_key", "n1")


def db_with_null_proc():
    db = new_dblp_database()
    db.insert_many("Authors", [(0, "Wei Wang"), (1, "A")])
    db.insert_many("Conferences", [(0, "VLDB", "X")])
    db.insert_many("Proceedings", [(0, 0, 2000, "A")])
    # Paper 1 has no proceedings (null FK) — e.g. an unpublished preprint.
    db.insert_many("Publications", [(0, "p0", 0), (1, "preprint", None)])
    db.insert_many("Publish", [(0, 0), (0, 1), (1, 0), (1, 1)])
    db.check_integrity()
    return db


class TestNullForeignKeys:
    def test_null_fk_loses_mass_silently(self):
        db = db_with_null_proc()
        engine = ScalarPropagation(db)
        venue_path = JoinPath([PUB_PAP, PAP_PROC])
        # Ref row 2 = (paper 1, Wei Wang): its paper has no proceedings.
        result = engine.propagate(venue_path, 2)
        assert result.forward == {}
        assert result.backward == {}

    def test_partial_mass_through_mixed_levels(self):
        db = db_with_null_proc()
        engine = ScalarPropagation(db)
        # From ref 0 (paper 0) the venue path works fine.
        result = engine.propagate(JoinPath([PUB_PAP, PAP_PROC, PROC_CONF]), 0)
        assert result.forward == pytest.approx({0: 1.0})

    def test_empty_profile_similarities_are_zero(self):
        db = db_with_null_proc()
        engine = ScalarPropagation(db)
        venue_path = JoinPath([PUB_PAP, PAP_PROC])
        empty = NeighborProfile.from_result(engine.propagate(venue_path, 2))
        full = NeighborProfile.from_result(engine.propagate(venue_path, 0))
        assert set_resemblance(empty, full) == 0.0
        assert walk_probability(empty, full) == 0.0


class TestDegenerateDatabases:
    def test_single_row_database(self):
        db = new_dblp_database()
        db.insert("Authors", (0, "Solo"))
        db.insert("Conferences", (0, "C", "P"))
        db.insert("Proceedings", (0, 0, 2000, "L"))
        db.insert("Publications", (0, "t", 0))
        db.insert("Publish", (0, 0))
        engine = ScalarPropagation(db)
        result = engine.propagate(JoinPath([PUB_PAP]), 0)
        assert result.forward == {0: 1.0}
        assert result.backward == {0: 1.0}

    def test_origin_exclusion_on_sibling_path_with_no_siblings(self):
        db = new_dblp_database()
        db.insert("Authors", (0, "Solo"))
        db.insert("Conferences", (0, "C", "P"))
        db.insert("Proceedings", (0, 0, 2000, "L"))
        db.insert("Publications", (0, "t", 0))
        db.insert("Publish", (0, 0))
        engine = ScalarPropagation(db)
        sibling = JoinPath([PUB_PAP, PUB_PAP.reverse()])
        result = engine.propagate(sibling, 0)
        assert result.forward == {}

    def test_prepared_db_virtual_path_reaches_year(self):
        db = db_with_null_proc()
        prepare_dblp_database(db)
        year_step = JoinStep(
            "Proceedings", "year", "_v_Proceedings_year", "value", "n1"
        )
        path = JoinPath([PUB_PAP, PAP_PROC, year_step])
        result = ScalarPropagation(db).propagate(path, 0)
        assert len(result.forward) == 1
        assert result.forward_mass() == pytest.approx(1.0)
