"""The exception hierarchy and the public package surface."""

import json

import numpy as np
import pytest

import repro
from repro.errors import (
    CheckpointError,
    ConvergenceError,
    DeadlineExceeded,
    IntegrityError,
    NotFittedError,
    PathError,
    PersistenceError,
    ReproError,
    SchemaError,
    TrainingError,
    UnknownAttributeError,
    UnknownRelationError,
)


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for exc in (
            SchemaError, IntegrityError, PathError, TrainingError,
            NotFittedError, ConvergenceError, PersistenceError,
            CheckpointError, DeadlineExceeded,
        ):
            assert issubclass(exc, ReproError)

    def test_checkpoint_error_is_a_persistence_error(self):
        error = CheckpointError("bad checkpoint", path="/tmp/x.json")
        assert isinstance(error, PersistenceError)
        assert "/tmp/x.json" in str(error)
        assert error.path == "/tmp/x.json"

    def test_unknown_relation_message_and_fields(self):
        error = UnknownRelationError("Nope")
        assert isinstance(error, SchemaError)
        assert error.name == "Nope"
        assert "Nope" in str(error)

    def test_unknown_attribute_message_and_fields(self):
        error = UnknownAttributeError("Authors", "missing")
        assert error.relation == "Authors"
        assert error.attribute == "missing"
        assert "Authors" in str(error) and "missing" in str(error)

    def test_catching_base_class_catches_everything(self):
        with pytest.raises(ReproError):
            raise TrainingError("no rare names")


class TestDocumentedRaises:
    """Every public entry point that documents a ReproError subclass raises
    that specific subclass (not a bare KeyError/ValueError stand-in)."""

    def test_kmedoids_raises_convergence_error(self):
        # An adversarial similarity matrix cannot reach a local optimum in
        # zero SWAP passes; strict k-medoids must report ConvergenceError.
        from repro.cluster.kmedoids import kmedoids

        rng = np.random.default_rng(3)
        sim = rng.uniform(size=(12, 12))
        sim = (sim + sim.T) / 2
        np.fill_diagonal(sim, 1.0)
        with pytest.raises(ConvergenceError):
            kmedoids(sim, k=3, max_swaps=0)
        # Non-strict keeps the best-so-far medoids instead.
        clusters = kmedoids(sim, k=3, max_swaps=0, strict=False)
        assert len(clusters) == 3

    def test_trainingset_raises_training_error(self):
        from repro.ml.trainingset import build_training_set
        from repro.reldb import Attribute, Database, RelationSchema, Schema

        schema = Schema()
        schema.add_relation(RelationSchema(
            "Authors", [Attribute("author_key"), Attribute("name")]))
        schema.add_relation(RelationSchema("Publish", [Attribute("author_key")]))
        db = Database(schema)
        with pytest.raises(TrainingError):
            build_training_set(db, n_positive=5, n_negative=5)

    def test_unfitted_svm_raises_not_fitted_error(self):
        from repro.ml.svm import LinearSVM

        with pytest.raises(NotFittedError):
            LinearSVM().decision_function([[0.0]])

    def test_persistence_raises_on_missing_keys_and_unknown_version(self):
        from repro.eval.persistence import experiment_result_from_dict

        with pytest.raises(PersistenceError):
            experiment_result_from_dict({"min_sim": 0.1, "names": []})
        with pytest.raises(PersistenceError):
            experiment_result_from_dict(
                {"format_version": 99, "variant_key": "x",
                 "min_sim": 0.1, "names": []}
            )

    def test_load_database_raises_schema_error_with_path(self, tmp_path):
        from repro.reldb.csvio import load_database

        with pytest.raises(SchemaError) as excinfo:
            load_database(tmp_path / "nowhere")
        assert "nowhere" in str(excinfo.value)

    def test_load_database_raises_integrity_error_on_header_drift(self, tmp_path):
        from repro.reldb.csvio import load_database

        (tmp_path / "schema.json").write_text(json.dumps({
            "relations": [{"name": "Authors", "attributes": [
                {"name": "author_key", "kind": "key"},
                {"name": "name", "kind": "text"},
            ]}],
            "foreign_keys": [],
        }))
        (tmp_path / "Authors.csv").write_text("author_key,wrong\n0,x\n")
        with pytest.raises(IntegrityError) as excinfo:
            load_database(tmp_path)
        assert "Authors.csv" in str(excinfo.value)

    def test_deadline_check_raises_deadline_exceeded(self):
        from repro.resilience import Deadline

        clock = iter([0.0, 10.0, 10.0, 10.0]).__next__
        deadline = Deadline(1.0, clock=clock)
        with pytest.raises(DeadlineExceeded):
            deadline.check("test run")


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points_present(self):
        assert callable(repro.Distinct)
        assert callable(repro.generate_world)
        assert callable(repro.world_to_database)
        assert callable(repro.pairwise_scores)

    def test_table1_spec_exposed(self):
        assert len(repro.TABLE1_SPEC) == 10
