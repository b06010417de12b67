"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Schema/data problems raise the more specific subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A relation, attribute, or foreign key is declared inconsistently."""


class IntegrityError(ReproError):
    """Data violates a declared constraint (key uniqueness, FK target, arity)."""


class UnknownRelationError(SchemaError):
    """A relation name does not exist in the schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownAttributeError(SchemaError):
    """An attribute name does not exist in a relation."""

    def __init__(self, relation: str, attribute: str) -> None:
        super().__init__(f"relation {relation!r} has no attribute {attribute!r}")
        self.relation = relation
        self.attribute = attribute


class PathError(ReproError):
    """A join path is malformed (non-contiguous steps, bad endpoints)."""


class TrainingError(ReproError):
    """The automatic training-set construction could not produce examples."""


class NotFittedError(ReproError):
    """A model or pipeline was used before being fitted."""


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration budget."""


class PersistenceError(ReproError):
    """A saved artifact (results, models, checkpoints) is missing required
    keys, has an unknown format version, or cannot be decoded."""


class CheckpointError(PersistenceError):
    """A checkpoint file is corrupt, has an unknown version, or does not
    match the run it is being resumed into."""

    def __init__(self, message: str, path: object = None) -> None:
        if path is not None:
            message = f"{message} (checkpoint: {path})"
        super().__init__(message)
        self.path = path


class DeadlineExceeded(ReproError):
    """A run hit its wall-clock deadline before completing.

    Raised by :meth:`repro.resilience.Deadline.check`; long loops catch it
    (or poll :meth:`~repro.resilience.Deadline.expired`) to stop gracefully
    after writing a checkpoint. Error policies never swallow it.
    """
