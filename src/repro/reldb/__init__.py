"""In-memory relational database substrate.

The paper assumes the data lives in a relational database (Fig 2 shows the
DBLP schema). This subpackage provides that substrate from scratch: typed
relations with primary/foreign keys, integer key columns for joins,
referential-integrity checking, join-step execution, and the attribute-value
virtualization of §2.1 (every distinct value of a non-key attribute becomes a
tuple in a single-column virtual relation).
"""

from repro.reldb.schema import Attribute, ForeignKey, RelationSchema, Schema
from repro.reldb.table import Table
from repro.reldb.index import KeyColumn
from repro.reldb.database import Database
from repro.reldb.delta import AppliedDelta, Delta, apply_delta, load_delta, save_delta
from repro.reldb.joins import JoinStep
from repro.reldb.virtual import virtualize_attribute, virtual_relation_name

__all__ = [
    "Attribute",
    "ForeignKey",
    "RelationSchema",
    "Schema",
    "Table",
    "KeyColumn",
    "Database",
    "JoinStep",
    "Delta",
    "AppliedDelta",
    "apply_delta",
    "load_delta",
    "save_delta",
    "virtualize_attribute",
    "virtual_relation_name",
]
