"""Delta ingest: dirty references, dirty pairs, streaming re-resolution.

Bibliographic databases grow in batches — a new proceedings, a crawl
increment — and refitting the world per batch wastes almost all of its
work: a small delta leaves the vast majority of partner lists, profiles,
pair features, and merges untouched. This package applies a
:class:`~repro.reldb.Delta` and re-resolves only what changed, walking a
four-rung invalidation ladder (dirty rows → dirty references → dirty
pairs → dirty merges; see :mod:`repro.ingest.engine`) whose every rung
preserves bytes: the refreshed resolutions equal a cold
``prepare``/``cluster_prepared`` on the post-delta database exactly.
Names refresh in-process.

- :mod:`repro.ingest.dirty` — which existing rows a delta touched;
- :mod:`repro.ingest.engine` — :class:`IngestEngine`, the per-name
  state + refresh ladder (``--mode exact``);
- :mod:`repro.ingest.greedy` — the approximate single-reference
  assigner (``--mode greedy``);
- :mod:`repro.ingest.runner` — the resilient ``repro ingest`` run on
  the shared per-name loop (:class:`repro.eval.runner.NameLoop`):
  checkpoints, ``--resume``, policies, a deadline.

``pipebench``'s ``ingest-stream`` workload measures the ladder on a
stream of crawl increments.
"""

from repro.ingest.dirty import affected_rows
from repro.ingest.engine import IngestEngine, IngestReport, NameRefresh
from repro.ingest.greedy import Assignment, extend_resolution
from repro.ingest.runner import IngestRunOutcome, ingest_checkpoint, ingest_resilient

__all__ = [
    "Assignment",
    "IngestEngine",
    "IngestReport",
    "IngestRunOutcome",
    "NameRefresh",
    "affected_rows",
    "extend_resolution",
    "ingest_checkpoint",
    "ingest_resilient",
]
