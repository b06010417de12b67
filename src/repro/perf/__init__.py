"""Performance layer: step matrices, chunking, and parallel execution.

The DISTINCT pipeline's cost is dominated by three hot loops — probability
propagation along join paths (§2.2), all-pairs similarity (§2.3–2.4), and
the agglomerative merge loop (§4.1). This package holds the shared
machinery that accelerates them without changing results:

- :mod:`repro.perf.chunking` — chunk sizing under a fixed byte budget,
  so the pair kernel bounds peak memory whatever the terms per column
  or per pair;
- :mod:`repro.perf.parallel` — a ``ProcessPoolExecutor``-backed ordered
  map with deterministic, input-ordered result assembly, per-worker
  obs-counter merging and worker-death recovery (disambiguation
  workloads scale with the number of ambiguous names, which is
  embarrassingly parallel);
- :mod:`repro.perf.transitions` — the row-normalized CSR matrices of
  every join step, built once, extended by appended rows and shared by
  every name, the building block of batched propagation
  (:mod:`repro.paths.batch`);
- :mod:`repro.perf.csr` — canonical CSR matrices as plain arrays and
  the one sparse product over them, scipy's compiled kernel without
  its per-call wrapper work.

The pair kernel itself lives in :mod:`repro.similarity.vectorized`.
``pipebench/`` measures all of it end to end and per layer.
"""

from repro.perf.chunking import budget_slices
from repro.perf.parallel import (
    DEFAULT_TASK_RETRIES,
    RemoteTaskError,
    TaskOutcome,
    active_segments,
    ordered_process_map,
)
from repro.perf.transitions import StepMatrices, StepPair, build_step

__all__ = [
    "DEFAULT_TASK_RETRIES",
    "RemoteTaskError",
    "TaskOutcome",
    "StepMatrices",
    "StepPair",
    "active_segments",
    "budget_slices",
    "build_step",
    "ordered_process_map",
]
