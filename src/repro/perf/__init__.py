"""Performance layer: step matrices, chunking, and parallel execution.

The DISTINCT pipeline's cost is dominated by three hot loops — probability
propagation along join paths (§2.2), all-pairs similarity (§2.3–2.4), and
the agglomerative merge loop (§4.1). This package holds the shared
machinery that accelerates them without changing results:

- :mod:`repro.perf.chunking` — pair-slice sizing under a fixed byte
  budget, so the pair kernels bound peak memory whatever the row widths;
- :mod:`repro.perf.parallel` — a ``ProcessPoolExecutor``-backed ordered
  map with deterministic, input-ordered result assembly, per-worker
  obs-counter merging, input-order chunked dispatch, and an in-process
  fallback (:func:`~repro.perf.parallel.should_inline`) for workloads a
  pool cannot win (disambiguation workloads scale with the number of
  ambiguous names, which is embarrassingly parallel);
- :mod:`repro.perf.transitions` — the row-normalized CSR matrices of
  every join step, built once per database epoch and shared by every
  name, the building block of batched propagation
  (:mod:`repro.paths.batch`).

The pair kernels themselves live in :mod:`repro.similarity.vectorized`.
``benchmarks/bench_perf_kernels.py`` tracks the
kernel/propagation/parallel trajectory in ``BENCH_perf.json``;
``benchmarks/bench_scale.py`` tracks serial vs pool wall time across
world sizes in ``BENCH_scale.json`` (history in ``BENCH_history.jsonl``).
"""

from repro.perf.chunking import pair_slices
from repro.perf.parallel import (
    DEFAULT_TASK_RETRIES,
    RemoteTaskError,
    TaskOutcome,
    active_segments,
    ordered_process_map,
    should_inline,
)
from repro.perf.transitions import StepMatrices, StepPair, build_step

__all__ = [
    "DEFAULT_TASK_RETRIES",
    "RemoteTaskError",
    "TaskOutcome",
    "StepMatrices",
    "StepPair",
    "active_segments",
    "build_step",
    "ordered_process_map",
    "pair_slices",
    "should_inline",
]
