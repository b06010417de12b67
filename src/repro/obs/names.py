"""The canonical registry of metric names the pipeline emits.

Every counter/gauge/histogram name passed to
:func:`repro.obs.counter` / :func:`~repro.obs.gauge` /
:func:`~repro.obs.histogram` must appear here, and every entry here must
still be emitted somewhere — both directions are enforced statically by
the ``metrics/*`` rules of :mod:`repro.analysis` (run ``repro lint``).
This is what keeps dashboards, ``docs/observability.md``, and the code
telling the same story: a typo'd name at an instrumentation site fails
lint instead of silently creating a parallel instrument that no export
ever picks up.

Keys are the dot-separated metric names; values are the instrument kind
(``"counter"`` | ``"gauge"`` | ``"histogram"``). Keep the groups sorted
by subsystem prefix.
"""

from __future__ import annotations

__all__ = ["REGISTERED_METRICS"]

REGISTERED_METRICS: dict[str, str] = {
    # retired with exact pair blocking; declared at zero in
    # repro.core.features while the benchmark's per-layer ledger reads them
    "blocking.pairs_kept": "counter",
    "blocking.pairs_pruned": "counter",
    # checkpointing (repro.resilience.checkpoint)
    "checkpoint.corrupt_quarantined": "counter",
    "checkpoint.items_resumed": "counter",
    "checkpoint.writes": "counter",
    # clustering (repro.cluster.agglomerative)
    "cluster.merges": "counter",
    # retired with ingest's dendrogram-prefix replay; declared at zero in
    # repro.cluster.agglomerative while the benchmark's per-layer ledger reads it
    "cluster.merges_replayed": "counter",
    "cluster.runs": "counter",
    # CSV ingestion (repro.reldb.csvio)
    "csvio.rows_skipped": "counter",
    # DBLP XML ingestion (repro.data.dblp_xml)
    "dblp.authors_dropped": "counter",
    "dblp.records_parsed": "counter",
    "dblp.records_skipped": "counter",
    # evaluation loop (repro.eval.runner)
    "experiment.name_seconds": "histogram",
    "experiment.names_failed": "counter",
    "experiment.names_scored": "counter",
    # vectorized kernels (repro.core.features)
    # delta ingest (repro.ingest / repro.reldb.delta)
    "ingest.deltas_applied": "counter",
    "ingest.greedy.assigned": "counter",
    "ingest.greedy.new_clusters": "counter",
    "ingest.name_seconds": "histogram",
    "ingest.names_clean": "counter",
    "ingest.names_failed": "counter",
    "ingest.names_refreshed": "counter",
    "ingest.names_scored": "counter",
    "ingest.pairs_recomputed": "counter",
    "ingest.pairs_reused": "counter",
    "ingest.refs_dirty": "counter",
    "ingest.rows_added": "counter",
    "ingest.rows_affected": "counter",
    # pipeline facade (repro.core.distinct)
    "names.resolved": "counter",
    # resource sampler (repro.obs.sampler)
    "obs.sampler.cpu_seconds": "gauge",
    "obs.sampler.gc_collections": "gauge",
    "obs.sampler.peak_rss_bytes": "gauge",
    "obs.sampler.rss_bytes": "gauge",
    "obs.sampler.rss_sample_bytes": "histogram",
    "obs.sampler.ticks": "counter",
    # pipeline facade (repro.core.distinct)
    "pairs.scored": "counter",
    # path enumeration (repro.paths.enumerate)
    "paths.enumerated": "counter",
    # retired with the fanout memo; declared at zero in repro.perf.transitions
    # while the benchmark's per-layer ledger still reads them
    "perf.fanout.evictions": "counter",
    "perf.fanout.hits": "counter",
    "perf.fanout.misses": "counter",
    "perf.ingest.rows_dirty": "counter",
    "perf.ingest.rows_reused": "counter",
    # process-pool map (repro.perf.parallel)
    "perf.parallel.spans_grafted": "counter",
    "perf.parallel.task_seconds": "histogram",
    "perf.parallel.tasks_failed": "counter",
    "perf.parallel.tasks_interrupted": "counter",
    "perf.parallel.tasks_ok": "counter",
    "perf.parallel.tasks_redispatched": "counter",
    "perf.parallel.worker_deaths": "counter",
    # step-matrix builds (repro.perf.transitions)
    "perf.transitions.built": "counter",
    # batched propagation (repro.paths.batch)
    "propagation.batch.origin_corrections": "counter",
    "propagation.batch.runs": "counter",
    "propagation.batch.spmm": "counter",
    "propagation.tuples_visited": "counter",
    # error policies and retries (repro.resilience.policy / .retry)
    "resilience.errors_collected": "counter",
    "resilience.items_skipped": "counter",
    "resilience.retry_attempts": "counter",
    # similarity kernels, per (pair, path) value (repro.similarity)
    "similarity.resemblance.calls": "counter",
    "similarity.walk.calls": "counter",
    # SVM training (repro.ml.svm)
    "svm.fits": "counter",
    "svm.iterations": "counter",
    # training-set construction (repro.ml.trainingset)
    "trainingset.pairs_built": "counter",
}
