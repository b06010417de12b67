"""Observability for the DISTINCT pipeline: tracing, metrics, logging.

The pipeline runs expensive multi-stage work (path enumeration,
probability propagation, similarity kernels, SVM training, agglomerative
merging); this package makes that work visible without slowing it down:

- :mod:`repro.obs.trace` — nested span context managers recording wall
  time, counters, and parent/child structure, with a thread-local span
  stack and a zero-cost no-op mode when tracing is disabled;
- :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges, and fixed-bucket histograms;
- :mod:`repro.obs.logging` — structured stdlib-logging setup with
  optional JSON-lines output;
- :mod:`repro.obs.export` — dump a run's span tree plus a metrics
  snapshot to JSON, and render human-readable tree / hot-span /
  phase-timeline reports;
- :mod:`repro.obs.sampler` — a background thread sampling RSS, CPU
  time, and GC activity into gauges, with per-span peak-RSS
  attribution;
- :mod:`repro.obs.openmetrics` / :mod:`repro.obs.chrometrace` —
  standard exporters: OpenMetrics text exposition of the metrics
  registry and Perfetto-loadable Chrome trace-event JSON.

Typical instrumentation::

    from repro.obs import counter, get_logger, span

    _PAIRS = counter("pairs.scored")
    log = get_logger("core.distinct")

    with span("resolve.profiles", name=name) as sp:
        ...
        sp.annotate(n_pairs=len(pairs))
    _PAIRS.inc(len(pairs))

Tracing is off by default: ``span(...)`` then returns a shared no-op
span, so instrumented code pays only a global read per call site.
Enable it with :func:`enable_tracing` (the CLI does this for
``--trace-out``) and export with :func:`repro.obs.export.write_trace`.
"""

from repro.obs.chrometrace import chrome_trace_events, write_chrome_trace
from repro.obs.export import (
    hot_spans,
    load_trace,
    render_hot_spans,
    render_phase_timeline,
    render_tree,
    span_to_dict,
    trace_payload,
    write_trace,
)
from repro.obs.logging import get_logger, setup_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_metrics,
    histogram,
)
from repro.obs.names import REGISTERED_METRICS
from repro.obs.openmetrics import parse_openmetrics, render_openmetrics
from repro.obs.sampler import ResourceSampler
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    span_from_wire,
    span_to_wire,
    timed,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "REGISTERED_METRICS",
    "ResourceSampler",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "counter",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "gauge",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "histogram",
    "hot_spans",
    "load_trace",
    "parse_openmetrics",
    "render_hot_spans",
    "render_openmetrics",
    "render_phase_timeline",
    "render_tree",
    "setup_logging",
    "span",
    "span_from_wire",
    "span_to_dict",
    "span_to_wire",
    "timed",
    "trace_payload",
    "tracing_enabled",
    "write_chrome_trace",
    "write_trace",
]
