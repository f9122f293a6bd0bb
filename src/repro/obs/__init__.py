"""repro.obs — flow-wide observability: spans, metrics, trace artifacts.

The paper's enablement argument (and ROADMAP's scaling goals) need a flow
you can *inspect*, not just run: where each stage spends its time, how
deep the cloud queue gets, which inner phase regressed.  This package is
that layer:

* :mod:`~repro.obs.trace` — hierarchical timed spans with a process-wide
  default tracer and a zero-cost no-op tracer;
* :mod:`~repro.obs.metrics` — counters / gauges / fixed-bucket
  histograms behind a snapshot-able registry;
* :mod:`~repro.obs.events` — JSONL trace serialization (traces are
  artifacts like GDS) and loading;
* :mod:`~repro.obs.report` — timeline and self-time renderings
  (``python -m repro trace run.jsonl``).
"""

from .events import TraceData, dump_trace, load_trace, write_trace
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    nearest_rank_p95,
    set_metrics,
)
from .report import (
    AggregateRow,
    aggregate,
    render_aggregate,
    render_timeline,
    render_trace,
)
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "AggregateRow",
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceData",
    "Tracer",
    "aggregate",
    "dump_trace",
    "get_metrics",
    "get_tracer",
    "load_trace",
    "nearest_rank_p95",
    "render_aggregate",
    "render_timeline",
    "render_trace",
    "set_metrics",
    "set_tracer",
    "use_tracer",
    "write_trace",
]
