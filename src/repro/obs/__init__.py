"""Unified observability: tracing spans + typed metrics + exporters.

The one place wall-clock time and metric naming live.  Three pieces:

- :mod:`repro.obs.tracer` -- nested spans with monotonic timestamps,
  attributes and process/thread identity; zero overhead while disabled;
- :mod:`repro.obs.registry` -- typed counters / gauges / histograms
  under ``dotted.namespace`` names, plus the single shared
  :func:`quantile` implementation;
- :mod:`repro.obs.export` -- JSONL span logs, Chrome trace-event JSON
  (Perfetto-loadable, with cross-process flow arrows and per-process
  clock alignment) and human summary tables;
- :mod:`repro.obs.collect` -- fleet stitching: merge the per-process
  spool files a live multi-process run leaves behind into one trace
  with per-replica tracks.

Quick start::

    from repro import obs

    obs.configure(enabled=True)
    ...  # run an analysis or simulation
    obs.write_chrome_trace(obs.TRACER.spans(), "trace.json")
    print(obs.summarize(obs.TRACER.spans()))

or from the command line: ``python -m repro trace <specfile>`` and the
``--trace`` / ``--trace-out`` flags on ``analyze`` and ``simulate``.
"""

from repro.obs.collect import (
    StitchedTrace,
    dump_process,
    read_spool,
    stitch_dir,
    write_stitched,
)
from repro.obs.export import (
    align_spans,
    chrome_trace,
    read_jsonl,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.registry import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile,
    quantile_sorted,
)
from repro.obs.tracer import (
    NULL_SPAN,
    TRACER,
    Span,
    SpanRecord,
    Tracer,
    configure,
    monotonic,
)

__all__ = [
    "NULL_SPAN",
    "REGISTRY",
    "TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecord",
    "StitchedTrace",
    "Tracer",
    "align_spans",
    "chrome_trace",
    "configure",
    "dump_process",
    "monotonic",
    "quantile",
    "quantile_sorted",
    "read_jsonl",
    "read_spool",
    "stitch_dir",
    "summarize",
    "write_chrome_trace",
    "write_jsonl",
]
