"""repro.obs -- zero-dependency observability for the nAdroid pipeline.

Three layers, all optional at every call site:

* **Spans** (:func:`span`) -- nested wall-clock timing regions forming a
  trace tree per analysis: the one record of stage time
  (:meth:`MetricsSnapshot.stage_seconds`).  Without a recorder a span
  times nothing.
* **Counters and gauges** (:func:`add`, :func:`set_gauge`) -- named
  deterministic quantities (fact counts, worklist passes, filter funnel
  sizes) and non-deterministic measurements (wall seconds).  No-ops when
  no recorder is installed.
* **Snapshots** (:class:`MetricsSnapshot`) -- the JSON-serializable view
  of one recorder, merged across worker processes by the corpus runner.

Determinism contract: nothing here ever writes to stdout; exporters
target stderr or opt-in files, and counter values depend only on the
analyzed input, never on scheduling or parallelism.

Typical use::

    recorder = Recorder()
    with use(recorder):
        with span("pointsto"):
            ...
            add("pointsto.passes", passes)
    print(render_spans(recorder.snapshot().spans), file=sys.stderr)
"""

from .recorder import (
    add,
    add_gauge,
    current,
    Recorder,
    set_gauge,
    Span,
    span,
    use,
)
from .metrics import merge_snapshots, MetricsSnapshot, PEAK_GAUGE_PATTERN
from .export import (
    describe_run,
    render_metrics,
    render_spans,
    snapshot_to_json,
    write_json,
)
from .hotspots import (
    collect_hotspots,
    HOTSPOT_PREFIX,
    HotspotEntry,
    render_hotspots,
    top_hotspots,
)
from .events import (
    EVENTS_SCHEMA,
    JsonlEventSink,
    MemoryEventSink,
    ProgressSink,
    read_events,
    render_events_summary,
    RunEventLog,
    summarize_events,
)
from .memory import MemoryTracker, track_memory
from .exporters import (
    chrome_trace,
    collapsed_stacks,
    prometheus_text,
    trace_from_events,
    write_trace,
)
from .telemetry import LiveAggregator, TelemetryServer

__all__ = [
    "add",
    "add_gauge",
    "chrome_trace",
    "collapsed_stacks",
    "collect_hotspots",
    "current",
    "describe_run",
    "EVENTS_SCHEMA",
    "HOTSPOT_PREFIX",
    "HotspotEntry",
    "JsonlEventSink",
    "LiveAggregator",
    "MemoryEventSink",
    "MemoryTracker",
    "merge_snapshots",
    "MetricsSnapshot",
    "PEAK_GAUGE_PATTERN",
    "ProgressSink",
    "prometheus_text",
    "read_events",
    "Recorder",
    "render_events_summary",
    "render_hotspots",
    "render_metrics",
    "render_spans",
    "RunEventLog",
    "set_gauge",
    "Span",
    "span",
    "snapshot_to_json",
    "summarize_events",
    "TelemetryServer",
    "top_hotspots",
    "trace_from_events",
    "track_memory",
    "use",
    "write_json",
    "write_trace",
]
