"""Live telemetry for long runs: ``--serve-telemetry PORT``.

A 1000-app generated-corpus run (or a future ``repro serve`` daemon) is
minutes of silence unless something exposes its state *while it runs*.
This module provides that surface with the stdlib only:

* :class:`LiveAggregator` -- a thread-safe live listener of the run's
  event log.  It folds the run funnel (done / total, analyzed / cached
  / faulted, retries), per-app latency
  quantiles over the most recent ``LATENCY_WINDOW`` apps, and a merged
  :class:`~repro.obs.metrics.MetricsSnapshot` of every finished app's
  counters and gauges (span trees are *not* retained and hotspot units
  are folded to per-domain totals -- the aggregator is O(metric
  names in the code), not O(run)).
* :class:`TelemetryServer` -- a background ``http.server`` thread bound
  to **127.0.0.1 only** (the endpoint is an operator surface, never a
  public one) serving:

  - ``/metrics``  -- Prometheus text exposition of the aggregate
    (via :func:`repro.obs.exporters.prometheus_text`),
  - ``/healthz``  -- liveness (``ok``),
  - ``/progress`` -- JSON: apps done/total, faults, retries, p50/p95
    latency so far, the current phase.

Determinism contract: the aggregator only *observes* -- it never writes
to stdout, never touches analysis state, and the runner's results,
reports and bench counters are byte-identical with and without it
attached (pinned by ``tests/obs/test_telemetry.py``).
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Deque, Dict, Optional, Tuple

from .events import APP_STATUSES, percentile, RunFunnel
from .export import canonical_json
from .exporters import prometheus_text
from .hotspots import fold_hotspot_units
from .metrics import merge_snapshots, MetricsSnapshot

#: the only address the telemetry endpoint ever binds; serving run
#: internals beyond loopback is an operator decision this module
#: deliberately does not offer
TELEMETRY_HOST = "127.0.0.1"

#: the most recent per-app latencies the p50/p95 quantiles are taken
#: over; a long-running daemon forgets older ones (count and max stay
#: exact over the whole lifetime)
LATENCY_WINDOW = 4096


class LoopbackHTTPServer(ThreadingHTTPServer):
    """The HTTP server base for every nadroid endpoint (telemetry and
    the ``repro serve`` daemon).

    ``allow_reuse_address`` is pinned on explicitly: back-to-back runs
    (CI re-invocations, daemon restarts) must be able to rebind a port
    still in ``TIME_WAIT`` instead of flaking with ``EADDRINUSE``.
    Handler threads are daemonic so a hung client can never block
    process exit.
    """

    allow_reuse_address = True
    daemon_threads = True


class LiveAggregator:
    """Thread-safe run aggregation behind the telemetry endpoint.

    A live listener of the run's :class:`~repro.obs.events.RunEventLog`:
    the runner thread hands every lifecycle record to :meth:`observe`
    the moment it happens, while HTTP handler threads call
    :meth:`progress`, :meth:`prometheus`, and :meth:`healthy`
    concurrently.  All state lives behind one lock.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._lock = threading.RLock()
        self._clock = clock
        self._started_at = clock()
        #: explicit driver-level label (set_phase) -- wins over the kind
        self._phase: Optional[str] = None
        #: the task kind of the current run (its run-start record)
        self._kind = "idle"
        #: runs started and not yet ended (the daemon answers cached
        #: jobs while a cold one runs, so runs can overlap)
        self._open_runs = 0
        self._funnel = RunFunnel()
        #: in-flight runs per app name: every single-app daemon job is
        #: ``app``, so a name stays listed until its last run finishes
        self._active: Counter = Counter()
        self._durations: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._latency_count = 0
        self._latency_max = 0.0
        self._merged = MetricsSnapshot()

    # -- runner side ----------------------------------------------------------

    def observe(self, record: Dict[str, Any],
                snapshot: Optional[MetricsSnapshot] = None) -> None:
        """The listener: fold one lifecycle record as it happens.  The
        run-end ``snapshot`` (the runner's fan-out/cache counters) joins
        the aggregate so ``/metrics`` exposes the ``runner.*`` family."""
        event = record.get("event")
        with self._lock:
            self._funnel.fold(record)
            if event == "run-start":
                self._open_runs += 1
                self._kind = str(record.get("kind"))
            elif event == "app-start":
                self.app_started(record["app"])
            elif event == "app-done":
                self.app_finished(record["app"], record["status"],
                                  record.get("duration_s"), snapshot)
            elif event == "run-end":
                if snapshot is not None:
                    self._merge(snapshot.counters, snapshot.gauges)
                self._open_runs -= 1
                if not self._open_runs:
                    # a fail-fast abort leaves in-flight apps unclosed;
                    # with no run open, none is in flight
                    self._active.clear()
                    self._kind = "idle"

    def set_phase(self, phase: str) -> None:
        """Name the current stage of a multi-run driver (e.g. a bench
        that fans out twice); surfaced in ``/progress``."""
        with self._lock:
            self._phase = str(phase)

    def app_started(self, name: str) -> None:
        """The per-app fold step of an ``app-start`` record."""
        with self._lock:
            self._active[name] += 1

    def app_finished(self, name: str, status: str,
                     duration_s: Optional[float] = None,
                     snapshot: Optional[MetricsSnapshot] = None) -> None:
        """The per-app fold step of an ``app-done`` record: latency and
        metrics (the funnel counts the outcome itself)."""
        with self._lock:
            self._active[name] -= 1
            if self._active[name] <= 0:
                del self._active[name]
            if duration_s is not None:
                self._durations.append(float(duration_s))
                self._latency_count += 1
                self._latency_max = max(self._latency_max,
                                        float(duration_s))
            if snapshot is not None:
                # merge counters/gauges only, hotspot units folded to
                # per-domain totals: spans or per-method keys would make
                # the aggregator's footprint proportional to the run
                self._merge(fold_hotspot_units(snapshot.counters),
                            fold_hotspot_units(snapshot.gauges))

    def _merge(self, counters: Dict[str, Any],
               gauges: Dict[str, Any]) -> None:
        self._merged = merge_snapshots([
            self._merged, MetricsSnapshot(counters=counters, gauges=gauges),
        ])

    # -- reader side ----------------------------------------------------------

    def healthy(self) -> bool:
        return True

    def progress(self) -> Dict[str, Any]:
        """The ``/progress`` JSON payload."""
        with self._lock:
            latency = None
            if self._durations:
                latency = {
                    "apps": self._latency_count,
                    "p50_s": percentile(self._durations, 0.50),
                    "p95_s": percentile(self._durations, 0.95),
                    "max_s": self._latency_max,
                }
            funnel = self._funnel
            return {
                "phase": self._phase or self._kind,
                "kind": self._kind,
                "runs": funnel.runs,
                "apps": {
                    "total": funnel.apps,
                    "done": funnel.done,
                    "analyzed": funnel.analyzed,
                    "cached": funnel.cached,
                    "faulted": funnel.faulted,
                },
                "active": list(self._active),
                "retries": funnel.retries,
                "latency": latency,
                "uptime_s": round(self._clock() - self._started_at, 6),
            }

    def snapshot(self) -> MetricsSnapshot:
        """The merged metrics plus the aggregator's own ``telemetry.*``
        funnel counters/gauges, as one snapshot."""
        with self._lock:
            counters = dict(self._merged.counters)
            gauges = dict(self._merged.gauges)
            funnel = self._funnel
            counters["telemetry.runs"] = funnel.runs
            counters["telemetry.apps.total"] = funnel.apps
            counters["telemetry.apps.done"] = funnel.done
            for status in APP_STATUSES:
                counters[f"telemetry.apps.{status}"] = \
                    getattr(funnel, status)
            counters["telemetry.retries"] = funnel.retries
            gauges["telemetry.apps.active"] = float(len(self._active))
            gauges["telemetry.uptime_seconds"] = \
                self._clock() - self._started_at
            if self._durations:
                gauges["telemetry.latency.p50_seconds"] = \
                    percentile(self._durations, 0.50)
                gauges["telemetry.latency.p95_seconds"] = \
                    percentile(self._durations, 0.95)
                gauges["telemetry.latency.max_seconds"] = \
                    self._latency_max
            return MetricsSnapshot(counters=counters, gauges=gauges)

    def prometheus(self) -> str:
        """The ``/metrics`` body: Prometheus text of the aggregate."""
        return prometheus_text(self.snapshot())


def telemetry_response(
    aggregator: LiveAggregator, path: str,
) -> Optional[Tuple[int, str, str]]:
    """Route one GET path to its ``(status, content_type, body)``.

    The shared routing table behind both the ``--serve-telemetry``
    endpoint and the ``repro serve`` daemon (which mounts the same
    aggregator next to its job API).  Returns ``None`` for paths this
    surface does not own, so callers can layer their own routes.
    """
    if path == "/metrics":
        return (200, "text/plain; version=0.0.4; charset=utf-8",
                aggregator.prometheus())
    if path == "/healthz":
        ok = aggregator.healthy()
        return (200 if ok else 503, "text/plain; charset=utf-8",
                "ok\n" if ok else "unhealthy\n")
    if path == "/progress":
        return (200, "application/json; charset=utf-8",
                canonical_json(aggregator.progress()))
    return None


class LoopbackHandler(BaseHTTPRequestHandler):
    """The request-handler base of every nadroid endpoint: one response
    writer, and no access logs (they would race the process's own
    stderr lines)."""

    @property
    def endpoint(self) -> "LoopbackEndpoint":
        return self.server.endpoint  # type: ignore[attr-defined]

    def _send(self, status: int, content_type: str, body: str,
              headers: Optional[Dict[str, str]] = None) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: Any) -> None:
        """Suppressed."""


class LoopbackEndpoint:
    """One :class:`LoopbackHTTPServer` serving ``handler``: bind
    ``127.0.0.1``, serve on a daemon thread named ``thread_name``, close.

    ``port=0`` asks the OS for a free port; read the real one from
    :attr:`port` after :meth:`bind`.  Handlers reach this object as
    ``self.endpoint``.
    """

    handler: type = LoopbackHandler
    thread_name: str = "nadroid-http"

    def __init__(self, port: int = 0) -> None:
        self.requested_port = int(port)
        self._server: Optional[LoopbackHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> Optional[int]:
        return self._server.server_address[1] if self._server else None

    @property
    def url(self) -> Optional[str]:
        if self._server is None:
            return None
        return f"http://{TELEMETRY_HOST}:{self.port}"

    def bind(self) -> "LoopbackEndpoint":
        """Bind the listening socket (raises ``OSError`` when a fixed
        port is taken) without serving yet."""
        if self._server is None:
            server = LoopbackHTTPServer(
                (TELEMETRY_HOST, self.requested_port), self.handler
            )
            server.endpoint = self  # type: ignore[attr-defined]
            self._server = server
        return self

    def start(self) -> "LoopbackEndpoint":
        """Bind and serve on a daemon thread."""
        self.bind()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._server is not None:
            if self._thread is not None:
                self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class _Handler(LoopbackHandler):
    """Routes GETs to the aggregator."""

    server_version = "nadroid-telemetry"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        response = telemetry_response(self.endpoint.aggregator, path)
        if response is None:
            response = (404, "text/plain; charset=utf-8", "not found\n")
        self._send(*response)


class TelemetryServer(LoopbackEndpoint):
    """The background HTTP thread serving one :class:`LiveAggregator`
    (``port=0`` always binds: the OS picks one)."""

    handler = _Handler
    thread_name = "nadroid-telemetry"

    def __init__(self, aggregator: LiveAggregator, port: int = 0) -> None:
        super().__init__(port)
        self.aggregator = aggregator
