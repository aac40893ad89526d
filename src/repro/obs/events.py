"""The run-lifecycle stream for corpus runs (``--events-out``).

Each lifecycle fact of a run is stated once, as one record of this
stream; the JSONL file, ``--progress``, the ``--trace-out`` instants,
the live telemetry and the runner's run snapshot
(``CorpusRunner.last_metrics.run``) are all folds over it.  Each line
is one schema-versioned event::

    {"schema": 1, "event": "app-done", "t": 1.234567, "app": "...",
     "status": "analyzed", "duration_s": 0.021}

Event vocabulary (schema-stable -- new fields may be added, event names
and existing fields never change meaning):

``run-start``
    ``kind`` (task kind), ``apps`` (input app count).
``app-start`` / ``cache-hit`` / ``retry`` / ``timeout`` / ``fault``
    per-app lifecycle; ``fault`` carries ``kind`` (the fault taxonomy
    kind), ``timeout`` precedes its ``fault`` and carries ``seconds``.
``app-done``
    closes every app with ``status`` (``analyzed`` | ``cached`` |
    ``faulted``) and ``duration_s`` (the worker-measured analysis wall
    time, replayed from the cache envelope on hits; absent on faults).
``run-end``
    run totals: ``analyzed``, ``cached``, ``faulted``, ``wall_seconds``.

Timestamps ``t`` are monotonic seconds since the stream's first event,
stamped when the event happens, so an app's ``app-start``..``app-done``
window is its actual lifetime.

**Determinism.**  Records are buffered per app and written to the sinks
strictly in input-app order: app *i*'s block is written the moment its
outcome -- and every earlier app's -- is known.  A ``--jobs 4`` run
therefore produces the same event sequence as ``--jobs 1`` (only ``t``,
``duration_s`` and ``wall_seconds`` differ), while a serial run streams
fully live and a parallel run streams its completed prefix; ``t`` is
monotone within an app's block, not across blocks.  Live listeners (the
telemetry aggregator) see each record as it is stamped.

:class:`RunFunnel` is the one counter of the run funnel;
:func:`summarize_events` (``repro events summarize``) is the reader.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO

#: bump when an existing event or field changes meaning (never for
#: purely additive fields)
EVENTS_SCHEMA = 1

EVENT_TYPES = (
    "run-start", "app-start", "app-done", "cache-hit",
    "fault", "retry", "timeout", "run-end",
)


#: the ``app-done`` statuses the funnel counts
APP_STATUSES = ("analyzed", "cached", "faulted")

#: a live listener: ``listener(record, snapshot)`` as each record is
#: stamped; the snapshot is the app's metrics on ``app-done``, the run's
#: on ``run-end``, else ``None``
Listener = Callable[[Dict[str, Any], Any], None]


def encode_event(record: Dict[str, Any]) -> str:
    """One canonical JSONL line (sorted keys, no trailing newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass
class RunFunnel:
    """The run funnel, folded one lifecycle record at a time: the only
    counter of runs, apps, outcomes, retries, timeouts and fault kinds."""

    runs: int = 0
    #: input apps announced by ``run-start`` records
    apps: int = 0
    #: apps closed by an ``app-done``
    done: int = 0
    analyzed: int = 0
    cached: int = 0
    faulted: int = 0
    retries: int = 0
    timeouts: int = 0
    #: fault-kind histogram, e.g. ``{"parse": 1, "timeout": 1}``
    fault_kinds: Dict[str, int] = field(default_factory=dict)

    def fold(self, record: Dict[str, Any]) -> None:
        event = record.get("event")
        if event == "run-start":
            self.runs += 1
            self.apps += int(record.get("apps", 0))
        elif event == "retry":
            self.retries += 1
        elif event == "timeout":
            self.timeouts += 1
        elif event == "fault":
            kind = str(record.get("kind", "unknown"))
            self.fault_kinds[kind] = self.fault_kinds.get(kind, 0) + 1
        elif event == "app-done":
            self.done += 1
            status = record.get("status")
            if status in APP_STATUSES:
                setattr(self, status, getattr(self, status) + 1)


class JsonlEventSink:
    """Append events to a file, one line each, flushed per event so the
    stream can be tailed while the run is still going."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[TextIO] = None

    def emit(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
        self._handle.write(encode_event(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class MemoryEventSink:
    """Retain the event records in memory, in emission order.

    Attached automatically when a driver needs the stream after the run
    without forcing a ``--events-out`` file -- e.g. ``--trace-out``
    turns the retained records into instant events on the Chrome trace
    timeline.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(dict(record))


class ProgressSink:
    """The opt-in ``--progress`` stderr line, derived from the stream.

    One line per closed app: ``[progress] 12/27 apps, 1 fault, 3 cache
    hits``.  Off by default so golden stderr expectations stay
    byte-identical.
    """

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream
        self._funnel = RunFunnel()

    def emit(self, record: Dict[str, Any]) -> None:
        funnel = self._funnel
        funnel.fold(record)
        if record.get("event") == "app-done":
            faults, hits = funnel.faulted, funnel.cached
            print(f"[progress] {funnel.done}/{funnel.apps} apps, "
                  f"{faults} fault{'s' if faults != 1 else ''}, "
                  f"{hits} cache hit{'s' if hits != 1 else ''}",
                  file=self._stream, flush=True)


class RunEventLog:
    """The single place a run's lifecycle facts are stated.

    Each fact is stamped as it happens (in any completion order), folded
    into :attr:`funnel` and shown to the run's live listeners, then
    buffered per app; whole-app blocks reach the ``sinks`` in input
    order.  Sequential runs may share one log (``t`` keeps its anchor).
    """

    def __init__(self, sinks: Iterable[Any],
                 clock=time.monotonic) -> None:
        self.sinks = list(sinks)
        #: the current (or last) run's funnel, folded live
        self.funnel = RunFunnel()
        self._clock = clock
        self._t0: Optional[float] = None
        self._listeners: List[Listener] = []
        self._names: List[str] = []
        self._buffers: Dict[str, List[Dict[str, Any]]] = {}
        self._final: set = set()
        self._next = 0

    # -- emission -------------------------------------------------------------

    def _record(self, event: str, snapshot: Any = None,
                **fields: Any) -> Dict[str, Any]:
        """Stamp one record now, fold it and show it to the listeners."""
        now = self._clock()
        if self._t0 is None:
            self._t0 = now
        record = {"schema": EVENTS_SCHEMA, "event": event,
                  "t": round(now - self._t0, 6)}
        record.update(fields)
        self.funnel.fold(record)
        for listener in self._listeners:
            listener(record, snapshot)
        return record

    def _write(self, record: Dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def _flush_ready(self) -> None:
        while self._next < len(self._names):
            name = self._names[self._next]
            if name not in self._final:
                break
            for record in self._buffers.pop(name, ()):
                self._write(record)
            self._next += 1

    # -- run lifecycle --------------------------------------------------------

    def run_start(self, kind: str, names: Iterable[str],
                  listeners: Iterable[Listener] = ()) -> None:
        """Open a run; ``listeners`` see its records until run-end."""
        self._names = list(dict.fromkeys(names))
        self._buffers = {name: [] for name in self._names}
        self._final = set()
        self._next = 0
        self.funnel = RunFunnel()
        self._listeners = list(listeners)
        self._write(self._record("run-start", kind=kind,
                                 apps=len(self._names)))

    def app_event(self, name: str, event: str, **fields: Any) -> None:
        """Record one mid-flight event for ``name`` (buffered)."""
        if name in self._buffers:
            self._buffers[name].append(self._record(event, app=name,
                                                    **fields))

    def app_done(self, name: str, status: str,
                 duration_s: Optional[float] = None,
                 snapshot: Any = None) -> None:
        """Close ``name`` (``snapshot``: its metrics, for the listeners)
        and flush every app whose turn has come."""
        if name not in self._buffers or name in self._final:
            return
        fields: Dict[str, Any] = {"status": status}
        if duration_s is not None:
            fields["duration_s"] = round(duration_s, 6)
        self._buffers[name].append(self._record("app-done", snapshot,
                                                app=name, **fields))
        self._final.add(name)
        self._flush_ready()

    def run_end(self, snapshot: Any = None, **fields: Any) -> None:
        """Close the run (``snapshot``: its metrics, for the listeners)."""
        # A fail-fast abort can leave apps unclosed; flush what we have
        # so the stream stays a faithful prefix of the run.
        self._final.update(self._names)
        self._flush_ready()
        self._write(self._record("run-end", snapshot, **fields))
        self._listeners = []

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


# -- reading ------------------------------------------------------------------


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse an events JSONL file; raises ValueError on malformed lines
    or on records without the expected schema stamp."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"line {lineno} is not valid JSON: {exc}"
                ) from exc
            if not isinstance(record, dict) \
                    or record.get("schema") != EVENTS_SCHEMA:
                raise ValueError(
                    f"line {lineno} is not a nadroid event "
                    f"(expected schema {EVENTS_SCHEMA})"
                )
            records.append(record)
    return records


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile over a non-empty list (deterministic)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def summarize_events(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The funnel and latency digest of one event stream."""
    funnel = RunFunnel()
    durations: List[float] = []
    for record in records:
        funnel.fold(record)
        if record.get("event") == "app-done" \
                and record.get("duration_s") is not None:
            durations.append(float(record["duration_s"]))
    summary: Dict[str, Any] = asdict(funnel)
    del summary["done"]
    summary["latency"] = None
    if durations:
        summary["latency"] = {
            "apps": len(durations),
            "p50_s": percentile(durations, 0.50),
            "p95_s": percentile(durations, 0.95),
            "max_s": max(durations),
        }
    return summary


def render_events_summary(summary: Dict[str, Any]) -> str:
    """Human rendering of :func:`summarize_events`."""
    lines = [
        f"{summary['runs']} run(s), {summary['apps']} apps",
        f"  analyzed : {summary['analyzed']}",
        f"  cached   : {summary['cached']}",
        f"  faulted  : {summary['faulted']}",
    ]
    if summary["retries"]:
        lines.append(f"  retries  : {summary['retries']}")
    if summary["timeouts"]:
        lines.append(f"  timeouts : {summary['timeouts']}")
    for kind in sorted(summary["fault_kinds"]):
        lines.append(f"  fault[{kind}]: {summary['fault_kinds'][kind]}")
    latency = summary["latency"]
    if latency:
        lines.append(
            f"per-app latency over {latency['apps']} apps: "
            f"p50 {latency['p50_s'] * 1000:.1f}ms  "
            f"p95 {latency['p95_s'] * 1000:.1f}ms  "
            f"max {latency['max_s'] * 1000:.1f}ms"
        )
    else:
        lines.append("per-app latency: no completed apps")
    return "\n".join(lines)
