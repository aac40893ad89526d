"""Standard-format telemetry exporters: Prometheus, Chrome trace, flames.

The obs layer records everything into its own JSON shapes
(:class:`~repro.obs.metrics.MetricsSnapshot`, the ``--events-out``
stream).  This module translates those shapes into the three formats the
rest of the world's tooling already consumes, with zero new
dependencies:

* :func:`prometheus_text` -- the Prometheus text exposition format
  (``# TYPE`` headers plus samples), byte-stable for a given snapshot,
  with a deterministic label mapping for the structured
  ``hotspot.*``/``mem.*``/``runner.*`` metric families;
* :func:`chrome_trace` -- Chrome trace-event JSON (the format Perfetto
  and ``chrome://tracing`` load): one timeline per run, with a
  real-time lane per app from the event stream and each analyzed app's
  stage spans inside its lane;
* :func:`collapsed_stacks` -- Brendan Gregg's collapsed-stack format
  over span paths (self-time) and hotspot cumulative seconds, ready for
  ``flamegraph.pl`` or speedscope.

Determinism contract: everything here is a pure function of its inputs.
The trace's only clock is the event stream's ``t`` offsets; a span is
placed by its serialized ``start_s`` offset from its root, so traces
of two runs over the same input differ only in ``ts``/``dur`` values.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .hotspots import collect_hotspots, HOTSPOT_PREFIX
from .metrics import MetricsSnapshot

#: every exported Prometheus family is prefixed with this namespace
PROM_NAMESPACE = "nadroid"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


# -- Prometheus text exposition ----------------------------------------------


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format: backslash,
    double quote, and line feed."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def sanitize_metric_name(name: str) -> str:
    """Fold an arbitrary dotted metric name into a legal Prometheus
    name: every illegal character becomes ``_`` (deterministically)."""
    out = _NAME_BAD_CHARS.sub("_", name.replace(".", "_"))
    if not out or not _NAME_OK.match(out):
        out = "_" + out
    return out


def _format_value(value) -> str:
    """Sample values: integers stay integers; floats use ``repr``
    (shortest round-trip), which is byte-stable for a given float."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def _map_hotspot(name: str, is_counter: bool) -> Optional[Tuple[str, Dict[str, str]]]:
    """``hotspot.<domain>.<unit>.<metric>`` -> labeled family."""
    from .hotspots import _parse

    try:
        domain, unit, metric = _parse(name)
    except ValueError:
        return None
    labels = {"domain": domain, "unit": unit}
    if is_counter:
        labels["metric"] = metric
        return f"{PROM_NAMESPACE}_hotspot_count_total", labels
    if metric == "seconds":
        return f"{PROM_NAMESPACE}_hotspot_seconds", labels
    return (f"{PROM_NAMESPACE}_hotspot_"
            f"{sanitize_metric_name(metric)}", labels)


def _map_mem(name: str) -> Optional[Tuple[str, Dict[str, str]]]:
    """``mem.app.peak_kb`` / ``mem.stage.<stage>.peak_kb`` -> labeled
    ``nadroid_mem_peak_kb`` samples."""
    if name == "mem.app.peak_kb":
        return f"{PROM_NAMESPACE}_mem_peak_kb", {"scope": "app"}
    prefix, suffix = "mem.stage.", ".peak_kb"
    if name.startswith(prefix) and name.endswith(suffix) \
            and len(name) > len(prefix) + len(suffix):
        stage = name[len(prefix):-len(suffix)]
        return f"{PROM_NAMESPACE}_mem_peak_kb", \
            {"scope": "stage", "stage": stage}
    return None


def _map_runner(name: str, is_counter: bool) -> Tuple[str, Dict[str, str]]:
    """``runner.faults.<kind>`` keeps the fault kind as a label; every
    other ``runner.*`` metric maps by name."""
    if name.startswith("runner.faults.") and is_counter:
        kind = name[len("runner.faults."):]
        return f"{PROM_NAMESPACE}_runner_faults_total", {"kind": kind}
    family = f"{PROM_NAMESPACE}_{sanitize_metric_name(name)}"
    if is_counter:
        family += "_total"
    return family, {}


def metric_family(name: str, is_counter: bool) -> Tuple[str, Dict[str, str]]:
    """The deterministic (family, labels) mapping for one metric name.

    Structured families (``hotspot.*``, ``mem.*``, ``runner.*``) map to
    labeled samples; everything else maps positionally --
    ``a.b.c`` -> ``nadroid_a_b_c`` (counters gain the conventional
    ``_total`` suffix).  Characters outside ``[a-zA-Z0-9_:]`` (unicode
    app names, context keys with ``#``) fold to ``_`` in metric names and
    survive verbatim, escaped, in label values.
    """
    if name.startswith(HOTSPOT_PREFIX):
        mapped = _map_hotspot(name, is_counter)
        if mapped is not None:
            return mapped
    if name.startswith("mem."):
        mapped = _map_mem(name)
        if mapped is not None:
            return mapped
    if name.startswith("runner."):
        return _map_runner(name, is_counter)
    family = f"{PROM_NAMESPACE}_{sanitize_metric_name(name)}"
    if is_counter:
        family += "_total"
    return family, {}


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + inner + "}"


def prometheus_text(snapshot: MetricsSnapshot) -> str:
    """Render one snapshot as Prometheus text exposition (version 0.0.4).

    Families are emitted in sorted order, each under exactly one
    ``# TYPE`` header, samples sorted by label string -- so the output
    is byte-stable for a given snapshot.  An empty snapshot renders as
    the empty string.
    """
    # family -> (type, [(labels_text, value_text)])
    families: Dict[str, Tuple[str, List[Tuple[str, str]]]] = {}

    def collect(items: Mapping[str, Any], kind: str) -> None:
        for name in items:
            family, labels = metric_family(name, kind == "counter")
            entry = families.setdefault(family, (kind, []))
            if entry[0] != kind:
                # a name collision across kinds (should not happen with
                # the conventions above); disambiguate the gauge family
                family += "_gauge"
                entry = families.setdefault(family, (kind, []))
            entry[1].append(
                (_render_labels(labels), _format_value(items[name]))
            )

    collect(snapshot.counters, "counter")
    collect(snapshot.gauges, "gauge")
    lines: List[str] = []
    for family in sorted(families):
        kind, samples = families[family]
        lines.append(f"# TYPE {family} {kind}")
        for labels_text, value_text in sorted(samples):
            lines.append(f"{family}{labels_text} {value_text}")
    return "\n".join(lines) + "\n" if lines else ""


# -- Chrome trace-event JSON --------------------------------------------------


def _us(seconds: float) -> int:
    return int(round(seconds * 1e6))


def _stage_events(node: Dict[str, Any], origin: int, low: int, high: int,
                  tid: int, out: List[Dict[str, Any]]) -> None:
    """Emit one serialized span tree as complete ``X`` events on lane
    ``tid``: each node at ``origin`` plus its ``start_s`` offset,
    clamped into its parent's extent ``[low, high]`` (which absorbs the
    microsecond rounding), depth-first so stamps stay monotone."""
    start = origin + _us(node.get("start_s") or 0.0)
    end = start + _us(node.get("duration_s") or 0.0)
    start = min(max(start, low), high)
    end = min(max(end, start), high)
    event: Dict[str, Any] = {"ph": "X", "cat": "stage",
                             "name": str(node.get("name", "?")),
                             "pid": 1, "tid": tid, "ts": start,
                             "dur": end - start}
    attrs = {key: value for key, value in node.get("attrs", {}).items()
             if key != "profile"}
    if attrs:
        event["args"] = attrs
    out.append(event)
    for child in node.get("children", ()):
        _stage_events(child, origin, start, end, tid, out)


def _metadata(kind: str, pid: int, tid: int, name: str) -> Dict[str, Any]:
    return {"ph": "M", "name": kind, "pid": pid, "tid": tid, "ts": 0,
            "args": {"name": name}}


def _instant(record: Dict[str, Any], pid: int, tid: int,
             scope: str) -> Dict[str, Any]:
    event: Dict[str, Any] = {"ph": "i", "s": scope,
                             "name": str(record.get("event", "?")),
                             "pid": pid, "tid": tid,
                             "ts": _us(float(record.get("t", 0.0)))}
    args = {key: value for key, value in record.items()
            if key not in ("schema", "event", "t", "app")}
    if args:
        event["args"] = args
    return event


def chrome_trace(
    records: Iterable[Dict[str, Any]],
    apps: Optional[Mapping[str, MetricsSnapshot]] = None,
) -> Dict[str, Any]:
    """One run's Chrome trace-event timeline, built from its
    ``--events-out`` records and, optionally, its per-app snapshots.

    Run instants (``run-start``, ``run-end``) land on pid 0 (``run``).
    Each app gets one thread lane on pid 1 (``apps``, tid = first-seen
    order): an ``X`` event from ``app-start`` to ``app-done`` (or to the
    end of its ``duration_s``, if later) plus its ``cache-hit``,
    ``retry``, ``timeout`` and ``fault`` instants.  An app whose latest
    ``app-done`` says ``analyzed`` and which has a snapshot in ``apps``
    also gets its ``app:<name>`` span tree (``cat: "stage"``) inside the
    lane, its root ending at that ``app-done`` stamp -- the end, since
    ``app-start`` marks a retried app's first attempt.  Cached apps draw
    bare lanes: their replayed spans did not run in this run.  Events
    are sorted by timestamp (stably), so stamps are monotone per lane.
    """
    apps = apps or {}
    trace_events = [_metadata("process_name", 0, 0, "run"),
                    _metadata("process_name", 1, 0, "apps")]
    lanes: Dict[str, int] = {}
    starts: Dict[str, float] = {}
    #: app -> its latest app-done record and lane event
    done: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {}
    for record in records:
        app = record.get("app")
        if app is None:
            trace_events.append(_instant(record, 0, 1, "g"))
            continue
        app = str(app)
        if app not in lanes:
            lanes[app] = len(lanes) + 1
            trace_events.append(
                _metadata("thread_name", 1, lanes[app], app))
        tid = lanes[app]
        event = record.get("event")
        t = float(record.get("t", 0.0))
        if event == "app-start":
            starts[app] = t
        elif event == "app-done":
            start = starts.pop(app, t)
            duration = record.get("duration_s")
            end = max(t, start + float(duration)) \
                if duration is not None else t
            lane = {"ph": "X", "name": app, "pid": 1, "tid": tid,
                    "ts": _us(start), "dur": _us(end - start),
                    "args": {"status": record.get("status")}}
            trace_events.append(lane)
            done[app] = (record, lane)
        else:
            trace_events.append(_instant(record, 1, tid, "t"))
    for app, (record, lane) in done.items():
        snapshot = apps.get(app)
        if record.get("status") != "analyzed" or snapshot is None:
            continue
        for root in snapshot.spans:
            if root.get("name") == f"app:{app}":
                origin = _us(float(record["t"])) \
                    - _us(root.get("duration_s") or 0.0)
                _stage_events(root, origin, lane["ts"],
                              lane["ts"] + lane["dur"], lane["tid"],
                              trace_events)
    trace_events.sort(key=lambda event: event["ts"])
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "nadroid"},
    }


# -- collapsed-stack flamegraph -----------------------------------------------


def _frame(name: str) -> str:
    """Collapsed-stack frames may not contain the separators."""
    return str(name).replace(";", "_").replace(" ", "_")


def collapsed_stacks(snapshots: Iterable[MetricsSnapshot]) -> str:
    """Collapsed-stack lines (``frame;frame value``) over span paths and
    hotspot attribution, in microseconds.

    Span stacks weight each path by its *self* time (duration minus
    children), so the flame's widths add up like a sampled profile;
    hotspot units appear under a synthetic ``hotspot;<domain>;<name>``
    root weighted by their cumulative seconds.  Lines are sorted, so the
    output is stable for a given input.
    """
    snapshots = list(snapshots)
    weights: Dict[str, int] = {}

    def visit(node: Dict[str, Any], path: str) -> None:
        here = f"{path};{_frame(node.get('name', '?'))}" if path \
            else _frame(node.get("name", "?"))
        duration = node.get("duration_s") or 0.0
        child_total = 0.0
        for child in node.get("children", ()):
            child_total += child.get("duration_s") or 0.0
            visit(child, here)
        self_us = _us(max(0.0, duration - child_total))
        if self_us > 0:
            weights[here] = weights.get(here, 0) + self_us

    for snapshot in snapshots:
        for root in snapshot.spans:
            visit(root, "")
    for entry in collect_hotspots(snapshots):
        value = _us(entry.seconds)
        if value <= 0:
            continue
        key = f"hotspot;{_frame(entry.domain)};{_frame(entry.name)}"
        weights[key] = weights.get(key, 0) + value
    lines = [f"{path} {weights[path]}" for path in sorted(weights)]
    return "\n".join(lines) + "\n" if lines else ""
