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
* :func:`chrome_trace` / :func:`trace_from_events` -- Chrome
  trace-event JSON (the format Perfetto and ``chrome://tracing`` load):
  the recorded span trees stitched into one timeline with a synthetic
  pid/tid lane per app, plus instant events from the run event stream;
* :func:`collapsed_stacks` -- Brendan Gregg's collapsed-stack format
  over span paths (self-time) and hotspot cumulative seconds, ready for
  ``flamegraph.pl`` or speedscope.

Determinism contract: everything here is a pure function of its inputs.
Serialized spans carry no absolute timestamps, so the trace timeline is
*synthetic* -- each app starts its own lane at t=0 and children are laid
out sequentially from their parent's start -- which keeps two exports of
the same run identical up to durations.  :func:`trace_from_events`, by
contrast, uses the stream's real ``t`` offsets, so it shows the actual
fan-out concurrency of a run.
"""

from __future__ import annotations

import json
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


def _span_events(node: Dict[str, Any], start_s: float, pid: int,
                 tid: int, out: List[Dict[str, Any]]) -> float:
    """Emit one serialized span tree as complete ``X`` events.

    Spans carry durations but no absolute timestamps, so the layout is
    synthetic: a node starts at ``start_s`` and its children are laid
    out sequentially from there.  Emission is depth-first, which keeps
    timestamps monotone (non-decreasing) within the lane.  Returns the
    node's duration.
    """
    duration = node.get("duration_s") or 0.0
    event: Dict[str, Any] = {
        "ph": "X",
        "name": str(node.get("name", "?")),
        "pid": pid,
        "tid": tid,
        "ts": _us(start_s),
        "dur": _us(duration),
    }
    attrs = {
        key: value for key, value in node.get("attrs", {}).items()
        if key != "profile"
    }
    if attrs:
        event["args"] = attrs
    out.append(event)
    cursor = start_s
    for child in node.get("children", ()):
        cursor += _span_events(child, cursor, pid, tid, out)
    return duration


def _process_meta(pid: int, name: str) -> Dict[str, Any]:
    return {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": name}}


def chrome_trace(
    apps: Mapping[str, MetricsSnapshot],
    events: Optional[Iterable[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Stitch per-app span trees into one Chrome trace-event payload.

    Each app becomes its own synthetic process lane (pid = 1-based input
    order, named ``app:<name>`` via a ``process_name`` metadata event);
    its span trees render as complete ``X`` events laid out sequentially
    from t=0.  ``events`` (records from the ``--events-out`` stream)
    land as instant ``i`` events on pid 0 (``run``), at their real
    stream offsets.  The result loads in Perfetto / ``chrome://tracing``
    and round-trips ``json.loads`` unchanged.
    """
    trace_events: List[Dict[str, Any]] = []
    if events:
        trace_events.append(_process_meta(0, "run"))
        for record in events:
            args = {key: value for key, value in record.items()
                    if key not in ("schema", "event", "t")}
            instant: Dict[str, Any] = {
                "ph": "i",
                "s": "g",
                "name": str(record.get("event", "?")),
                "pid": 0,
                "tid": 1,
                "ts": _us(float(record.get("t", 0.0))),
            }
            if args:
                instant["args"] = args
            trace_events.append(instant)
    for index, (name, snapshot) in enumerate(apps.items(), start=1):
        trace_events.append(_process_meta(index, f"app:{name}"))
        cursor = 0.0
        for root in snapshot.spans:
            cursor += _span_events(root, cursor, index, 1, trace_events)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "nadroid"},
    }


def trace_from_events(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """A *real-time* trace built from an ``--events-out`` stream alone.

    Each app gets a thread lane (tid = first-seen order) on pid 1
    (``apps``); its ``app-start``/``app-done`` pair becomes one complete
    ``X`` event spanning the actual stream offsets, and mid-flight
    events (``cache-hit``, ``retry``, ``timeout``, ``fault``) become
    instants on the same lane.  Run boundaries land as instants on
    pid 0.  Events are emitted sorted by timestamp (stably), so the
    stamps are monotone within every lane.
    """
    trace_events: List[Dict[str, Any]] = []
    trace_events.append(_process_meta(0, "run"))
    trace_events.append(_process_meta(1, "apps"))
    lanes: Dict[str, int] = {}
    starts: Dict[str, float] = {}
    for record in records:
        event = str(record.get("event", "?"))
        t = float(record.get("t", 0.0))
        app = record.get("app")
        if app is None:
            args = {key: value for key, value in record.items()
                    if key not in ("schema", "event", "t")}
            instant = {"ph": "i", "s": "g", "name": event,
                       "pid": 0, "tid": 1, "ts": _us(t)}
            if args:
                instant["args"] = args
            trace_events.append(instant)
            continue
        tid = lanes.setdefault(str(app), len(lanes) + 1)
        if event == "app-start":
            starts[str(app)] = t
            continue
        if event == "app-done":
            start = starts.pop(str(app), t)
            duration = record.get("duration_s")
            end = max(t, start + float(duration)) \
                if duration is not None else t
            trace_events.append({
                "ph": "X", "name": str(app), "pid": 1, "tid": tid,
                "ts": _us(start), "dur": _us(end - start),
                "args": {"status": record.get("status")},
            })
            continue
        args = {key: value for key, value in record.items()
                if key not in ("schema", "event", "t", "app")}
        instant = {"ph": "i", "s": "t", "name": event,
                   "pid": 1, "tid": tid, "ts": _us(t)}
        if args:
            instant["args"] = args
        trace_events.append(instant)
    # an app's X event lands at its *start* stamp but is emitted at
    # app-done time; a stable sort restores per-lane monotonicity
    trace_events.sort(key=lambda event: event.get("ts", 0))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "nadroid"},
    }


def write_trace(path: str, trace: Dict[str, Any]) -> None:
    """Write a trace payload canonically (sorted keys, trailing newline);
    event order inside ``traceEvents`` is preserved."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True, indent=2)
        handle.write("\n")


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
