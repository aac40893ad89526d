"""Tests for repro.obs.exporters (ISSUE 8): the Prometheus text,
Chrome trace-event, and collapsed-stack translations.

Covers the format contracts documented in ``docs/observability.md``:
byte-stable Prometheus exposition with the structured label mapping
(hotspot.*/mem.*/runner.* families), label escaping for hostile and
unicode names, structurally valid trace JSON that round-trips
``json.loads`` with monotone timestamps per (pid, tid) lane, and
self-time-weighted collapsed stacks.
"""

import json

from repro.obs import (
    chrome_trace,
    collapsed_stacks,
    MetricsSnapshot,
    prometheus_text,
    trace_from_events,
    write_trace,
)
from repro.obs.exporters import (
    escape_label_value,
    metric_family,
    sanitize_metric_name,
)


def _span(name, duration, children=(), attrs=None):
    node = {"name": name, "duration_s": duration,
            "children": list(children)}
    if attrs:
        node["attrs"] = attrs
    return node


# -- Prometheus text exposition ----------------------------------------------


def test_prometheus_empty_snapshot_is_empty_string():
    assert prometheus_text(MetricsSnapshot()) == ""


def test_prometheus_counter_and_gauge_families():
    snapshot = MetricsSnapshot(
        counters={"pointsto.passes": 3, "pointsto.worklist.popped": 41},
        gauges={"telemetry.uptime_seconds": 1.5},
    )
    text = prometheus_text(snapshot)
    assert "# TYPE nadroid_pointsto_passes_total counter" in text
    assert "nadroid_pointsto_passes_total 3" in text
    assert "nadroid_pointsto_worklist_popped_total 41" in text
    assert "# TYPE nadroid_telemetry_uptime_seconds gauge" in text
    assert "nadroid_telemetry_uptime_seconds 1.5" in text
    assert text.endswith("\n")


def test_prometheus_output_is_byte_stable():
    snapshot = MetricsSnapshot(
        counters={"b.two": 2, "a.one": 1},
        gauges={"z.gauge": 0.25},
    )
    assert prometheus_text(snapshot) == prometheus_text(snapshot)
    # families come out sorted regardless of insertion order
    reversed_snapshot = MetricsSnapshot(
        counters={"a.one": 1, "b.two": 2},
        gauges={"z.gauge": 0.25},
    )
    assert prometheus_text(snapshot) == prometheus_text(reversed_snapshot)


def test_prometheus_hotspot_family_mapping():
    snapshot = MetricsSnapshot(
        counters={"hotspot.pointsto.pair.M@ctx#1.pops": 7},
        gauges={"hotspot.pointsto.pair.M@ctx.seconds": 0.5},
    )
    text = prometheus_text(snapshot)
    assert ('nadroid_hotspot_count_total{domain="pointsto.pair",'
            'metric="pops",unit="M@ctx#1"} 7') in text
    assert ('nadroid_hotspot_seconds{domain="pointsto.pair",'
            'unit="M@ctx"} 0.5') in text


def test_prometheus_mem_and_runner_family_mapping():
    snapshot = MetricsSnapshot(
        counters={"runner.faults.timeout": 2, "runner.cache.hits": 5},
        gauges={"mem.app.peak_kb": 100.0,
                "mem.stage.pointsto.peak_kb": 40.0},
    )
    text = prometheus_text(snapshot)
    assert 'nadroid_runner_faults_total{kind="timeout"} 2' in text
    assert "nadroid_runner_cache_hits_total 5" in text
    assert 'nadroid_mem_peak_kb{scope="app"} 100' in text
    assert ('nadroid_mem_peak_kb{scope="stage",stage="pointsto"} 40'
            in text)
    # one # TYPE header per family even with several labeled samples
    assert text.count("# TYPE nadroid_mem_peak_kb gauge") == 1


def test_prometheus_label_escaping():
    assert escape_label_value('a"b') == 'a\\"b'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("a\nb") == "a\\nb"
    snapshot = MetricsSnapshot(
        counters={'runner.faults.we"ird': 1},
    )
    text = prometheus_text(snapshot)
    assert 'kind="we\\"ird"' in text


def test_prometheus_metric_names_are_always_legal():
    import re

    legal = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
    for name in ("höt.mötric", "hotspot.pointsto.pair.r#@!.x",
                 "mem.stage.po intso.peak_kb", "123.starts.with.digit"):
        family, _ = metric_family(name, True)
        assert legal.match(family), family
    assert legal.match(sanitize_metric_name("ünïcode.metric"))


def test_prometheus_unicode_app_name_survives_in_labels():
    snapshot = MetricsSnapshot(
        counters={"hotspot.pointsto.pair.règle-α@.pops": 1},
    )
    text = prometheus_text(snapshot)
    assert 'unit="règle-α@"' in text
    # the family name itself stays ASCII-legal
    for line in text.splitlines():
        if not line.startswith("#"):
            assert line.split("{")[0].isascii()


# -- Chrome trace-event JSON --------------------------------------------------


def _lane_timestamps(trace):
    lanes = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "M":
            continue
        lanes.setdefault((event["pid"], event["tid"]), []).append(
            event["ts"]
        )
    return lanes


def test_chrome_trace_structure_and_roundtrip():
    snapshot = MetricsSnapshot(spans=[
        _span("app:demo", 0.01, [
            _span("lowering", 0.004),
            _span("detection", 0.005, [_span("detect", 0.003)]),
        ]),
    ])
    trace = chrome_trace({"demo": snapshot})
    assert trace["displayTimeUnit"] == "ms"
    # round-trips json exactly
    assert json.loads(json.dumps(trace)) == trace
    names = [e["name"] for e in trace["traceEvents"]]
    assert "process_name" in names  # the pid metadata
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in complete] == \
        ["app:demo", "lowering", "detection", "detect"]
    for event in complete:
        assert isinstance(event["ts"], int) and event["ts"] >= 0
        assert isinstance(event["dur"], int) and event["dur"] >= 0
    # children are laid out inside the parent: lowering at 0,
    # detection after it
    by_name = {e["name"]: e for e in complete}
    assert by_name["app:demo"]["ts"] == 0
    assert by_name["lowering"]["ts"] == 0
    assert by_name["detection"]["ts"] == by_name["lowering"]["dur"]


def test_chrome_trace_timestamps_monotone_per_lane():
    snapshot = MetricsSnapshot(spans=[
        _span("root", 0.02, [
            _span("a", 0.005), _span("b", 0.007, [_span("c", 0.002)]),
        ]),
    ])
    other = MetricsSnapshot(spans=[_span("root", 0.01)])
    trace = chrome_trace({"one": snapshot, "twö": other})
    for lane, stamps in _lane_timestamps(trace).items():
        assert stamps == sorted(stamps), lane


def test_chrome_trace_assigns_one_pid_per_app_in_input_order():
    apps = {"alpha": MetricsSnapshot(spans=[_span("x", 0.001)]),
            "beta": MetricsSnapshot(spans=[_span("y", 0.001)])}
    trace = chrome_trace(apps)
    metas = [e for e in trace["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"]
    assert [(m["pid"], m["args"]["name"]) for m in metas] == \
        [(1, "app:alpha"), (2, "app:beta")]


def test_chrome_trace_unclosed_span_gets_zero_duration():
    snapshot = MetricsSnapshot(spans=[
        {"name": "open", "duration_s": None, "children": []},
    ])
    trace = chrome_trace({"app": snapshot})
    (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert event["dur"] == 0


def test_chrome_trace_includes_event_stream_instants():
    snapshot = MetricsSnapshot(spans=[_span("root", 0.01)])
    records = [
        {"schema": 1, "event": "run-start", "t": 0.0, "kind": "table1"},
        {"schema": 1, "event": "cache-hit", "t": 0.002, "app": "demo"},
    ]
    trace = chrome_trace({"demo": snapshot}, events=records)
    instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["run-start", "cache-hit"]
    assert all(e["pid"] == 0 for e in instants)
    assert instants[1]["ts"] == 2000  # microseconds


def test_trace_from_events_builds_real_time_lanes():
    records = [
        {"schema": 1, "event": "run-start", "t": 0.0, "kind": "x",
         "apps": 2},
        {"schema": 1, "event": "app-start", "t": 0.001, "app": "a"},
        {"schema": 1, "event": "app-start", "t": 0.001, "app": "b"},
        {"schema": 1, "event": "retry", "t": 0.002, "app": "a"},
        {"schema": 1, "event": "app-done", "t": 0.010, "app": "a",
         "status": "analyzed", "duration_s": 0.009},
        {"schema": 1, "event": "app-done", "t": 0.012, "app": "b",
         "status": "faulted"},
        {"schema": 1, "event": "run-end", "t": 0.012},
    ]
    trace = trace_from_events(records)
    assert json.loads(json.dumps(trace)) == trace
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"a", "b"}
    by_name = {e["name"]: e for e in complete}
    # apps get distinct lanes, so the overlap is visible
    assert by_name["a"]["tid"] != by_name["b"]["tid"]
    assert by_name["a"]["ts"] == 1000 and by_name["a"]["dur"] == 9000
    assert by_name["a"]["args"]["status"] == "analyzed"
    retry = [e for e in trace["traceEvents"] if e["name"] == "retry"]
    assert retry and retry[0]["tid"] == by_name["a"]["tid"]
    for lane, stamps in _lane_timestamps(trace).items():
        assert stamps == sorted(stamps), lane


def test_write_trace_is_loadable_json(tmp_path):
    path = tmp_path / "trace.json"
    trace = chrome_trace(
        {"app": MetricsSnapshot(spans=[_span("root", 0.001)])}
    )
    write_trace(str(path), trace)
    assert json.loads(path.read_text()) == trace


# -- collapsed-stack flamegraph -----------------------------------------------


def test_collapsed_stacks_empty_input():
    assert collapsed_stacks([]) == ""
    assert collapsed_stacks([MetricsSnapshot()]) == ""


def test_collapsed_stacks_self_time_weighting():
    snapshot = MetricsSnapshot(spans=[
        _span("root", 0.010, [_span("child", 0.004)]),
    ])
    text = collapsed_stacks([snapshot])
    lines = dict(
        line.rsplit(" ", 1) for line in text.strip().splitlines()
    )
    # root's self time is 10ms - 4ms = 6ms
    assert int(lines["root"]) == 6000
    assert int(lines["root;child"]) == 4000


def test_collapsed_stacks_sanitizes_separators_and_aggregates():
    one = MetricsSnapshot(spans=[_span("a b;c", 0.002)])
    two = MetricsSnapshot(spans=[_span("a b;c", 0.003)])
    text = collapsed_stacks([one, two])
    (line,) = text.strip().splitlines()
    frame, value = line.rsplit(" ", 1)
    assert ";" not in frame.replace("_", "") and " " not in frame
    assert int(value) == 5000  # aggregated across snapshots


def test_collapsed_stacks_includes_hotspot_lines():
    snapshot = MetricsSnapshot(
        gauges={"hotspot.pointsto.pair.M@ctx.seconds": 0.5},
    )
    text = collapsed_stacks([snapshot])
    assert "hotspot;pointsto.pair;M@ctx 500000" in text
