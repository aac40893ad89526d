"""Tests for repro.obs.exporters: the Prometheus text,
Chrome trace-event, and collapsed-stack translations.

Covers the format contracts documented in ``docs/observability.md``:
byte-stable Prometheus exposition with the structured label mapping
(hotspot.*/mem.*/runner.* families), label escaping for hostile and
unicode names, structurally valid trace JSON that round-trips
``json.loads`` with monotone timestamps per (pid, tid) lane, and
self-time-weighted collapsed stacks.
"""

import json

import pytest

from repro.cli import main
from repro.corpus import app
from repro.obs import (
    chrome_trace,
    collapsed_stacks,
    MetricsSnapshot,
    prometheus_text,
    write_json,
)
from repro.obs.exporters import (
    escape_label_value,
    metric_family,
    sanitize_metric_name,
)


def _span(name, duration, children=(), attrs=None, start=None):
    node = {"name": name, "duration_s": duration,
            "children": list(children)}
    if attrs:
        node["attrs"] = attrs
    if start is not None:
        node["start_s"] = start
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


def _event(event, t, **fields):
    return {"schema": 1, "event": event, "t": t, **fields}


def _analyzed(app, start, done, duration):
    """An app's lifecycle records: analyzed between two stream stamps."""
    return [_event("app-start", start, app=app),
            _event("app-done", done, app=app, status="analyzed",
                   duration_s=duration)]


def _stages(trace):
    return [e for e in trace["traceEvents"] if e.get("cat") == "stage"]


def _assert_nested(trace):
    """Each stage event lies within the innermost X event still open on
    its lane where it starts -- the way a trace viewer nests them (a
    zero-length event at its parent's end still belongs to it)."""
    stacks = {}
    for event in trace["traceEvents"]:
        if event["ph"] != "X":
            continue
        start, end = event["ts"], event["ts"] + event["dur"]
        stack = stacks.setdefault((event["pid"], event["tid"]), [])
        while stack and (stack[-1][1] < start or stack[-1][1] == start < end):
            stack.pop()
        if event.get("cat") == "stage":
            assert stack, event
            assert stack[-1][0] <= start and end <= stack[-1][1], event
        stack.append((start, end))


def test_chrome_trace_structure_and_roundtrip():
    snapshot = MetricsSnapshot(spans=[
        _span("app:demo", 0.010, [
            _span("lowering", 0.004, start=0.0),
            _span("detection", 0.005, [
                _span("detect", 0.003, start=0.006),
            ], start=0.005),
        ], start=0.0),
    ])
    records = _analyzed("demo", 0.001, 0.012, 0.010)
    trace = chrome_trace(records, {"demo": snapshot})
    assert trace["displayTimeUnit"] == "ms"
    # round-trips json exactly
    assert json.loads(json.dumps(trace)) == trace
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in complete] == \
        ["demo", "app:demo", "lowering", "detection", "detect"]
    for event in complete:
        assert isinstance(event["ts"], int) and event["ts"] >= 0
        assert isinstance(event["dur"], int) and event["dur"] >= 0
        assert event["pid"] == 1 and event["tid"] == 1
    # the lane spans app-start..app-done; the stage tree ends at
    # app-done and every span sits at its start offset from the root
    at = {e["name"]: (e["ts"], e["dur"]) for e in complete}
    assert at["demo"] == (1000, 11000)
    assert at["app:demo"] == (2000, 10000)
    assert at["lowering"] == (2000, 4000)
    assert at["detection"] == (7000, 5000)
    assert at["detect"] == (8000, 3000)
    assert "cat" not in complete[0]
    assert all(e["cat"] == "stage" for e in complete[1:])
    _assert_nested(trace)


def test_chrome_trace_timestamps_monotone_per_lane():
    one = MetricsSnapshot(spans=[
        _span("app:one", 0.02, [
            _span("a", 0.005, start=0.001),
            _span("b", 0.007, [_span("c", 0.002, start=0.012)],
                  start=0.010),
        ], start=0.0),
    ])
    two = MetricsSnapshot(spans=[_span("app:twö", 0.01, start=0.0)])
    records = [
        _event("run-start", 0.0, kind="table1", apps=2),
        _event("app-start", 0.001, app="one"),
        _event("app-start", 0.002, app="twö"),
        _event("app-done", 0.015, app="twö", status="analyzed",
               duration_s=0.01),
        _event("app-done", 0.025, app="one", status="analyzed",
               duration_s=0.02),
        _event("run-end", 0.026),
    ]
    trace = chrome_trace(records, {"one": one, "twö": two})
    assert len(_stages(trace)) == 5
    for lane, stamps in _lane_timestamps(trace).items():
        assert stamps == sorted(stamps), lane
    _assert_nested(trace)


def test_chrome_trace_assigns_one_lane_per_app_in_first_seen_order():
    records = _analyzed("beta", 0.001, 0.002, None) \
        + _analyzed("alpha", 0.003, 0.004, None)
    trace = chrome_trace(records)
    metas = [(e["name"], e["pid"], e["tid"], e["args"]["name"])
             for e in trace["traceEvents"] if e["ph"] == "M"]
    assert metas == [("process_name", 0, 0, "run"),
                     ("process_name", 1, 0, "apps"),
                     ("thread_name", 1, 1, "beta"),
                     ("thread_name", 1, 2, "alpha")]


def test_chrome_trace_unclosed_span_gets_zero_duration():
    snapshot = MetricsSnapshot(spans=[
        {"name": "app:app", "start_s": 0.0, "duration_s": None},
    ])
    trace = chrome_trace(_analyzed("app", 0.001, 0.002, None),
                         {"app": snapshot})
    (event,) = _stages(trace)
    assert event["dur"] == 0 and event["ts"] == 2000


def test_chrome_trace_includes_event_stream_instants():
    records = [
        _event("run-start", 0.0, kind="table1"),
        _event("app-start", 0.001, app="demo"),
        _event("cache-hit", 0.002, app="demo"),
        _event("app-done", 0.002, app="demo", status="cached",
               duration_s=0.5),
    ]
    trace = chrome_trace(records)
    instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["run-start", "cache-hit"]
    assert instants[0]["pid"] == 0
    # the app's own instants ride its lane
    assert (instants[1]["pid"], instants[1]["tid"]) == (1, 1)
    assert instants[1]["ts"] == 2000  # microseconds


def test_chrome_trace_builds_real_time_lanes_from_events():
    records = [
        _event("run-start", 0.0, kind="x", apps=2),
        _event("app-start", 0.001, app="a"),
        _event("app-start", 0.001, app="b"),
        _event("retry", 0.002, app="a", kind="worker-lost"),
        _event("app-done", 0.010, app="a", status="analyzed",
               duration_s=0.009),
        _event("app-done", 0.012, app="b", status="faulted"),
        _event("run-end", 0.012),
    ]
    trace = chrome_trace(records)
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


def test_chrome_trace_clamps_stages_into_their_parents():
    # the root outlasts its lane by the stamps' rounding, and a child
    # starts before its parent and runs past it
    snapshot = MetricsSnapshot(spans=[
        _span("app:x", 0.0100004, [
            _span("late", 0.002, [_span("early", 0.004, start=0.0005)],
                  start=0.001),
        ], start=0.0),
    ])
    trace = chrome_trace(_analyzed("x", 0.001, 0.011, 0.0100004),
                         {"x": snapshot})
    lane, root, late, early = [e for e in trace["traceEvents"]
                               if e["ph"] == "X"]
    assert root["ts"] >= lane["ts"]
    assert root["ts"] + root["dur"] == lane["ts"] + lane["dur"] == 11000
    assert (late["ts"], late["dur"]) == (2000, 2000)
    assert (early["ts"], early["dur"]) == (2000, 2000)
    _assert_nested(trace)


def test_chrome_trace_draws_bare_lanes_for_cached_and_faulted_apps():
    spans = {name: MetricsSnapshot(spans=[_span(f"app:{name}", 0.001,
                                                start=0.0)])
             for name in ("hit", "bad", "ok")}
    records = [
        _event("app-start", 0.0, app="hit"),
        _event("cache-hit", 0.0, app="hit"),
        _event("app-done", 0.0, app="hit", status="cached",
               duration_s=0.001),
        _event("app-start", 0.0, app="bad"),
        _event("fault", 0.001, app="bad", kind="analysis"),
        _event("app-done", 0.001, app="bad", status="faulted"),
    ] + _analyzed("ok", 0.001, 0.003, 0.001)
    trace = chrome_trace(records, spans)
    assert [e["name"] for e in _stages(trace)] == ["app:ok"]


def test_chrome_trace_places_stages_at_the_latest_app_done():
    """Two runs on one log: only the last outcome of an app counts."""
    snapshot = MetricsSnapshot(spans=[_span("app:a", 0.001, start=0.0)])
    analyzed_then_cached = _analyzed("a", 0.0, 0.002, 0.001) + [
        _event("app-start", 0.010, app="a"),
        _event("app-done", 0.010, app="a", status="cached",
               duration_s=0.001),
    ]
    assert _stages(chrome_trace(analyzed_then_cached, {"a": snapshot})) \
        == []
    cached_then_analyzed = analyzed_then_cached[2:] \
        + _analyzed("a", 0.020, 0.030, 0.001)
    (root,) = _stages(chrome_trace(cached_then_analyzed, {"a": snapshot}))
    assert root["ts"] == 29000


def test_written_trace_is_loadable_json(tmp_path):
    path = tmp_path / "trace.json"
    trace = chrome_trace(
        _analyzed("app", 0.0, 0.002, 0.001),
        {"app": MetricsSnapshot(spans=[_span("app:app", 0.001,
                                              start=0.0)])},
    )
    write_json(str(path), trace)
    assert json.loads(path.read_text()) == trace


# -- one timeline per run, through the CLI ----------------------------------

APPS = ["todolist", "swiftnotes", "clipstack"]
STAGES = {"lowering", "modeling", "detection", "filtering"}


def _read(path):
    return json.loads(path.read_text())


def _check_lanes(trace):
    for lane, stamps in _lane_timestamps(trace).items():
        assert stamps == sorted(stamps), lane
    _assert_nested(trace)


def _app_lanes(trace):
    """tid -> app name, from the apps' lane events."""
    return {e["tid"]: e["name"] for e in trace["traceEvents"]
            if e["ph"] == "X" and "cat" not in e}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_trace_out_is_the_event_trace_plus_each_apps_stages(
        tmp_path, capsys, jobs):
    events, out, replay = (tmp_path / name for name in ("E", "T", "R"))
    assert main(["corpus", "--apps", *APPS, "--jobs", jobs, "--no-cache",
                 "--events-out", str(events),
                 "--trace-out", str(out)]) == 0
    assert main(["events", "to-trace", str(events), str(replay)]) == 0
    capsys.readouterr()
    trace = _read(out)
    bare = [e for e in trace["traceEvents"] if e.get("cat") != "stage"]
    assert {**trace, "traceEvents": bare} == _read(replay)
    _check_lanes(trace)
    assert sorted(_app_lanes(trace).values()) == sorted(APPS)
    for tid, app in _app_lanes(trace).items():
        names = {e["name"] for e in _stages(trace) if e["tid"] == tid}
        assert {f"app:{app}"} | STAGES <= names


def test_a_warm_rerun_draws_bare_lanes_with_cache_hits(tmp_path, capsys):
    run = ["corpus", "--apps", *APPS, "--cache-dir", str(tmp_path / "c")]
    assert main(run) == 0
    out = tmp_path / "T"
    assert main(run + ["--trace-out", str(out)]) == 0
    capsys.readouterr()
    trace = _read(out)
    assert _stages(trace) == []
    hits = [e["tid"] for e in trace["traceEvents"]
            if e["name"] == "cache-hit"]
    assert sorted(hits) == sorted(_app_lanes(trace)) == [1, 2, 3]
    _check_lanes(trace)


def test_analyze_trace_out_draws_one_app_lane_with_its_stages(
        tmp_path, capsys):
    source = tmp_path / "app.mjava"
    source.write_text(app("todolist").source())
    out = tmp_path / "T"
    assert main(["analyze", str(source), "--trace-out", str(out)]) in (0, 1)
    capsys.readouterr()
    trace = _read(out)
    assert _app_lanes(trace) == {1: "app"}
    assert {"app:app"} | STAGES <= {e["name"] for e in _stages(trace)}
    _check_lanes(trace)


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
