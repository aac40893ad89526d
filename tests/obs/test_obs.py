"""Tests for the repro.obs observability subsystem (ISSUE 2).

Covers: span nesting and timing monotonicity, counter merging across
simulated worker snapshots, deterministic JSON export (stable key order,
no absolute timestamps), the flat per-stage seconds read off the span
tree (``MetricsSnapshot.stage_seconds``), pipeline counter determinism across ``--jobs`` settings,
and the ``repro bench`` payload schema.
"""

import json

import pytest

from repro import obs
from repro.obs import (
    canonical_json,
    merge_snapshots,
    MetricsSnapshot,
    Recorder,
    render_spans,
    Span,
)


# -- spans --------------------------------------------------------------------


def test_span_nesting_builds_a_tree():
    rec = Recorder()
    with obs.use(rec):
        with obs.span("outer"):
            with obs.span("inner-a"):
                pass
            with obs.span("inner-b"):
                with obs.span("leaf"):
                    pass
    assert [root.name for root in rec.roots] == ["outer"]
    outer = rec.roots[0]
    assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
    assert [c.name for c in outer.children[1].children] == ["leaf"]


def test_span_timing_monotonicity():
    """Every span closes with a non-negative duration no smaller than the
    sum of its children (children run inside the parent)."""
    rec = Recorder()
    with obs.use(rec):
        with obs.span("parent"):
            for i in range(3):
                with obs.span(f"child{i}"):
                    sum(range(1000))
    for node in rec.roots[0].walk():
        assert node.closed
        assert node.duration >= 0.0
    parent = rec.roots[0]
    assert parent.duration >= sum(c.duration for c in parent.children)


def test_span_without_a_recorder_records_nothing(monkeypatch):
    from repro.obs import recorder as recorder_module

    def no_span(*args, **kwargs):
        raise AssertionError("a Span was built with no recorder installed")

    monkeypatch.setattr(recorder_module, "Span", no_span)
    assert obs.current() is None
    with obs.span("standalone") as sp:
        sum(range(1000))
    assert sp is None


def test_counters_are_noops_without_a_recorder():
    obs.add("nobody.home", 7)  # must not raise


def test_on_span_end_callback_fires_per_span():
    rec = Recorder()
    seen = []
    rec.on_span_end.append(lambda sp: seen.append(sp.name))
    with obs.use(rec):
        with obs.span("a"):
            with obs.span("b"):
                pass
    assert seen == ["b", "a"]  # children close before parents


def test_profile_stage_captures_cprofile_output():
    rec = Recorder(profile_stages={"hot"})
    with obs.use(rec):
        with obs.span("hot"):
            sorted(range(1000), key=lambda x: -x)
        with obs.span("cold"):
            pass
    hot, cold = rec.roots
    assert "cumulative" in hot.attrs["profile"]
    assert "profile" not in cold.attrs


def test_span_roundtrip_through_dict():
    rec = Recorder()
    with obs.use(rec):
        with obs.span("root", k=2):
            with obs.span("child"):
                pass
    restored = Span.from_dict(rec.roots[0].to_dict())
    assert restored.name == "root"
    assert restored.attrs == {"k": 2}
    assert [c.name for c in restored.children] == ["child"]
    assert restored.duration == pytest.approx(rec.roots[0].duration)


# -- counters, gauges, merging ------------------------------------------------


def test_counter_merge_across_simulated_worker_snapshots():
    """Per-worker snapshots (one per app, as the runner produces them)
    merge counters by summation, independent of order; gauges are
    measurements, so a same-named gauge takes the last write instead
    of a meaningless sum."""
    workers = []
    for passes in (3, 5, 7):
        rec = Recorder()
        rec.add("pointsto.passes", passes)
        rec.add("shared.count")
        rec.set_gauge("wall", 0.5)
        workers.append(rec.snapshot())
    merged = merge_snapshots(workers)
    assert merged.counters["pointsto.passes"] == 15
    assert merged.counters["shared.count"] == 3
    assert merged.gauges["wall"] == pytest.approx(0.5)
    reversed_merge = merge_snapshots(list(reversed(workers)))
    assert merged.counters == reversed_merge.counters


def test_gauge_merge_peak_gauges_take_the_max():
    """``*.peak_*`` gauges are high-water marks: merging keeps the max,
    in either order, while plain gauges stay last-write."""
    first, second = Recorder(), Recorder()
    first.set_gauge("mem.app.peak_kb", 100.0)
    first.set_gauge("wall", 1.0)
    second.set_gauge("mem.app.peak_kb", 40.0)
    second.set_gauge("wall", 2.0)
    snapshots = [first.snapshot(), second.snapshot()]
    merged = merge_snapshots(snapshots)
    assert merged.gauges["mem.app.peak_kb"] == pytest.approx(100.0)
    assert merged.gauges["wall"] == pytest.approx(2.0)
    reversed_merge = merge_snapshots(list(reversed(snapshots)))
    assert reversed_merge.gauges["mem.app.peak_kb"] == pytest.approx(100.0)
    assert reversed_merge.gauges["wall"] == pytest.approx(1.0)


def test_snapshot_roundtrip():
    rec = Recorder()
    with obs.use(rec):
        with obs.span("stage"):
            obs.add("facts", 42)
            obs.set_gauge("load", 0.25)
    snap = MetricsSnapshot.from_dict(rec.snapshot().to_dict())
    assert snap.counters == {"facts": 42}
    assert snap.gauges == {"load": 0.25}
    assert snap.spans[0]["name"] == "stage"


# -- exporters ----------------------------------------------------------------


def test_json_export_is_deterministic_modulo_durations():
    """Two runs of the same work produce identical JSON once the timing
    fields (start offsets, durations) are zeroed: stable key order, no
    absolute timestamps anywhere."""

    def one_run():
        rec = Recorder()
        with obs.use(rec):
            with obs.span("outer", k=2):
                with obs.span("inner"):
                    pass
            # insertion order deliberately differs between runs below
            obs.add("z.last", 1)
            obs.add("a.first", 2)
        return rec.snapshot()

    def zero_durations(node):
        node["start_s"] = 0.0
        node["duration_s"] = 0.0
        for child in node.get("children", ()):
            zero_durations(child)

    payloads = []
    for _ in range(2):
        data = json.loads(canonical_json(one_run().to_dict()))
        for root in data["spans"]:
            zero_durations(root)
        payloads.append(json.dumps(data, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_span_dicts_carry_no_absolute_timestamps():
    rec = Recorder()
    with obs.use(rec):
        with obs.span("stage"):
            with obs.span("inner"):
                pass
    payload = rec.roots[0].to_dict()
    assert set(payload) <= {"name", "start_s", "duration_s", "attrs",
                            "children"}
    # start offsets are relative to the root, which starts at 0.0: an
    # absolute perf_counter stamp would be far past the root's end
    assert payload["start_s"] == 0.0
    (inner,) = payload["children"]
    assert 0.0 <= inner["start_s"] <= payload["duration_s"]
    assert inner["start_s"] + inner["duration_s"] <= payload["duration_s"]


def test_span_dicts_round_trip_start_offsets():
    rec = Recorder()
    with obs.use(rec):
        with obs.span("root"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
    payload = rec.roots[0].to_dict()
    assert Span.from_dict(payload).to_dict() == payload
    # dicts from before start_s existed (old metrics, cache entries)
    legacy = {"name": "root", "duration_s": 0.5,
              "children": [{"name": "a", "duration_s": 0.25}]}
    rebuilt = Span.from_dict(legacy).to_dict()
    assert rebuilt["start_s"] == rebuilt["children"][0]["start_s"] == 0.0
    assert rebuilt["children"][0]["duration_s"] == 0.25


def test_render_spans_tree_shape():
    rec = Recorder()
    with obs.use(rec):
        with obs.span("outer"):
            with obs.span("inner", engine="datalog"):
                pass
    text = render_spans(rec.snapshot().spans)
    lines = text.splitlines()
    assert lines[0].startswith("outer")
    assert lines[1].startswith("  inner")
    assert "engine=datalog" in lines[1]


# -- pipeline integration -----------------------------------------------------


@pytest.fixture(scope="module")
def instrumented_result():
    from repro.corpus import app
    from repro.harness.table1 import analyze_corpus_app

    rec = Recorder()
    with obs.use(rec):
        result = analyze_corpus_app(app("todolist"))
    return rec, result


def test_analysis_result_timings_backward_compatible():
    """The flat ``{stage: seconds, "total": ...}`` view survives as
    ``stage_seconds()`` of a task's snapshot: one entry per child of the
    ``app:<name>`` root, plus their sum."""
    from repro.runner import execute_app_task_observed

    envelope = execute_app_task_observed("table1", "todolist",
                                         {"validate": False})
    snapshot = MetricsSnapshot.from_dict(envelope["obs"])
    timings = snapshot.stage_seconds()
    assert list(timings) == ["lowering", "modeling", "detection",
                             "filtering", "total"]
    root = snapshot.spans[0]
    assert timings == {
        **{child["name"]: child["duration_s"] for child in root["children"]},
        "total": sum(child["duration_s"] for child in root["children"]),
    }
    assert all(v > 0 for v in timings.values())


def test_pipeline_records_expected_counter_families(instrumented_result):
    rec, _ = instrumented_result
    counters = rec.snapshot().counters
    for required in (
        "pointsto.passes", "pointsto.var_facts", "pointsto.abstract_objects",
        "detector.candidate_pairs", "detector.potential_warnings",
        "filters.potential", "filters.after_sound", "filters.after_unsound",
        "funnel.potential", "funnel.after_sound", "funnel.remaining",
    ):
        assert required in counters, required


def test_funnel_counters_are_monotone(instrumented_result):
    rec, _ = instrumented_result
    counters = rec.snapshot().counters
    assert counters["detector.candidate_pairs"] \
        >= counters["detector.potential_warnings"]
    assert counters["funnel.potential"] >= counters["funnel.after_sound"] \
        >= counters["funnel.remaining"]


def test_detection_span_nests_pointsto_and_detect(instrumented_result):
    rec, _ = instrumented_result
    by_name = {root.name: root for root in rec.roots}
    detection = by_name["detection"]
    child_names = [c.name for c in detection.children]
    assert child_names == ["pointsto", "lockset", "detect"]


# -- runner and bench ---------------------------------------------------------


SUBSET = ["todolist", "swiftnotes", "clipstack"]


def _specs():
    from repro.corpus import app

    return [app(name) for name in SUBSET]


def test_runner_counters_identical_across_jobs():
    """The acceptance criterion: --jobs 1 and --jobs 4 yield identical
    counter values (only durations may differ)."""
    from repro.runner import CorpusRunner

    snapshots = {}
    for jobs in (1, 4):
        runner = CorpusRunner(jobs=jobs)
        runner.run("table1", SUBSET, {"validate": False})
        snapshots[jobs] = runner.last_metrics
    for name in SUBSET:
        assert snapshots[1].apps[name].counters \
            == snapshots[4].apps[name].counters, name
    assert snapshots[1].totals().counters == snapshots[4].totals().counters


def test_cache_replays_recorded_metric_snapshots(tmp_path):
    from repro.runner import CorpusRunner, ResultCache

    cold = CorpusRunner(cache=ResultCache(tmp_path))
    cold.run("table1", SUBSET, {"validate": False})
    warm = CorpusRunner(cache=ResultCache(tmp_path))
    warm.run("table1", SUBSET, {"validate": False})
    counters = warm.last_metrics.run.counters
    assert counters["runner.apps.analyzed"] == 0
    assert counters["runner.cache.hits"] == len(SUBSET)
    for name in SUBSET:
        assert cold.last_metrics.apps[name].to_dict() \
            == warm.last_metrics.apps[name].to_dict()


def test_worker_spans_root_at_app_name():
    from repro.runner import CorpusRunner

    runner = CorpusRunner(jobs=2)
    runner.run("table1", SUBSET, {"validate": False})
    for name in SUBSET:
        spans = runner.last_metrics.apps[name].spans
        assert len(spans) == 1
        assert spans[0]["name"] == f"app:{name}"
        child_names = [c["name"] for c in spans[0]["children"]]
        assert child_names == ["lowering", "modeling", "detection",
                               "filtering"]


def test_run_stats_describe_includes_cache_counts(tmp_path):
    from repro.obs import describe_run
    from repro.runner import CorpusRunner, ResultCache

    runner = CorpusRunner(cache=ResultCache(tmp_path))
    runner.run("table1", SUBSET[:1], {"validate": False})
    line = describe_run(runner.last_metrics.run)
    assert "1 analyzed, 0 from cache" in line
    assert "cache: 0 hits, 1 misses, 1 stores" in line


def test_bench_payload_schema(tmp_path):
    from repro.harness import run_bench
    from repro.obs import write_json
    from repro.runner import CorpusRunner

    payload = run_bench(CorpusRunner(jobs=2), apps=_specs())
    assert payload["schema"] == 1
    assert sorted(payload["apps"]) == sorted(SUBSET)
    for entry in payload["apps"].values():
        assert set(entry["timings"]) >= {"lowering", "modeling",
                                         "detection", "filtering", "total"}
        assert "pointsto.passes" in entry["counters"]
        assert entry["spans"][0]["children"]
    assert payload["totals"]["counters"]["funnel.potential"] == sum(
        entry["counters"]["funnel.potential"]
        for entry in payload["apps"].values()
    )

    out = tmp_path / "BENCH_test.json"
    write_json(str(out), payload)
    assert json.loads(out.read_text()) == payload


def test_bench_timings_are_stage_seconds_of_the_spans():
    """``apps.<name>.timings`` is read off ``apps.<name>.spans``, and the
    totals sum the apps stage by stage."""
    from repro.harness import run_bench
    from repro.runner import CorpusRunner

    payload = run_bench(CorpusRunner(), apps=_specs())
    snapshots = [MetricsSnapshot(spans=entry["spans"])
                 for entry in payload["apps"].values()]
    for entry, snapshot in zip(payload["apps"].values(), snapshots):
        assert entry["timings"] == snapshot.stage_seconds()
    totals = payload["totals"]["timings"]
    assert totals == merge_snapshots(snapshots).stage_seconds()
    assert totals["detection"] == pytest.approx(sum(
        entry["timings"]["detection"] for entry in payload["apps"].values()
    ))


def test_warm_cache_bench_reproduces_cold_timings(tmp_path):
    from repro.harness import run_bench
    from repro.runner import CorpusRunner, ResultCache

    cold = run_bench(CorpusRunner(cache=ResultCache(tmp_path)),
                     apps=_specs())
    runner = CorpusRunner(cache=ResultCache(tmp_path))
    warm = run_bench(runner, apps=_specs())
    assert runner.last_metrics.run.counters["runner.apps.analyzed"] == 0
    assert warm["run"] == runner.last_metrics.run.to_dict()
    assert {name: entry["timings"] for name, entry in warm["apps"].items()} \
        == {name: entry["timings"] for name, entry in cold["apps"].items()}
    assert warm["totals"]["timings"] == cold["totals"]["timings"]
