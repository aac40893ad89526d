"""Edge cases in the text exporters: zero-duration spans, unclosed
spans, and run summaries built from sparse snapshots."""

from repro.obs import MetricsSnapshot, render_spans
from repro.obs.export import describe_run


def test_render_spans_zero_duration_span():
    text = render_spans([{"name": "noop", "duration_s": 0.0}])
    assert text == "noop  0.00ms"


def test_render_spans_unclosed_span_shows_a_question_mark():
    """A crash can serialize a span before it closes; the renderer must
    not blow up on the missing duration."""
    spans = [{
        "name": "app:demo", "duration_s": None,
        "children": [{"name": "lowering", "duration_s": 0.002}],
    }]
    lines = render_spans(spans).splitlines()
    assert lines[0] == "app:demo  ?"
    assert lines[1] == "  lowering  2.00ms"


def test_render_spans_boundary_between_ms_and_s():
    text = render_spans([{"name": "slow", "duration_s": 1.5},
                         {"name": "fast", "duration_s": 0.9994}])
    assert text.splitlines() == ["slow  1.50s", "fast  999.40ms"]


def test_describe_run_with_gauges_but_no_counters():
    """A run that analyzed nothing (empty corpus) still produces a
    coherent line from gauges alone."""
    snapshot = MetricsSnapshot(
        counters={},
        gauges={"runner.jobs": 4.0, "runner.wall_seconds": 1.25},
        spans=[],
    )
    assert describe_run(snapshot) == \
        "0 apps (0 analyzed, 0 from cache) in 1.25s with 4 jobs"


def test_describe_run_empty_snapshot():
    line = describe_run(MetricsSnapshot(counters={}, gauges={}, spans=[]))
    assert line == "0 apps (0 analyzed, 0 from cache) in 0.00s with 1 job"


def test_describe_run_breaks_faults_down_by_kind():
    snapshot = MetricsSnapshot(
        counters={"runner.apps.analyzed": 3, "runner.apps.faulted": 2,
                  "runner.faults.timeout": 1, "runner.faults.crash": 1,
                  "runner.retries": 1},
        gauges={"runner.jobs": 2.0, "runner.wall_seconds": 1.0},
        spans=[],
    )
    line = describe_run(snapshot)
    assert "2 faulted (crash=1, timeout=1)" in line
    assert "1 retry" in line


def test_describe_run_counts_faulted_apps(monkeypatch, capsys):
    """A keep-going run's app count includes the apps that faulted."""
    import json

    from repro.cli import main
    from repro.resilience import FaultPlan, FaultSpec
    from repro.resilience.faultinject import ENV_VAR

    plan = FaultPlan(faults=(FaultSpec(app="todolist", stage="detection",
                                       action="raise"),))
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))
    code = main(["corpus", "--apps", "todolist", "swiftnotes", "clipstack",
                 "--no-cache", "--keep-going"])
    err = capsys.readouterr().err
    assert code == 3
    assert "[runner] 3 apps (2 analyzed, 0 from cache)" in err
    assert "; 1 faulted (analysis=1)" in err
