"""The event stream tells the truth about when and how a run ended.

* Each record is stamped when its event happens, not when its app's
  block is flushed: an app's ``app-start``..``app-done`` window is its
  real lifetime, so a serial stream draws no overlapping lanes.
* A fail-fast abort still states the aborting app's fault and the
  run-end before :class:`FaultError` propagates, so the stream, its
  summary and the live ``/progress`` end with the fault.
"""

import json

import pytest

from repro.obs import (
    chrome_trace,
    LiveAggregator,
    MemoryEventSink,
    RunEventLog,
    summarize_events,
)
from repro.resilience import FaultError, FaultPlan, FaultPolicy, FaultSpec
from repro.resilience.faultinject import ENV_VAR
from repro.runner import CorpusRunner

APPS = ["todolist", "swiftnotes", "clipstack"]


def _run(jobs, policy=None, plan=None, telemetry=None):
    stream = MemoryEventSink()
    runner = CorpusRunner(jobs=jobs, policy=policy,
                          events=RunEventLog([stream]), telemetry=telemetry)
    with pytest.MonkeyPatch.context() as patch:
        if plan is not None:
            patch.setenv(ENV_VAR, json.dumps(plan.to_dict()))
        try:
            runner.run("table1", APPS, {"validate": False})
        except FaultError:
            pass
    return runner, stream.records


# -- event time ---------------------------------------------------------------


def test_app_window_spans_the_analysis():
    _, records = _run(jobs=1)
    starts = {r["app"]: r["t"] for r in records if r["event"] == "app-start"}
    for done in (r for r in records if r["event"] == "app-done"):
        window = done["t"] - starts[done["app"]]
        assert window > 0
        assert window >= done["duration_s"] - 1e-6


def test_serial_stream_has_no_overlapping_lanes():
    runner, records = _run(jobs=1)
    trace = chrome_trace(records, runner.last_metrics.apps)
    lanes = sorted(
        (event["ts"], event["ts"] + event["dur"])
        for event in trace["traceEvents"]
        if event.get("ph") == "X" and "cat" not in event
    )
    assert len(lanes) == len(APPS)
    for (_, end), (start, _) in zip(lanes, lanes[1:]):
        assert end <= start
    # each app's stages ran inside its own window
    for event in trace["traceEvents"]:
        if event.get("cat") == "stage":
            start, end = lanes[event["tid"] - 1]
            assert start <= event["ts"] <= event["ts"] + event["dur"] <= end


# -- fail-fast abort ----------------------------------------------------------


def _raise_plan():
    return FaultPlan(faults=(FaultSpec(app="swiftnotes", stage="detection",
                                       action="raise"),))


@pytest.mark.parametrize("jobs", [1, 2])
def test_fail_fast_stream_ends_with_the_fault_and_run_end(jobs):
    telemetry = LiveAggregator()
    runner, records = _run(jobs, plan=_raise_plan(), telemetry=telemetry)
    assert records[0]["event"] == "run-start"
    assert records[-1]["event"] == "run-end"
    block = [(r["event"], r.get("kind", r.get("status")))
             for r in records if r.get("app") == "swiftnotes"]
    assert block == [("app-start", None), ("fault", "analysis"),
                     ("app-done", "faulted")]
    summary = summarize_events(records)
    assert summary["faulted"] == 1
    assert summary["fault_kinds"] == {"analysis": 1}
    assert records[-1]["faulted"] == 1
    assert records[-1]["analyzed"] == summary["analyzed"]
    assert runner.last_metrics.run.counters["runner.apps.faulted"] == 1
    progress = telemetry.progress()
    assert progress["apps"]["faulted"] == 1
    assert progress["phase"] == "idle"
    assert progress["active"] == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_fail_fast_timeout_keeps_the_apps_finished_behind_it(jobs):
    """The first app hangs past its deadline; under ``--jobs 2`` the
    other apps finish meanwhile and must still reach the stream."""
    plan = FaultPlan(faults=(FaultSpec(app="todolist", stage="modeling",
                                       action="hang"),))
    _, records = _run(jobs, policy=FaultPolicy(timeout=1.0), plan=plan)
    trace = [(r["event"], r.get("app")) for r in records]
    assert trace[:5] == [
        ("run-start", None),
        ("app-start", "todolist"), ("timeout", "todolist"),
        ("fault", "todolist"), ("app-done", "todolist"),
    ]
    assert trace[-1] == ("run-end", None)
    finished = [r["app"] for r in records
                if r["event"] == "app-done" and r["status"] == "analyzed"]
    assert finished == ([] if jobs == 1 else APPS[1:])
    assert records[-1]["analyzed"] == len(finished)
