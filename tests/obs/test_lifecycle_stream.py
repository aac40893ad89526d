"""Differential pin of one corpus run's lifecycle, as every consumer sees it.

A keep-going run over four registry apps plants three faults: ``raise``
on todolist, a ``kill`` that fires once on tomdroid (retried, then
analyzed) and a ``hang`` on clipstack under a short per-app deadline.
The run is made cold and then warm, at ``--jobs 1`` and ``--jobs 2``,
and each consumer of the lifecycle is pinned:

* the event sequence (``t``, ``duration_s`` and ``wall_seconds`` are
  wall-clock values and are dropped);
* the run's metrics snapshot (``last_metrics.run``);
* the live aggregator's final ``/progress`` funnel and ``telemetry.*``
  counters;
* the ``--progress`` stderr lines;
* the ``summarize_events`` funnel.

The jobs-1 and jobs-2 event sequences must also be equal.
"""

import io
import json

import pytest

from repro.obs import (
    LiveAggregator,
    MemoryEventSink,
    ProgressSink,
    RunEventLog,
    summarize_events,
)
from repro.resilience import FaultPlan, FaultPolicy, FaultSpec
from repro.resilience.faultinject import ENV_VAR
from repro.runner import CorpusRunner, ResultCache

APPS = ["todolist", "swiftnotes", "clipstack", "tomdroid"]
TIMEOUT = 0.5
POLICY = FaultPolicy(timeout=TIMEOUT, max_retries=1, keep_going=True)
WALL_CLOCK_FIELDS = ("t", "duration_s", "wall_seconds")


def _plan(state_dir):
    return FaultPlan(faults=(
        FaultSpec(app="todolist", stage="detection", action="raise"),
        FaultSpec(app="tomdroid", stage="detection", action="kill", times=1),
        FaultSpec(app="clipstack", stage="modeling", action="hang"),
    ), state_dir=str(state_dir))


def _strip(records):
    return [{key: value for key, value in record.items()
             if key not in WALL_CLOCK_FIELDS} for record in records]


def _observe(jobs, cache_dir, state_dir):
    """One run with every lifecycle consumer attached."""
    stream = MemoryEventSink()
    progress_lines = io.StringIO()
    aggregator = LiveAggregator()
    runner = CorpusRunner(
        jobs=jobs, cache=ResultCache(cache_dir), policy=POLICY,
        events=RunEventLog([stream, ProgressSink(progress_lines)]),
        telemetry=aggregator,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_VAR, json.dumps(_plan(state_dir).to_dict()))
        _, metrics = runner.run("table1", APPS, {"validate": False})
    return {
        "events": _strip(stream.records),
        "run": metrics.run,
        "progress": aggregator.progress(),
        "telemetry": {
            name: value
            for name, value in aggregator.snapshot().counters.items()
            if name.startswith("telemetry.")
        },
        "progress_lines": progress_lines.getvalue().splitlines(),
        "summary": summarize_events(stream.records),
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for jobs in (1, 2):
        base = tmp_path_factory.mktemp(f"jobs{jobs}")
        for temperature in ("cold", "warm"):
            out[jobs, temperature] = _observe(jobs, base / "cache",
                                              base / "state")
    return out


def _app_block(app, *middle, status):
    return ([{"schema": 1, "event": "app-start", "app": app}]
            + [dict({"schema": 1, "app": app}, **event) for event in middle]
            + [{"schema": 1, "event": "app-done", "app": app,
                "status": status}])


RAISED = ({"event": "fault", "kind": "analysis"},)
TIMED_OUT = ({"event": "timeout", "seconds": TIMEOUT},
             {"event": "fault", "kind": "timeout"})
CACHE_HIT = ({"event": "cache-hit"},)

EXPECTED_EVENTS = {
    "cold": (
        [{"schema": 1, "event": "run-start", "kind": "table1", "apps": 4}]
        + _app_block("todolist", *RAISED, status="faulted")
        + _app_block("swiftnotes", status="analyzed")
        + _app_block("clipstack", *TIMED_OUT, status="faulted")
        + _app_block("tomdroid", {"event": "retry", "kind": "worker-lost"},
                     status="analyzed")
        + [{"schema": 1, "event": "run-end", "analyzed": 2, "cached": 0,
            "faulted": 2}]
    ),
    "warm": (
        [{"schema": 1, "event": "run-start", "kind": "table1", "apps": 4}]
        + _app_block("todolist", *RAISED, status="faulted")
        + _app_block("swiftnotes", *CACHE_HIT, status="cached")
        + _app_block("clipstack", *TIMED_OUT, status="faulted")
        + _app_block("tomdroid", *CACHE_HIT, status="cached")
        + [{"schema": 1, "event": "run-end", "analyzed": 0, "cached": 2,
            "faulted": 2}]
    ),
}

EXPECTED_STATS = {
    "cold": dict(analyzed=2, cached=0, faulted=2, retries=1, timeouts=1,
                 fault_kinds={"analysis": 1, "timeout": 1}, cache_hits=0,
                 cache_misses=4, cache_stores=2, cache_corrupt=0),
    "warm": dict(analyzed=0, cached=2, faulted=2, retries=0, timeouts=1,
                 fault_kinds={"analysis": 1, "timeout": 1}, cache_hits=2,
                 cache_misses=2, cache_stores=0, cache_corrupt=0),
}

#: EXPECTED_STATS field -> the run-snapshot counter that reports it
STAT_COUNTERS = {
    "analyzed": "runner.apps.analyzed",
    "cached": "runner.apps.cached",
    "faulted": "runner.apps.faulted",
    "retries": "runner.retries",
    "timeouts": "runner.timeouts",
    "cache_hits": "runner.cache.hits",
    "cache_misses": "runner.cache.misses",
    "cache_stores": "runner.cache.stores",
    "cache_corrupt": "runner.cache.corrupt",
}

CASES = [(jobs, temperature) for jobs in (1, 2)
         for temperature in ("cold", "warm")]


@pytest.mark.parametrize("jobs,temperature", CASES)
def test_event_sequence(runs, jobs, temperature):
    assert runs[jobs, temperature]["events"] == EXPECTED_EVENTS[temperature]


@pytest.mark.parametrize("temperature", ["cold", "warm"])
def test_jobs_1_and_jobs_2_streams_are_equal(runs, temperature):
    assert runs[1, temperature]["events"] == runs[2, temperature]["events"]


@pytest.mark.parametrize("jobs,temperature", CASES)
def test_run_stats(runs, jobs, temperature):
    run = runs[jobs, temperature]["run"]
    expected = EXPECTED_STATS[temperature]
    counters = run.counters
    assert {name: counters.get(counter, 0)
            for name, counter in STAT_COUNTERS.items()} == \
        {name: expected[name] for name in STAT_COUNTERS}
    assert {name[len("runner.faults."):]: value
            for name, value in counters.items()
            if name.startswith("runner.faults.")} == expected["fault_kinds"]
    assert run.gauges["runner.jobs"] == jobs
    assert counters["runner.apps.analyzed"] + counters["runner.apps.cached"] \
        + counters["runner.apps.faulted"] == len(APPS) == 4
    # fault-tolerance counters are present only when nonzero
    assert "runner.cache.corrupt" not in counters
    assert counters["runner.apps.faulted"] == 2
    assert counters["runner.timeouts"] == 1
    assert counters["runner.faults.analysis"] == 1
    assert counters["runner.faults.timeout"] == 1
    assert counters.get("runner.retries", 0) == expected["retries"]


@pytest.mark.parametrize("jobs,temperature", CASES)
def test_final_progress_funnel(runs, jobs, temperature):
    progress = runs[jobs, temperature]["progress"]
    expected = EXPECTED_STATS[temperature]
    assert progress["apps"] == {
        "total": 4, "done": 4, "analyzed": expected["analyzed"],
        "cached": expected["cached"], "faulted": 2,
    }
    assert progress["retries"] == expected["retries"]
    assert progress["runs"] == 1
    assert progress["active"] == []
    assert progress["phase"] == progress["kind"] == "idle"
    assert progress["latency"]["apps"] == 2


@pytest.mark.parametrize("jobs,temperature", CASES)
def test_telemetry_counters(runs, jobs, temperature):
    expected = EXPECTED_STATS[temperature]
    assert runs[jobs, temperature]["telemetry"] == {
        "telemetry.runs": 1,
        "telemetry.apps.total": 4,
        "telemetry.apps.done": 4,
        "telemetry.apps.analyzed": expected["analyzed"],
        "telemetry.apps.cached": expected["cached"],
        "telemetry.apps.faulted": 2,
        "telemetry.retries": expected["retries"],
    }


EXPECTED_PROGRESS_LINES = {
    "cold": [
        "[progress] 1/4 apps, 1 fault, 0 cache hits",
        "[progress] 2/4 apps, 1 fault, 0 cache hits",
        "[progress] 3/4 apps, 2 faults, 0 cache hits",
        "[progress] 4/4 apps, 2 faults, 0 cache hits",
    ],
    "warm": [
        "[progress] 1/4 apps, 1 fault, 0 cache hits",
        "[progress] 2/4 apps, 1 fault, 1 cache hit",
        "[progress] 3/4 apps, 2 faults, 1 cache hit",
        "[progress] 4/4 apps, 2 faults, 2 cache hits",
    ],
}


@pytest.mark.parametrize("jobs,temperature", CASES)
def test_progress_lines(runs, jobs, temperature):
    assert runs[jobs, temperature]["progress_lines"] == \
        EXPECTED_PROGRESS_LINES[temperature]


@pytest.mark.parametrize("jobs,temperature", CASES)
def test_summarized_funnel(runs, jobs, temperature):
    summary = runs[jobs, temperature]["summary"]
    expected = EXPECTED_STATS[temperature]
    assert {name: summary[name] for name in (
        "runs", "apps", "analyzed", "cached", "faulted", "retries",
        "timeouts", "fault_kinds",
    )} == {
        "runs": 1, "apps": 4, "analyzed": expected["analyzed"],
        "cached": expected["cached"], "faulted": 2,
        "retries": expected["retries"], "timeouts": 1,
        "fault_kinds": {"analysis": 1, "timeout": 1},
    }
    assert summary["latency"]["apps"] == 2
