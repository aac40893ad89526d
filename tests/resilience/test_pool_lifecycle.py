"""Lifecycle of the long-lived worker pool: how many workers, how long.

The pool forks at most ``jobs`` workers per ``run_tasks`` call, each
serving many tasks; a worker that dies or overruns its deadline is
replaced, and no worker outlives the call -- whether it returns, aborts
fail-fast or is interrupted.  A :class:`WorkerPool` kept open (the
daemon's) serves run after run on the same workers until it is closed.
A cheap ``probe`` task kind stands in for an analysis: it drops a
``<app>.<pid>`` marker per attempt, crosses a ``probe`` checkpoint
where planted faults fire, and takes long enough that the pool notices
a lost worker before the queue runs dry.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.resilience import (
    checkpoint,
    FaultError,
    FaultPlan,
    FaultPolicy,
    FaultSpec,
    run_tasks,
    WorkerPool,
)
from repro.resilience.faultinject import ENV_VAR
from repro.runner import runner as runner_module

APPS = [f"app{i}" for i in range(8)]


def probe(name, params):
    Path(params["dir"], f"{name}.{os.getpid()}").touch()
    checkpoint("probe")
    time.sleep(0.05)
    return {"pid": os.getpid()}


@pytest.fixture(autouse=True)
def probe_kind(monkeypatch):
    monkeypatch.setitem(runner_module._TASKS, "probe", probe)


def plant(monkeypatch, tmp_path, app, action, times=None):
    plan = FaultPlan(faults=(FaultSpec(app=app, stage="probe", action=action,
                                       times=times),),
                     state_dir=str(tmp_path / "state"), hang_seconds=30.0)
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))


def attempts(tmp_path):
    """``app -> [pid, ...]`` of every attempt, from the markers."""
    out = {}
    for marker in tmp_path.glob("app*.*"):
        app, pid = marker.name.split(".")
        out.setdefault(app, []).append(int(pid))
    return out


def run(tmp_path, jobs=2, policy=None, observer=None):
    return run_tasks("probe", APPS, {"dir": str(tmp_path)}, jobs,
                     policy or FaultPolicy(keep_going=True), observer)


def alive_counter(counts):
    def observer(event, name, payload):
        counts.append(len(multiprocessing.active_children()))
    return observer


def test_one_worker_serves_many_tasks(tmp_path):
    outcome = run(tmp_path)
    assert sorted(outcome.envelopes) == APPS
    pids = {env["data"]["pid"] for env in outcome.envelopes.values()}
    assert 1 <= len(pids) <= 2
    assert os.getpid() not in pids
    assert multiprocessing.active_children() == []


def test_never_more_than_jobs_workers_alive(tmp_path, monkeypatch):
    plant(monkeypatch, tmp_path, "app3", "kill", times=1)
    counts = []
    outcome = run(tmp_path, jobs=3, observer=alive_counter(counts))
    assert all("data" in env for env in outcome.envelopes.values())
    assert counts and max(counts) <= 3


def test_killed_worker_is_respawned_and_its_app_retried(tmp_path,
                                                        monkeypatch):
    plant(monkeypatch, tmp_path, "app2", "kill", times=1)
    events = []
    outcome = run(tmp_path, observer=lambda event, name, payload:
                  events.append((event, name)))
    assert [entry for entry in events if entry[0] == "retry"] \
        == [("retry", "app2")]
    assert outcome.faults == {}
    assert sorted(outcome.envelopes) == APPS
    tries = attempts(tmp_path)
    # the killed attempt and its retry ran in different workers ...
    assert len(tries["app2"]) == 2 and len(set(tries["app2"])) == 2
    # ... every other app ran exactly once ...
    assert all(len(tries[app]) == 1 for app in APPS if app != "app2")
    # ... and exactly one worker was spawned to replace the lost one
    assert len({pid for pids in tries.values() for pid in pids}) == 3
    assert multiprocessing.active_children() == []


def test_watchdog_kills_a_hang_and_the_queue_completes(tmp_path,
                                                       monkeypatch):
    plant(monkeypatch, tmp_path, "app1", "hang")
    outcome = run(tmp_path, policy=FaultPolicy(timeout=0.5,
                                               keep_going=True))
    assert list(outcome.faults) == ["app1"]
    assert outcome.faults["app1"].kind == "timeout"
    assert all("data" in outcome.envelopes[app]
               for app in APPS if app != "app1")
    assert multiprocessing.active_children() == []


def test_fail_fast_terminates_every_worker(tmp_path, monkeypatch):
    plant(monkeypatch, tmp_path, "app1", "raise")
    with pytest.raises(FaultError, match="app1"):
        run(tmp_path, policy=FaultPolicy())
    assert multiprocessing.active_children() == []


def test_interrupt_terminates_every_worker(tmp_path):
    def interrupt(event, name, payload):
        if event == "ok":
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run(tmp_path, observer=interrupt)
    assert multiprocessing.active_children() == []


def test_an_open_pool_serves_run_after_run_on_the_same_worker(tmp_path):
    with WorkerPool(1) as pool:
        assert multiprocessing.active_children() == []  # forks on demand
        pids = set()
        for batch in (APPS[:3], APPS[3:]):
            outcome = pool.run("probe", batch, {"dir": str(tmp_path)},
                               FaultPolicy(timeout=30.0, keep_going=True))
            assert sorted(outcome.envelopes) == batch
            pids |= {env["data"]["pid"]
                     for env in outcome.envelopes.values()}
        assert len(pids) == 1
        assert [child.pid for child in multiprocessing.active_children()] \
            == list(pids)
    assert multiprocessing.active_children() == []


def test_an_open_pool_replaces_a_killed_worker_at_the_next_run(
        tmp_path, monkeypatch):
    plant(monkeypatch, tmp_path, "app0", "hang")
    policy = FaultPolicy(timeout=0.5, keep_going=True)
    with WorkerPool(1) as pool:
        outcome = pool.run("probe", ["app0"], {"dir": str(tmp_path)}, policy)
        assert outcome.faults["app0"].kind == "timeout"
        # the watchdog's kill is not followed by an eager respawn
        assert multiprocessing.active_children() == []
        outcome = pool.run("probe", ["app1"], {"dir": str(tmp_path)}, policy)
        assert "data" in outcome.envelopes["app1"]
        assert len(multiprocessing.active_children()) == 1
    assert multiprocessing.active_children() == []


def test_a_fail_fast_run_leaves_an_open_pool_usable(tmp_path, monkeypatch):
    plant(monkeypatch, tmp_path, "app1", "raise")
    with WorkerPool(2) as pool:
        with pytest.raises(FaultError, match="app1"):
            pool.run("probe", APPS, {"dir": str(tmp_path)}, FaultPolicy())
        # no busy worker survives the abort, so no stale reply can be
        # read as the next run's
        outcome = pool.run("probe", ["app5", "app6"], {"dir": str(tmp_path)},
                           FaultPolicy(keep_going=True))
        assert sorted(outcome.envelopes) == ["app5", "app6"]
        assert all("data" in env for env in outcome.envelopes.values())
    assert multiprocessing.active_children() == []


def test_a_closed_pool_forks_no_more(tmp_path):
    pool = WorkerPool(1)
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.run("probe", ["app0"], {"dir": str(tmp_path)}, FaultPolicy())
    assert multiprocessing.active_children() == []
