"""The daemon's workers: every analysis runs in a worker process that
lives as long as the daemon, never in the daemon itself.

Workers fork at the first cold job and are reused by every later job,
timed or not; a worker that dies costs its job one ``worker-lost``
fault while the daemon keeps answering; and no worker outlives the
daemon, whether it is stopped by SIGINT or killed outright.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.corpus import app
from repro.obs import LiveAggregator
from repro.resilience import FaultPlan, FaultSpec, worker_lost_fault
from repro.resilience.faultinject import ENV_VAR
from repro.runner import ResultCache
from repro.runner import runner as runner_module
from repro.service import AnalysisService, ServiceServer


def _request(url, payload=None):
    """GET (payload None) or POST; returns (status, decoded JSON body)."""
    req = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode(),
        headers={} if payload is None
        else {"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def _files(name):
    spec = app(name)
    return [{"path": spec.filename, "text": spec.source()}]


def _analyze(url, name, **extra):
    status, body = _request(url + "/v1/analyze",
                            dict(files=_files(name), wait=True, **extra))
    assert status == 200
    return json.loads(body)


@pytest.fixture
def daemon(tmp_path):
    service = AnalysisService(jobs=1, cache=ResultCache(tmp_path / "cache"),
                              queue_limit=4)
    srv = ServiceServer(service, port=0).start()
    yield srv
    srv.close()
    assert multiprocessing.active_children() == []


# -- in-process daemon --------------------------------------------------------


def test_workers_fork_at_the_first_cold_job_not_at_start(daemon):
    assert multiprocessing.active_children() == []
    assert _analyze(daemon.url, "todolist")["stats"]["analyzed"] == 1
    assert len(multiprocessing.active_children()) == 1


def test_the_daemon_process_never_analyzes(daemon, monkeypatch):
    _analyze(daemon.url, "todolist")  # forks the worker

    def in_the_daemon(name, params):
        raise AssertionError("analysis ran in the daemon process")

    # only this process sees the patch; the worker forked before it
    monkeypatch.setitem(runner_module._TASKS, "analyze", in_the_daemon)
    job = _analyze(daemon.url, "clipstack")
    assert "faults" not in job
    assert job["stats"]["analyzed"] == 1


def test_timed_jobs_reuse_the_daemon_worker(daemon):
    pids = []
    for name in ("todolist", "clipstack"):
        job = _analyze(daemon.url, name, timeout=30)
        assert job["stats"]["analyzed"] == 1
        pids.append([child.pid for child in
                     multiprocessing.active_children()])
    # one worker served both jobs: no fork per timed job
    assert len(pids[0]) == 1 and pids[0] == pids[1]


def test_a_killed_worker_costs_its_job_one_fault(daemon, monkeypatch):
    plan = FaultPlan(faults=(FaultSpec(app="victim", stage="task",
                                       action="kill"),))
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))
    status, body = _request(daemon.url + "/v1/batch", {
        "apps": [{"name": "victim", "files": _files("todolist")}],
        "wait": True,
    })
    assert status == 200
    job = json.loads(body)
    # an untimed job's worker really died (twice: the retry too), and
    # the job ended with the typed fault instead of taking the daemon
    assert job["status"] == "done"
    assert job["faults"] == [worker_lost_fault("victim").to_dict()]
    assert job["stats"]["faulted"] == 1 and job["stats"]["retries"] == 1
    assert _request(daemon.url + "/healthz")[0] == 200
    # a fresh worker serves the next job
    job = _analyze(daemon.url, "clipstack")
    assert "faults" not in job
    assert job["stats"]["analyzed"] == 1


def test_a_full_cache_hit_does_not_wait_behind_cold_work(daemon,
                                                         monkeypatch):
    plan = FaultPlan(faults=(FaultSpec(app="slow", stage="task",
                                       action="hang"),), hang_seconds=2.0)
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))
    _analyze(daemon.url, "todolist")  # warms the entry
    status, body = _request(daemon.url + "/v1/batch", {
        "apps": [{"name": "slow", "files": _files("clipstack")}],
    })
    assert status == 202
    slow = json.loads(body)["id"]
    service = daemon.service
    deadline = time.monotonic() + 30
    while service.get(slow).status != "running":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    warm = _analyze(daemon.url, "todolist")
    # answered at admission while the cold job still holds the worker
    assert service.get(slow).status == "running"
    assert warm["stats"] == {"analyzed": 0, "cached": 1, "faulted": 0,
                             "retries": 0, "cache_hits": 1,
                             "cache_misses": 0, "cache_stores": 0}
    assert service.wait(slow, timeout=30).status == "done"


def test_a_warm_job_ending_leaves_the_cold_job_of_the_same_name_active(
        tmp_path, monkeypatch):
    # Both single-app jobs are named "app".  The hang fires at the first
    # filter, which swiftnotes (no potential warnings) never reaches.
    plan = FaultPlan(faults=(FaultSpec(app="app", stage="filter:MHB",
                                       action="hang"),), hang_seconds=3.0)
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))
    aggregator = LiveAggregator()
    service = AnalysisService(jobs=1, cache=ResultCache(tmp_path / "cache"),
                              telemetry=aggregator)
    srv = ServiceServer(service, port=0).start()
    try:
        _analyze(srv.url, "swiftnotes")  # warms the entry
        status, body = _request(srv.url + "/v1/analyze",
                                {"files": _files("clipstack")})
        assert status == 202
        cold = json.loads(body)["id"]
        deadline = time.monotonic() + 30
        while aggregator.progress()["active"] != ["app"]:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        warm = _analyze(srv.url, "swiftnotes")
        assert warm["stats"]["cached"] == 1
        assert service.get(cold).status == "running"
        assert aggregator.progress()["active"] == ["app"]
        assert service.wait(cold, timeout=30).status == "done"
        assert aggregator.progress()["active"] == []
    finally:
        srv.close()


# -- the daemon as a process --------------------------------------------------


def _children(pid):
    """The live child pids of ``pid``, read from ``/proc``."""
    out = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        out += (task / "children").read_text().split()
    return [int(child) for child in out]


def _gone(pid):
    """Exited: no such process, or a zombie nobody has reaped yet."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return True
    return re.search(r"^State:\s+Z", status, re.M) is not None


def _wait_gone(pid, seconds):
    deadline = time.monotonic() + seconds
    while not _gone(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.fixture
def served(tmp_path):
    """A ``repro serve`` process that has run one cold job; yields
    ``(proc, url, worker_pids)``."""
    if not Path("/proc/self/task").is_dir():
        pytest.skip("needs /proc")
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "cache")],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    match = None
    try:
        for line in proc.stderr:
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if match:
                break
        url = f"http://127.0.0.1:{match.group(1)}"
        assert _analyze(url, "todolist")["stats"]["analyzed"] == 1
        workers = _children(proc.pid)
        assert len(workers) == 1
        yield proc, url, workers
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)
        proc.stderr.close()


def test_sigint_leaves_no_worker_behind(served):
    proc, _, workers = served
    proc.send_signal(signal.SIGINT)
    assert proc.wait(timeout=30) == 130
    assert all(_gone(pid) for pid in workers)


def test_a_killed_daemons_worker_exits_on_eof(served):
    proc, _, workers = served
    proc.kill()
    proc.wait(timeout=30)
    assert all(_wait_gone(pid, 5.0) for pid in workers)
