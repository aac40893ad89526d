"""Corpus-runner fault tolerance: isolation, retries, timeouts, determinism.

The ISSUE 4 acceptance scenario lives here: a corpus run where one app
crashes and another hangs must, under ``--keep-going`` with a timeout,
produce every other app's golden row plus exactly two structured fault
entries -- byte-identical between ``--jobs 1`` and ``--jobs 4`` and
between cold and warm cache.
"""

import json
import time

import pytest

from repro import core
from repro.filters.base import Filter
from repro.resilience import (
    current_app,
    FaultError,
    FaultPlan,
    FaultPolicy,
    FaultSpec,
    install,
    timeout_fault,
)
from repro.resilience.faultinject import ENV_VAR
from repro.runner import CorpusRunner, ResultCache

APPS = ["todolist", "clipstack", "swiftnotes"]
PARAMS = {"validate": False, "random_attempts": 0}


def raise_plan(app="todolist", stage="detection"):
    return FaultPlan(faults=(FaultSpec(app=app, stage=stage,
                                       action="raise"),))


def canonical(rows, faults):
    """Rows + fault records as canonical JSON."""
    return json.dumps(
        {"rows": rows, "faults": [f.to_dict() for f in faults]},
        sort_keys=True,
    )


# -- isolation ----------------------------------------------------------------


def test_keep_going_isolates_the_faulting_app():
    runner = CorpusRunner(jobs=1, policy=FaultPolicy(keep_going=True))
    with install(raise_plan()):
        rows, stats = runner.run("table1", APPS, PARAMS)
    assert len(rows) == len(APPS)
    assert "error" in rows[0]
    assert rows[0]["error"]["kind"] == "analysis"
    assert rows[0]["error"]["stage"] == "detection"
    assert all("error" not in row for row in rows[1:])
    assert stats.faulted == 1
    assert stats.analyzed == len(APPS) - 1
    assert stats.fault_kinds == {"analysis": 1}
    assert [f.app for f in runner.last_faults] == ["todolist"]


def test_fail_fast_is_the_default_and_names_the_app():
    runner = CorpusRunner(jobs=1)
    with install(raise_plan()):
        with pytest.raises(FaultError, match="todolist") as excinfo:
            runner.run("table1", APPS, PARAMS)
    assert "--keep-going" in str(excinfo.value)


def test_fault_counters_reach_the_metrics_snapshot():
    runner = CorpusRunner(jobs=1, policy=FaultPolicy(keep_going=True))
    with install(raise_plan()):
        _, stats = runner.run("table1", APPS, PARAMS)
    counters = stats.to_snapshot().counters
    assert counters["runner.apps.faulted"] == 1
    assert counters["runner.faults.analysis"] == 1
    assert "runner.timeouts" not in counters  # only present when nonzero


# -- timeouts -----------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_timeout_produces_the_canonical_fault(jobs, monkeypatch):
    # Every timed run goes through the watchdog, at any --jobs, and
    # records the same canonical fault entry.
    plan = FaultPlan(faults=(FaultSpec(app="clipstack", stage="modeling",
                                       action="hang"),))
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))
    runner = CorpusRunner(
        jobs=jobs, policy=FaultPolicy(timeout=0.5, keep_going=True)
    )
    rows, stats = runner.run("table1", APPS, PARAMS)
    assert stats.timeouts == 1
    assert runner.last_faults == [timeout_fault("clipstack", 0.5)]
    assert "error" in rows[1]


class StuckFilter(Filter):
    """A sound filter that never answers for one app: it sleeps without
    crossing a stage boundary, so only a kill can bound it."""

    name = "STUCK"
    sound = True

    def witness(self, occ, warning, ctx):
        if current_app() == "todolist":
            time.sleep(5.0)
        return None


@pytest.mark.parametrize("jobs, names", [
    (1, ["todolist", "clipstack"]),
    (4, ["todolist"]),
])
def test_a_stuck_stage_is_bounded_by_the_timeout(jobs, names, monkeypatch):
    monkeypatch.setattr(core, "SOUND_FILTERS",
                        core.SOUND_FILTERS + (StuckFilter(),))
    runner = CorpusRunner(
        jobs=jobs, policy=FaultPolicy(timeout=0.5, keep_going=True)
    )
    started = time.perf_counter()
    rows, stats = runner.run("table1", names, PARAMS)
    assert time.perf_counter() - started < 2.5
    assert runner.last_faults == [timeout_fault("todolist", 0.5)]
    assert rows[0]["error"] == timeout_fault("todolist", 0.5).to_dict()
    # the other app's row is intact: what an untimed run of it gives
    reference = CorpusRunner(jobs=1).run("table1", names[1:], PARAMS)[0]
    assert canonical(rows[1:], []) == canonical(reference, [])
    # the timeout outranks degradation: the filter was not skipped
    assert "filters.degraded" not in runner.last_metrics.totals().counters
    assert "filters.degraded" not in stats.to_snapshot().counters


# -- retries ------------------------------------------------------------------


def test_transient_worker_loss_is_retried_serial(tmp_path):
    plan = FaultPlan(
        faults=(FaultSpec(app="todolist", stage="detection", action="kill",
                          times=1),),
        state_dir=str(tmp_path),
    )
    runner = CorpusRunner(jobs=1, policy=FaultPolicy(max_retries=1))
    with install(plan):
        rows, stats = runner.run("table1", APPS, PARAMS)
    assert stats.retries == 1
    assert stats.faulted == 0
    assert all("error" not in row for row in rows)


def test_real_worker_death_is_retried_parallel(tmp_path, monkeypatch):
    # jobs > 1: the injected kill really os._exit()s the worker; the
    # parent sees EOF on the pipe and re-submits the app.
    plan = FaultPlan(
        faults=(FaultSpec(app="todolist", stage="detection", action="kill",
                          times=1),),
        state_dir=str(tmp_path),
    )
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))
    runner = CorpusRunner(jobs=2, policy=FaultPolicy(max_retries=1))
    rows, stats = runner.run("table1", APPS, PARAMS)
    assert stats.retries == 1
    assert stats.faulted == 0
    assert all("error" not in row for row in rows)


def test_exhausted_retries_surface_the_worker_loss(tmp_path):
    plan = FaultPlan(
        faults=(FaultSpec(app="todolist", stage="detection", action="kill",
                          times=5),),
        state_dir=str(tmp_path),
    )
    runner = CorpusRunner(
        jobs=1, policy=FaultPolicy(max_retries=1, keep_going=True)
    )
    with install(plan):
        rows, stats = runner.run("table1", APPS, PARAMS)
    assert stats.retries == 1  # one re-submission, then recorded
    assert stats.fault_kinds == {"worker-lost": 1}
    assert "todolist" in rows[0]["error"]["message"]


def test_deterministic_faults_are_never_retried():
    # A parse error fails identically every attempt; even a generous
    # retry budget must not re-run it.
    plan = FaultPlan(faults=(FaultSpec(app="todolist", stage="lowering",
                                       action="parse-error"),))
    runner = CorpusRunner(
        jobs=1, policy=FaultPolicy(max_retries=5, keep_going=True)
    )
    with install(plan):
        _, stats = runner.run("table1", APPS, PARAMS)
    assert stats.retries == 0
    assert stats.fault_kinds == {"parse": 1}


# -- determinism (the acceptance scenario) ------------------------------------


@pytest.fixture()
def crash_and_hang_env(monkeypatch):
    plan = FaultPlan(faults=(
        FaultSpec(app="todolist", stage="detection", action="raise"),
        FaultSpec(app="clipstack", stage="modeling", action="hang"),
    ))
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))


def test_faulted_run_is_byte_identical_across_jobs(crash_and_hang_env):
    policy = FaultPolicy(timeout=1.0, keep_going=True)
    serial = CorpusRunner(jobs=1, policy=policy)
    parallel = CorpusRunner(jobs=4, policy=policy)
    rows_s, stats_s = serial.run("table1", APPS, PARAMS)
    rows_p, stats_p = parallel.run("table1", APPS, PARAMS)
    assert canonical(rows_s, serial.last_faults) == \
        canonical(rows_p, parallel.last_faults)
    assert stats_s.faulted == stats_p.faulted == 2
    assert stats_s.timeouts == stats_p.timeouts == 1


def test_faulted_run_is_byte_identical_cold_vs_warm(crash_and_hang_env,
                                                    tmp_path):
    policy = FaultPolicy(timeout=1.0, keep_going=True)
    cache = ResultCache(tmp_path / "cache")
    cold = CorpusRunner(jobs=1, cache=cache, policy=policy)
    rows_cold, stats_cold = cold.run("table1", APPS, PARAMS)
    warm = CorpusRunner(jobs=1, cache=cache, policy=policy)
    rows_warm, stats_warm = warm.run("table1", APPS, PARAMS)
    assert canonical(rows_cold, cold.last_faults) == \
        canonical(rows_warm, warm.last_faults)
    # Error envelopes are never cached: the clean app replays from disk,
    # the faulty apps re-run (and re-fault) every time.
    assert stats_cold.cache_stores == 1
    assert stats_warm.cache_hits == 1
    assert stats_warm.faulted == 2


def test_error_envelopes_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    runner = CorpusRunner(
        jobs=1, cache=cache, policy=FaultPolicy(keep_going=True)
    )
    with install(raise_plan()):
        runner.run("table1", APPS, PARAMS)
    assert cache.stores == len(APPS) - 1
    # With the plan gone the previously-faulty app analyzes cleanly --
    # nothing poisoned the cache, but note the key ALSO changed (the
    # plan digest participates), so this is a full miss for todolist.
    clean = CorpusRunner(jobs=1, cache=cache)
    rows, stats = clean.run("table1", APPS, PARAMS)
    assert stats.faulted == 0
    assert all("error" not in row for row in rows)


def test_fault_plan_digest_participates_in_the_cache_key(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    baseline = CorpusRunner(jobs=1, cache=cache)
    baseline.run("table1", APPS, PARAMS)
    assert cache.stores == len(APPS)

    # An active plan -- even one whose specs never fire -- must miss the
    # regular cache: injected runs can neither use nor poison it.
    dormant = FaultPlan(faults=(FaultSpec(
        app="no-such-app", stage="detection", action="raise"),))
    injected = CorpusRunner(jobs=1, cache=cache)
    with install(dormant):
        _, stats = injected.run("table1", APPS, PARAMS)
    assert stats.cache_hits == 0
    assert stats.analyzed == len(APPS)

    # ... while a plan-free rerun still hits the original entries.
    rerun = CorpusRunner(jobs=1, cache=cache)
    _, stats = rerun.run("table1", APPS, PARAMS)
    assert stats.cache_hits == len(APPS)
