"""The daemon: scheduling, admission control, HTTP surface, identity."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import core
from repro.corpus import all_apps, app, GeneratorConfig
from repro.corpus.generator import generate_app
from repro.filters.base import Filter
from repro.obs import LiveAggregator
from repro.report import build_report
from repro.resilience import timeout_fault
from repro.runner import CorpusRunner, ResultCache
from repro.service import (
    AnalysisService,
    JobResult,
    JobSpec,
    QueueFullError,
    ServiceServer,
)
import repro.service.server as server_mod


def _spec(client="anonymous", names=("todolist",)):
    return JobSpec.from_request({
        "apps": [
            {"name": name,
             "files": [{"path": app(name).filename,
                        "text": app(name).source()}]}
            for name in names
        ],
        "client": client,
    }, batch=True)


def _request(url, payload=None):
    """GET (payload None) or POST; returns (status, headers, body bytes)."""
    req = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode(),
        headers={} if payload is None
        else {"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


@pytest.fixture
def server(tmp_path):
    service = AnalysisService(
        jobs=1, cache=ResultCache(tmp_path / "cache"),
        telemetry=LiveAggregator(), queue_limit=4,
    )
    srv = ServiceServer(service, port=0).start()
    yield srv
    srv.close()


# -- scheduler ----------------------------------------------------------------


def test_submit_rejects_past_the_queue_bound():
    service = AnalysisService(queue_limit=2)  # not started: nothing drains
    service.submit(_spec())
    service.submit(_spec())
    with pytest.raises(QueueFullError) as excinfo:
        service.submit(_spec())
    assert excinfo.value.retry_after == 1
    assert service.queue_depth() == 2


def test_clients_are_served_round_robin(monkeypatch):
    served = []

    def fake_execute(spec, runner):
        served.append(spec.client)
        return JobResult(report=build_report([]))

    monkeypatch.setattr(server_mod, "execute_job", fake_execute)
    service = AnalysisService(queue_limit=8)
    jobs = [service.submit(_spec(client=c))
            for c in ("alice", "alice", "alice", "bob", "bob")]
    service.start()
    for job in jobs:
        assert service.wait(job.id, timeout=30).status == "done"
    service.shutdown()
    # alice's backlog does not starve bob: strict alternation while
    # both have queued work
    assert served == ["alice", "bob", "alice", "bob", "alice"]


def test_shutdown_with_jobs_in_flight(monkeypatch):
    release = threading.Event()
    started = threading.Event()

    def slow_execute(spec, runner):
        started.set()
        assert release.wait(timeout=30)
        return JobResult(report=build_report([]))

    monkeypatch.setattr(server_mod, "execute_job", slow_execute)
    service = AnalysisService(queue_limit=8)
    in_flight = service.submit(_spec(client="a"))
    queued = [service.submit(_spec(client="a")) for _ in range(2)]
    service.start()
    assert started.wait(timeout=30)

    done = threading.Event()
    shutter = threading.Thread(
        target=lambda: (service.shutdown(timeout=30), done.set())
    )
    shutter.start()
    release.set()
    shutter.join(timeout=30)
    assert done.is_set()
    # the in-flight job finished; the queued ones were cancelled, with
    # their waiters released
    assert in_flight.status == "done"
    for job in queued:
        assert job.status == "cancelled"
        assert job.done.is_set()
    # a daemon that is shutting down admits nothing
    with pytest.raises(QueueFullError):
        service.submit(_spec())


def test_failed_job_reports_its_error_without_killing_the_daemon(
        monkeypatch):
    calls = []

    def flaky_execute(spec, runner):
        calls.append(spec.client)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return JobResult(report=build_report([]))

    monkeypatch.setattr(server_mod, "execute_job", flaky_execute)
    service = AnalysisService(queue_limit=8)
    first = service.submit(_spec(client="a"))
    second = service.submit(_spec(client="a"))
    service.start()
    assert service.wait(first.id, timeout=30).status == "failed"
    assert "RuntimeError: boom" in first.error
    assert service.wait(second.id, timeout=30).status == "done"
    service.shutdown()


def test_only_the_most_recent_finished_jobs_are_kept(monkeypatch):
    monkeypatch.setattr(server_mod, "execute_job",
                        lambda spec, runner: JobResult(report=build_report([])))
    monkeypatch.setattr(server_mod, "JOB_HISTORY", 2)
    service = AnalysisService(queue_limit=8).start()
    jobs = []
    for _ in range(5):
        jobs.append(service.submit(_spec()))
        assert service.wait(jobs[-1].id, timeout=30).status == "done"
    service.shutdown()
    assert [job.id for job in service.list_jobs()] == \
        [job.id for job in jobs[-2:]]
    assert service.get(jobs[0].id) is None
    assert service.forgotten(jobs[0].id)
    assert not service.forgotten(jobs[-1].id)
    assert not service.forgotten("j999")
    assert not service.forgotten("x1")


# -- HTTP surface -------------------------------------------------------------


def _analyze_payload(name="todolist", **extra):
    spec = app(name)
    payload = {"files": [{"path": spec.filename, "text": spec.source()}],
               "wait": True}
    payload.update(extra)
    return payload


def test_forgotten_jobs_answer_410(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "execute_job",
                        lambda spec, runner: JobResult(report=build_report([])))
    monkeypatch.setattr(server_mod, "JOB_HISTORY", 1)
    service = AnalysisService(queue_limit=4)
    srv = ServiceServer(service, port=0).start()
    try:
        ids = [json.loads(_request(srv.url + "/v1/analyze",
                                   _analyze_payload())[2])["id"]
               for _ in range(2)]
        assert _request(f"{srv.url}/v1/jobs/{ids[1]}")[0] == 200
        status, _, body = _request(f"{srv.url}/v1/jobs/{ids[0]}/report")
        assert status == 410 and "forgotten" in json.loads(body)["error"]
        assert _request(f"{srv.url}/v1/jobs/j99")[0] == 404
    finally:
        srv.close()


def test_post_analyze_and_read_back_artifacts(server):
    status, _, body = _request(server.url + "/v1/analyze",
                               _analyze_payload(sarif=True))
    assert status == 200
    job = json.loads(body)
    assert job["status"] == "done"
    assert job["stats"]["analyzed"] == 1
    assert job["apps"] == ["app"]
    assert set(job["counts"]) == {"app"}

    status, _, report = _request(server.url + job["report"])
    assert status == 200
    assert sorted(json.loads(report)["apps"]) == ["app"]
    status, _, sarif = _request(server.url + job["sarif"])
    assert status == 200
    assert json.loads(sarif)["version"] == "2.1.0"

    status, _, listing = _request(server.url + "/v1/jobs")
    assert status == 200
    listed = json.loads(listing)
    assert [j["id"] for j in listed["jobs"]] == [job["id"]]
    assert listed["queued"] == 0


def test_second_post_of_the_same_app_hits_the_warm_cache(server):
    _, _, first_body = _request(server.url + "/v1/analyze",
                                _analyze_payload())
    first = json.loads(first_body)
    assert first["stats"] == {"analyzed": 1, "cached": 0, "faulted": 0,
                              "retries": 0, "cache_hits": 0,
                              "cache_misses": 1, "cache_stores": 1}
    status, _, second_body = _request(server.url + "/v1/analyze",
                                      _analyze_payload())
    assert status == 200
    second = json.loads(second_body)
    # the warm path: no parse/compile/analyze work at all, one replay
    assert second["stats"] == {"analyzed": 0, "cached": 1, "faulted": 0,
                               "retries": 0, "cache_hits": 1,
                               "cache_misses": 0, "cache_stores": 0}
    # warm and cold runs publish byte-identical reports
    _, _, cold = _request(server.url + first["report"])
    _, _, warm = _request(server.url + second["report"])
    assert cold == warm
    # the mounted telemetry surface counts the replay too
    _, _, metrics = _request(server.url + "/metrics")
    text = metrics.decode()
    assert "nadroid_telemetry_apps_cached_total 1" in text
    assert "nadroid_telemetry_apps_analyzed_total 1" in text


def test_metrics_line_count_plateaus_over_distinct_apps(server):
    """Per-method hotspot units are folded away before the live merge:
    new apps with new methods must not grow ``/metrics``."""
    gconfig = GeneratorConfig(seed=42, count=40)
    apps = [generate_app(gconfig, index) for index in range(gconfig.count)]

    def post_and_count(batch):
        status, _, _ = _request(server.url + "/v1/batch", {
            "apps": [{"name": gen.name,
                      "files": [{"path": f"{gen.name}.mjava",
                                 "text": gen.source}]} for gen in batch],
            "wait": True,
        })
        assert status == 200
        _, _, metrics = _request(server.url + "/metrics")
        return len(metrics.decode().splitlines())

    after_10 = post_and_count(apps[:10])
    assert post_and_count(apps[10:]) == after_10


def test_overlapping_batches_from_two_clients(server, tmp_path):
    alice = {"apps": [
        {"name": n, "files": [{"path": app(n).filename,
                               "text": app(n).source()}]}
        for n in ("todolist", "clipstack")
    ], "client": "alice", "wait": True}
    bob = {"apps": [
        {"name": n, "files": [{"path": app(n).filename,
                               "text": app(n).source()}]}
        for n in ("clipstack", "swiftnotes")
    ], "client": "bob", "wait": True}

    status, _, body = _request(server.url + "/v1/batch", alice)
    assert status == 200
    alice_job = json.loads(body)
    assert alice_job["stats"]["analyzed"] == 2

    status, _, body = _request(server.url + "/v1/batch", bob)
    assert status == 200
    bob_job = json.loads(body)
    # the shared app rides alice's cache entry across clients
    assert bob_job["stats"]["cached"] == 1
    assert bob_job["stats"]["analyzed"] == 1

    # and the HTTP path's bytes match a direct, uncached job execution
    from repro.service import execute_job

    _, _, served = _request(server.url + bob_job["report"])
    direct = execute_job(
        JobSpec.from_request(bob, batch=True), CorpusRunner(jobs=1)
    )
    assert served.decode() == direct.report_json()


def test_queue_bound_surfaces_as_429_with_retry_after(tmp_path,
                                                      monkeypatch):
    release = threading.Event()
    started = threading.Event()

    def slow_execute(spec, runner):
        started.set()
        assert release.wait(timeout=30)
        return JobResult(report=build_report([]))

    monkeypatch.setattr(server_mod, "execute_job", slow_execute)
    service = AnalysisService(queue_limit=1)
    srv = ServiceServer(service, port=0).start()
    try:
        payload = _analyze_payload()
        payload.pop("wait")
        status, headers, _ = _request(srv.url + "/v1/analyze", payload)
        assert status == 202
        assert started.wait(timeout=30)  # running: the queue is empty
        status, _, body = _request(srv.url + "/v1/analyze", payload)
        assert status == 202  # fills the one queue slot
        queued = json.loads(body)["id"]
        status, headers, body = _request(srv.url + "/v1/analyze", payload)
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert "queue is full" in json.loads(body)["error"]
        # draining the queue clears the backpressure: once the queued
        # job has run, the slot is free again
        release.set()
        assert service.wait(queued, timeout=30).status == "done"
        status, _, body = _request(srv.url + "/v1/analyze",
                                   dict(payload, wait=True))
        assert status == 200
    finally:
        release.set()
        srv.close()


def test_malformed_source_is_a_parse_fault(server):
    status, _, body = _request(server.url + "/v1/analyze", {
        "files": [{"path": "bad.mjava", "text": "class A { int x = 1²; }"}],
        "wait": True,
    })
    assert status == 200
    job = json.loads(body)
    assert job["stats"]["faulted"] == 1
    [fault] = job["faults"]
    assert fault["kind"] == "parse"
    assert fault["message"] == "bad.mjava:1:20: unexpected character '²'"


class StuckFilter(Filter):
    """A sound filter that, while armed, never answers: it sleeps without
    crossing a stage boundary, so only the watchdog's kill bounds it."""

    name = "STUCK"
    sound = True
    armed = False

    def witness(self, occ, warning, ctx):
        if self.armed:
            time.sleep(5.0)
        return None


def test_a_stuck_single_app_job_is_bounded_by_its_timeout(tmp_path,
                                                          monkeypatch):
    stuck = StuckFilter()
    monkeypatch.setattr(core, "SOUND_FILTERS", core.SOUND_FILTERS + (stuck,))
    service = AnalysisService(jobs=1, cache=ResultCache(tmp_path / "cache"),
                              queue_limit=4)
    srv = ServiceServer(service, port=0).start()
    try:
        stuck.armed = True
        status, _, body = _request(srv.url + "/v1/analyze",
                                   _analyze_payload(timeout=0.5))
        assert status == 200
        job = json.loads(body)
        assert job["status"] == "done"
        assert job["faults"] == [timeout_fault("app", 0.5).to_dict()]
        assert job["wall_seconds"] < 2.5
        # the drain thread is free again: the next job completes
        stuck.armed = False
        status, _, body = _request(srv.url + "/v1/analyze",
                                   _analyze_payload(timeout=0.5))
        assert status == 200
        job = json.loads(body)
        assert job["status"] == "done"
        assert "faults" not in job
        assert job["stats"]["analyzed"] == 1
    finally:
        srv.close()


def test_http_errors(server):
    status, _, _ = _request(server.url + "/v1/jobs/nope")
    assert status == 404
    status, _, _ = _request(server.url + "/nope")
    assert status == 404
    status, _, body = _request(server.url + "/v1/analyze", {"files": []})
    assert status == 400
    assert "files" in json.loads(body)["error"]
    req = urllib.request.Request(server.url + "/v1/analyze",
                                 data=b"not json{",
                                 headers={"Content-Type":
                                          "application/json"})
    try:
        urllib.request.urlopen(req)
        raise AssertionError("malformed body passed")
    except urllib.error.HTTPError as exc:
        assert exc.code == 400


def test_server_reuses_addresses_and_accepts_port_zero():
    from repro.obs.telemetry import LoopbackHTTPServer

    assert LoopbackHTTPServer.allow_reuse_address is True
    service = AnalysisService()
    first = ServiceServer(service, port=0).bind()
    port = first.port
    assert port not in (None, 0)
    first.close()
    # back-to-back rebinds of the just-released port must not flake
    second = ServiceServer(AnalysisService(), port=port).bind()
    assert second.port == port
    second.close()


# -- corpus-wide byte-identity ------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 4])
def test_daemon_reports_match_repro_analyze_over_the_corpus(
        tmp_path, jobs):
    """The acceptance bar: for every corpus app, the daemon's report is
    byte-identical to ``repro analyze --report-out``, at daemon fan-out
    1 and 4 alike, cold and warm (answered at admission)."""
    from repro.cli import main

    sources = tmp_path / "sources"
    sources.mkdir()
    service = AnalysisService(
        jobs=jobs, cache=ResultCache(tmp_path / f"cache-{jobs}"),
        queue_limit=64,
    )
    srv = ServiceServer(service, port=0).start()
    try:
        for spec in all_apps():
            path = sources / spec.filename
            path.write_text(spec.source())
            out = tmp_path / f"{spec.name}-cli.json"
            code = main(["analyze", str(path),
                         "--report-out", str(out)])
            assert code in (0, 1)
            for temperature in ("cold", "warm"):
                status, _, body = _request(srv.url + "/v1/analyze", {
                    "files": [{"path": str(path), "text": spec.source()}],
                    "wait": True,
                })
                assert status == 200
                job = json.loads(body)
                assert job["status"] == "done"
                assert job["stats"]["cached"] == (temperature == "warm")
                _, _, served = _request(srv.url + job["report"])
                assert served.decode() == out.read_text(), \
                    (spec.name, temperature)
    finally:
        srv.close()


def test_batch_reports_are_identical_across_daemon_fanout(tmp_path):
    """One 27-app batch, executed at --jobs 1 and --jobs 4 with cold
    separate caches, publishes byte-identical reports."""
    batch = {"apps": [
        {"name": spec.name,
         "files": [{"path": spec.filename, "text": spec.source()}]}
        for spec in all_apps()
    ], "wait": True}
    reports = []
    for jobs in (1, 4):
        service = AnalysisService(
            jobs=jobs, cache=ResultCache(tmp_path / f"cache-{jobs}"),
        )
        srv = ServiceServer(service, port=0).start()
        try:
            status, _, body = _request(srv.url + "/v1/batch", batch)
            assert status == 200
            job = json.loads(body)
            assert job["status"] == "done"
            assert job["stats"]["analyzed"] == len(batch["apps"])
            _, _, served = _request(srv.url + job["report"])
            reports.append(served)
        finally:
            srv.close()
    assert reports[0] == reports[1]
