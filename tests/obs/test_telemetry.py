"""Tests for repro.obs.telemetry (ISSUE 8): the live run aggregator and
the 127.0.0.1-only ``--serve-telemetry`` HTTP endpoint.

The load-bearing property is the determinism contract: attaching the
aggregator to a run must leave results, reports and bench counters
byte-identical -- the endpoint observes, it never participates.
"""

import json
import urllib.request

import pytest

from repro.obs import (
    LiveAggregator,
    MetricsSnapshot,
    prometheus_text,
)
from repro.obs.events import percentile
from repro.obs.telemetry import (
    LATENCY_WINDOW,
    TELEMETRY_HOST,
    TelemetryServer,
)
from repro.runner import CorpusRunner

SUBSET = ["todolist", "swiftnotes", "clipstack"]


def feed(agg, event, snapshot=None, **fields):
    """Hand the aggregator one lifecycle record, as the event log does."""
    agg.observe(dict({"schema": 1, "event": event, "t": 0.0}, **fields),
                snapshot)


# -- LiveAggregator -----------------------------------------------------------


def test_aggregator_starts_idle():
    agg = LiveAggregator()
    progress = agg.progress()
    assert progress["phase"] == "idle"
    assert progress["apps"] == {"total": 0, "done": 0, "analyzed": 0,
                                "cached": 0, "faulted": 0}
    assert progress["latency"] is None
    assert agg.healthy()


def test_aggregator_tracks_the_run_funnel():
    agg = LiveAggregator(clock=lambda: 0.0)
    feed(agg, "run-start", kind="timing", apps=3)
    feed(agg, "app-start", app="a")
    feed(agg, "app-start", app="b")
    assert agg.progress()["active"] == ["a", "b"]
    feed(agg, "retry", app="a", kind="worker-lost")
    feed(agg, "app-done", app="a", status="analyzed", duration_s=0.2)
    feed(agg, "app-done", app="b", status="cached", duration_s=0.1)
    feed(agg, "app-done", app="c", status="faulted")
    progress = agg.progress()
    assert progress["phase"] == "timing"
    assert progress["apps"] == {"total": 3, "done": 3, "analyzed": 1,
                                "cached": 1, "faulted": 1}
    assert progress["active"] == []
    assert progress["retries"] == 1
    assert progress["latency"]["apps"] == 2
    assert progress["latency"]["max_s"] == 0.2
    feed(agg, "run-end", analyzed=1, cached=1, faulted=1)
    assert agg.progress()["phase"] == "idle"


def test_an_overlapping_run_ending_leaves_the_other_in_progress():
    agg = LiveAggregator(clock=lambda: 0.0)
    feed(agg, "run-start", kind="analyze", apps=1)
    feed(agg, "app-start", app="cold")
    # a second run (a cached job) starts and ends meanwhile
    feed(agg, "run-start", kind="analyze", apps=1)
    feed(agg, "app-start", app="warm")
    feed(agg, "app-done", app="warm", status="cached", duration_s=0.001)
    feed(agg, "run-end", analyzed=0, cached=1, faulted=0)
    progress = agg.progress()
    assert progress["phase"] == "analyze"
    assert progress["active"] == ["cold"]
    feed(agg, "app-done", app="cold", status="analyzed", duration_s=0.01)
    feed(agg, "run-end", analyzed=1, cached=0, faulted=0)
    assert agg.progress()["phase"] == "idle"
    assert agg.progress()["runs"] == 2


def test_aggregator_latency_memory_is_bounded():
    agg = LiveAggregator(clock=lambda: 0.0)
    count = 10_000
    for index in range(count):
        agg.app_finished(f"app{index}", "analyzed",
                         duration_s=(index * 7919 % count) / 1000)
    assert len(agg._durations) == LATENCY_WINDOW < count
    latency = agg.progress()["latency"]
    assert latency["apps"] == count
    assert latency["max_s"] == (count - 1) / 1000
    gauges = agg.snapshot().gauges
    assert gauges["telemetry.latency.max_seconds"] == (count - 1) / 1000


def test_aggregator_quantiles_are_exact_within_the_window():
    durations = [(index * 7919 % 1000) / 1000 for index in range(1000)]
    assert len(durations) <= LATENCY_WINDOW
    agg = LiveAggregator(clock=lambda: 0.0)
    for index, duration in enumerate(durations):
        agg.app_finished(f"app{index}", "analyzed", duration_s=duration)
    assert agg.progress()["latency"] == {
        "apps": len(durations),
        "p50_s": percentile(durations, 0.50),
        "p95_s": percentile(durations, 0.95),
        "max_s": max(durations),
    }


def test_aggregator_explicit_phase_wins_over_kind():
    agg = LiveAggregator()
    agg.set_phase("bench:generated:50")
    feed(agg, "run-start", kind="gen-timing", apps=50)
    progress = agg.progress()
    assert progress["phase"] == "bench:generated:50"
    assert progress["kind"] == "gen-timing"


def test_aggregator_merges_finished_snapshots():
    agg = LiveAggregator()
    feed(agg, "run-start", kind="timing", apps=2)
    feed(agg, "app-done", MetricsSnapshot(
        counters={"pointsto.passes": 2},
        gauges={"mem.app.peak_kb": 10.0},
    ), app="a", status="analyzed")
    feed(agg, "app-done", MetricsSnapshot(
        counters={"pointsto.passes": 3},
        gauges={"mem.app.peak_kb": 30.0},
    ), app="b", status="analyzed")
    feed(agg, "run-end",
         MetricsSnapshot(counters={"runner.apps.analyzed": 2}),
         analyzed=2, cached=0, faulted=0)
    snapshot = agg.snapshot()
    assert snapshot.counters["pointsto.passes"] == 5
    assert snapshot.counters["runner.apps.analyzed"] == 2
    # peak gauges merge max-wins
    assert snapshot.gauges["mem.app.peak_kb"] == 30.0
    # the aggregator's own funnel rides along
    assert snapshot.counters["telemetry.apps.done"] == 2
    assert snapshot.counters["telemetry.runs"] == 1
    # spans are never retained
    assert snapshot.spans == []


def test_aggregator_prometheus_is_valid_exposition():
    agg = LiveAggregator(clock=lambda: 0.0)  # pin the uptime gauge
    feed(agg, "run-start", kind="timing", apps=1)
    feed(agg, "app-done", MetricsSnapshot(counters={"x.y": 1}),
         app="a", status="analyzed")
    text = agg.prometheus()
    assert "# TYPE nadroid_x_y_total counter" in text
    assert "nadroid_telemetry_apps_done_total 1" in text
    assert text == prometheus_text(agg.snapshot())


# -- TelemetryServer ----------------------------------------------------------


@pytest.fixture()
def server():
    agg = LiveAggregator()
    srv = TelemetryServer(agg, port=0).start()
    yield srv
    srv.close()


def _get(server, path):
    with urllib.request.urlopen(f"{server.url}{path}") as response:
        return response.status, dict(response.headers), \
            response.read().decode("utf-8")


def test_server_binds_loopback_ephemeral_port(server):
    assert server.port and server.port > 0
    assert server.url == f"http://{TELEMETRY_HOST}:{server.port}"
    assert TELEMETRY_HOST == "127.0.0.1"


def test_server_serves_healthz(server):
    status, _, body = _get(server, "/healthz")
    assert status == 200
    assert body == "ok\n"


def test_server_serves_metrics(server):
    feed(server.aggregator, "run-start", kind="timing", apps=2)
    feed(server.aggregator, "app-done", app="a", status="analyzed")
    status, headers, body = _get(server, "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    assert "nadroid_telemetry_apps_done_total 1" in body
    assert "nadroid_telemetry_apps_total_total 2" in body


def test_server_serves_progress_json(server):
    feed(server.aggregator, "run-start", kind="table1", apps=5)
    status, headers, body = _get(server, "/progress")
    assert status == 200
    assert headers["Content-Type"].startswith("application/json")
    progress = json.loads(body)
    assert progress["phase"] == "table1"
    assert progress["apps"]["total"] == 5


def test_server_404_on_unknown_path(server):
    with pytest.raises(urllib.error.HTTPError) as exc:
        _get(server, "/nope")
    assert exc.value.code == 404


def test_server_close_is_idempotent():
    srv = TelemetryServer(LiveAggregator(), port=0).start()
    srv.close()
    srv.close()
    assert srv.port is None


# -- runner integration and the determinism contract --------------------------


def test_aggregator_key_count_is_bounded_by_hotspot_domains():
    """A long-lived daemon sees ever new methods; their per-unit
    hotspot keys fold to per-domain totals instead of accumulating."""
    agg = LiveAggregator()

    def snapshot(i):
        unit = f"hotspot.pointsto.pair.App{i}.m@."
        return MetricsSnapshot(
            counters={unit + "pops": 2, "pointsto.passes": 1},
            gauges={unit + "seconds": 0.5},
        )

    agg.app_finished("app0", "analyzed", snapshot=snapshot(0))
    keys = (len(agg.snapshot().counters), len(agg.snapshot().gauges))
    for i in range(1, 2000):
        agg.app_finished(f"app{i}", "analyzed", snapshot=snapshot(i))
    merged = agg.snapshot()
    assert (len(merged.counters), len(merged.gauges)) == keys
    assert merged.counters["hotspot.pointsto.pair.pops"] == 4000
    assert merged.counters["pointsto.passes"] == 2000


def test_runner_feeds_the_aggregator():
    agg = LiveAggregator()
    runner = CorpusRunner(jobs=1, telemetry=agg)
    runner.run("table1", SUBSET, {"validate": False})
    progress = agg.progress()
    assert progress["apps"]["total"] == len(SUBSET)
    assert progress["apps"]["done"] == len(SUBSET)
    assert progress["apps"]["analyzed"] == len(SUBSET)
    assert progress["active"] == []
    assert progress["phase"] == "idle"  # run closed
    assert progress["latency"]["apps"] == len(SUBSET)
    snapshot = agg.snapshot()
    # the per-app analysis counters merged in
    assert snapshot.counters["pointsto.passes"] > 0
    # the runner's own fan-out counters joined at run-end
    assert snapshot.counters["runner.apps.analyzed"] == len(SUBSET)


def test_runner_reports_cache_hits_to_the_aggregator(tmp_path):
    from repro.runner import ResultCache

    CorpusRunner(cache=ResultCache(tmp_path)).run(
        "table1", SUBSET, {"validate": False}
    )
    agg = LiveAggregator()
    warm = CorpusRunner(cache=ResultCache(tmp_path), telemetry=agg)
    warm.run("table1", SUBSET, {"validate": False})
    progress = agg.progress()
    assert progress["apps"]["cached"] == len(SUBSET)
    # replayed envelopes still carry their recorded metrics
    assert agg.snapshot().counters["pointsto.passes"] > 0


def _run_payloads(telemetry, jobs):
    runner = CorpusRunner(jobs=jobs, telemetry=telemetry)
    # payloads are analysis output only and must come out byte-identical
    payloads, _ = runner.run("table1", SUBSET, {})
    counters = {
        name: dict(snapshot.counters)
        for name, snapshot in runner.last_metrics.apps.items()
    }
    return payloads, counters


def test_telemetry_does_not_perturb_results_or_counters():
    """The determinism contract: byte-identical payloads and identical
    per-app counters with and without the aggregator, serial and
    parallel."""
    base_payloads, base_counters = _run_payloads(None, 1)
    for telemetry, jobs in ((LiveAggregator(), 1), (None, 4),
                            (LiveAggregator(), 4)):
        payloads, counters = _run_payloads(telemetry, jobs)
        assert json.dumps(payloads, sort_keys=True) == \
            json.dumps(base_payloads, sort_keys=True)
        assert counters == base_counters


def test_aggregator_folds_concurrent_listeners_without_lost_updates():
    """Runner threads feed records while readers poll: every record is
    folded exactly once."""
    import sys
    import threading

    agg = LiveAggregator()
    writers, apps = 8, 200

    def write(worker):
        feed(agg, "run-start", kind="timing", apps=apps)
        for index in range(apps):
            name = f"w{worker}-{index}"
            feed(agg, "app-start", app=name)
            feed(agg, "retry", app=name, kind="worker-lost")
            feed(agg, "app-done", MetricsSnapshot(counters={"x.y": 1}),
                 app=name, status="analyzed", duration_s=0.001)

    def read(stop):
        while not stop.is_set():
            agg.progress()
            agg.prometheus()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    stop = threading.Event()
    try:
        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(writers)]
        reader = threading.Thread(target=read, args=(stop,))
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads + [reader])
    total = writers * apps
    progress = agg.progress()
    assert progress["apps"]["done"] == progress["apps"]["analyzed"] == total
    assert progress["apps"]["total"] == total
    assert progress["retries"] == total
    assert progress["active"] == []
    assert progress["latency"]["apps"] == total
    assert agg.snapshot().counters["x.y"] == total
