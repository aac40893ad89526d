"""Soak: a long-lived daemon's memory and ``/metrics`` size plateau.

An in-process :class:`AnalysisService` with a shared result cache and a
live aggregator runs 600 warm jobs after a short warm-up.  With the job
history and the latency window shrunk so that both fill early, neither
the traced heap nor the ``/metrics`` body may keep growing: every
per-job structure is either bounded or released.
"""

import gc
import tracemalloc

from repro.corpus import app
from repro.obs import LiveAggregator
from repro.obs import telemetry as telemetry_mod
from repro.runner import ResultCache
from repro.service import AnalysisService, JobSpec
import repro.service.server as server_mod

APPS = ("todolist", "swiftnotes", "clipstack")
#: the apps posted in turn; the period divides the spacing of the marks,
#: so the retained job history holds the same mix at every mark
ROTATION = ("todolist", "swiftnotes", "clipstack", "swiftnotes")
JOBS = 600
MARKS = (200, 400, 600)
#: heap growth allowed over the last 200 jobs
MAX_GROWTH_BYTES = 32 * 1024


def _spec(name):
    return JobSpec.from_request({
        "apps": [{"name": name,
                  "files": [{"path": app(name).filename,
                             "text": app(name).source()}]}],
        "client": "soak",
    }, batch=True)


def test_warm_jobs_plateau(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "JOB_HISTORY", 16)
    monkeypatch.setattr(telemetry_mod, "LATENCY_WINDOW", 32)
    aggregator = LiveAggregator()
    service = AnalysisService(jobs=1, cache=ResultCache(tmp_path / "cache"),
                              telemetry=aggregator, queue_limit=4).start()
    specs = {name: _spec(name) for name in APPS}

    def run_job(spec):
        job = service.wait(service.submit(spec).id, timeout=60)
        assert job.status == "done", job.error

    try:
        for spec in specs.values():  # warm the cache
            run_job(spec)
        tracemalloc.start()
        sizes, lines = [], []
        for index in range(1, JOBS + 1):
            run_job(specs[ROTATION[index % len(ROTATION)]])
            if index in MARKS:
                gc.collect()
                sizes.append(tracemalloc.get_traced_memory()[0])
                lines.append(len(aggregator.prometheus().splitlines()))
    finally:
        tracemalloc.stop()
        service.shutdown()

    assert sizes[2] - sizes[1] <= MAX_GROWTH_BYTES, sizes
    assert len(set(lines)) == 1, lines
    progress = aggregator.progress()
    assert progress["apps"]["cached"] == JOBS
    assert progress["latency"]["apps"] == JOBS + len(APPS)
    assert len(service.list_jobs()) == 16
