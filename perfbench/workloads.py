"""Untraced end-to-end runs of the three workloads.

paper-corpus and generated-jobs2 push whole corpus passes through the
runner (``CorpusRunner``, no cache) until ``--seconds`` have been
measured; serve-mixed drives a ``repro serve`` child with closed-loop
clients.  Per-app latency of the corpus workloads comes from the
runner's public lifecycle hook (its ``telemetry`` observer): ``start``
to ``ok`` of every app.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    BenchError, child_env, chunked_percentile, HERE, median,
    MIN_LATENCY_SAMPLES, ROOT, Result,
)
from inputs import (
    check_warnings, generated_apps, generator_config, Golden, paper_apps,
    serve_stream,
)
import serve

#: start-up is sampled this many times per run; the median is reported
SETUP_SAMPLES = 7
SERVE_CLIENTS = 2
SERVE_SEGMENT_S = 2.0


def lifecycle_clock():
    """A runner telemetry observer that records start -> ok latency."""
    from repro.obs import LiveAggregator

    class LifecycleClock(LiveAggregator):
        def __init__(self) -> None:
            super().__init__()
            self.started: Dict[str, float] = {}
            self.latencies: List[float] = []

        def app_started(self, name: str) -> None:
            self.started[name] = time.perf_counter()

        def app_finished(self, name, status, duration_s=None,
                         snapshot=None) -> None:
            began = self.started.pop(name, None)
            if status == "analyzed" and began is not None:
                self.latencies.append(time.perf_counter() - began)

    return LifecycleClock()


def make_runner(jobs: int, telemetry=None):
    from repro.resilience import FaultPolicy
    from repro.runner import CorpusRunner

    return CorpusRunner(jobs=jobs, cache=None,
                        policy=FaultPolicy(keep_going=True),
                        telemetry=telemetry)


class CorpusWorkload:
    """A corpus workload: its apps, its pass through the runner."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.registry = name == "paper-corpus"
        self.jobs = 1 if self.registry else 2
        self.apps = paper_apps(seed) if self.registry \
            else generated_apps(seed)
        #: the reference of registry apps, loaded outside set-up timing
        self.golden: Optional[Golden] = None

    def read_sources(self) -> None:
        for app in self.apps:
            app.load()

    def run_pass(self, runner) -> Tuple[Dict[str, list], List[str]]:
        """One pass over every app: ``({app: warnings}, faulted apps)``."""
        if self.registry:
            from repro.harness.table1 import run_table1

            rows = run_table1(validate=False,
                              apps=[app.spec for app in self.apps],
                              runner=runner)
            results = {row.app.name: row.result.warnings for row in rows}
        else:
            from repro.harness import run_generated

            gens, outs = run_generated(runner, generator_config(self.seed))
            results = {gen.name: out.warnings
                       for gen, out in zip(gens, outs) if out is not None}
        faulted = [fault.app for fault in runner.last_faults]
        return results, faulted

    def check_pass(self, result: Result, warnings: Dict[str, list],
                   faulted: List[str]) -> int:
        """Check every app of one pass; returns how many were correct."""
        correct = 0
        for app in self.apps:
            if app.name in faulted:
                problem = f"{app.name}: analysis fault"
            elif app.name not in warnings:
                problem = f"{app.name}: no result"
            else:
                problem = check_warnings(app, warnings[app.name],
                                         self.golden)
            correct += result.check(problem is None, problem or "")
        return correct


def prepare(workload: str, seed: int):
    """Everything a corpus workload needs before its first app."""
    work = CorpusWorkload(workload, seed)
    work.read_sources()
    return work, make_runner(work.jobs, lifecycle_clock())


def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up sample: get ready, say so, exit."""
    prepare(workload, seed)
    print("ready", flush=True)


def _sample_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it is ready."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe for {workload} failed")
    return elapsed


def run_corpus(workload: str, seed: int, seconds: float) -> Result:
    work, runner = prepare(workload, seed)
    if work.registry:
        work.golden = Golden()
    clock = runner.telemetry
    result = Result()
    wall = 0.0
    rates: List[float] = []
    latencies: List[List[float]] = []
    while wall < seconds or sum(map(len, latencies)) < MIN_LATENCY_SAMPLES:
        clock.latencies = []
        started = time.perf_counter()
        warnings, faulted = work.run_pass(runner)
        elapsed = time.perf_counter() - started
        wall += elapsed
        rates.append(work.check_pass(result, warnings, faulted) / elapsed)
        latencies.append(clock.latencies)
    usage = resource.RUSAGE_SELF if work.jobs == 1 \
        else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    setup = median(_sample_setup(workload, seed)
                   for _ in range(SETUP_SAMPLES))
    _end_to_end(result, setup, median(rates), latencies, peak_rss_mb)
    return result


def _end_to_end(result: Result, setup_s: float, apps_per_s: float,
                latencies: List[List[float]], peak_rss_mb: float) -> None:
    """Record the end-to-end metrics; ``latencies`` holds one list of
    per-app seconds per pass (serve-mixed: per load segment)."""
    result.metric("setup_s", setup_s, "s")
    # the median over passes (serve-mixed: load segments) of the
    # correct-app rate: steadier than one total over the run on a shared
    # host whose speed drifts for seconds at a time
    result.metric("apps_per_s", apps_per_s, "1/s")
    result.metric("latency_p50_ms",
                  chunked_percentile(latencies, 0.50) * 1000, "ms")
    result.metric("latency_p95_ms",
                  chunked_percentile(latencies, 0.95) * 1000, "ms")
    result.metric("peak_rss_mb", peak_rss_mb, "MB")
    result.metric("latency_samples", sum(map(len, latencies)), "count")


# -- serve-mixed ---------------------------------------------------------------


def check_exchanges(result: Result, exchanges, golden: Optional[Golden],
                    reference: Optional[Dict[str, list]] = None) -> None:
    """Check every served report: one checked operation per request.

    A report must match its app's reference -- the golden report or the
    generator's labels and, with ``reference`` (app -> warnings of an
    untraced runner pass), that pass too -- and every report served for
    one app must be byte-identical, cold or warm.  Registry apps whose
    verdict depends on an explicit manifest (the daemon always infers
    one) are held to the identity check only.
    """
    from common import warning_keys
    from repro.report import report_from_dict

    verdicts: Dict[Tuple[str, str], Optional[str]] = {}
    first_text: Dict[str, str] = {}
    for x in exchanges:
        if x.error is not None:
            result.fail(x.error)
            continue
        key = (x.app.name, x.report)
        if key not in verdicts:
            warnings = report_from_dict(json.loads(x.report)) \
                .apps["app"].warnings
            problem = None
            if x.app.spec is None or not x.app.spec.unreachable_components:
                problem = check_warnings(x.app, warnings, golden)
                if problem is None and reference is not None \
                        and warning_keys(warnings) \
                        != warning_keys(reference[x.app.name]):
                    problem = f"{x.app.name}: daemon differs from runner"
            verdicts[key] = problem
        problem = verdicts[key]
        if problem is None \
                and first_text.setdefault(x.app.name, x.report) != x.report:
            problem = f"{x.app.name}: warm and cold reports differ"
        result.check(problem is None, problem or "")


def run_serve(seed: int, seconds: float) -> Result:
    """Closed-loop load in segments of ``SERVE_SEGMENT_S``."""
    result = Result()
    daemon = serve.Daemon()
    setups = [daemon.setup_s]
    stream = serve_stream(seed)
    segments: List[serve.Load] = []
    try:
        while sum(s.wall_s for s in segments) < seconds or \
                sum(len(s.ok()) for s in segments) < MIN_LATENCY_SAMPLES:
            segments.append(serve.drive(daemon, stream, SERVE_CLIENTS,
                                        SERVE_SEGMENT_S))
        peak_rss_mb = daemon.rss_kb("VmHWM") / 1024
        exchanges = [x for s in segments for x in s.exchanges]
        layer = serve.service_metrics(
            daemon, serve.Load(exchanges, rss_after_warmup_kb=segments[0]
                               .rss_after_warmup_kb))
    finally:
        result.check(serve.stopped_cleanly(daemon),
                     "daemon did not exit 130 on SIGINT")
    check_exchanges(result, exchanges, None)
    for _ in range(SETUP_SAMPLES - 1):
        extra = serve.Daemon()
        setups.append(extra.setup_s)
        result.check(serve.stopped_cleanly(extra),
                     "daemon did not exit 130 on SIGINT")
    _end_to_end(result, median(setups),
                median(len(s.ok()) / s.wall_s for s in segments),
                [[x.latency_s for x in s.ok()] for s in segments],
                peak_rss_mb)
    for name in ("service.cold_latency_p50_ms",
                 "service.warm_latency_p50_ms"):
        result.metric(name, *layer[name])
    return result
