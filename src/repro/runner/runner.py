"""Parallel, cached corpus-analysis runner.

The corpus drivers (Table 1, Figure 5, Tables 2/3, the timing study) all
reduce to *one independent analysis per app* followed by aggregation, so
they all run through this runner (serial and uncached when the caller
passes none): a fan-out over apps to long-lived worker
processes (the fault-isolating pool of :mod:`repro.resilience.pool`) with a
content-addressed on-disk result cache in front (see
:mod:`repro.runner.cache`).

Determinism contract: results are keyed and re-ordered by the input app
order and every payload is serialized in a canonical form (warnings sorted
by :func:`repro.runner.serialize.warning_sort_key`), so a ``--jobs 4`` run
is byte-identical to a serial run no matter which worker finishes first.
``tests/test_runner.py`` pins this property.

Observability: every task executes under a fresh :class:`repro.obs
.Recorder` whose snapshot (span tree rooted at ``app:<name>`` plus the
analysis counters) rides back across the process boundary -- and into the
cache, so cache hits replay the metrics recorded when the entry was
built.  The runner exposes them as :attr:`CorpusRunner.last_metrics`,
beside the run's own snapshot (``last_metrics.run``, the one record of
what the run did).  That snapshot, the event sinks and the live
telemetry are all folds over one lifecycle stream
(:class:`repro.obs.RunEventLog`).
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import merge_snapshots, MetricsSnapshot, Recorder, RunEventLog
from ..obs import span as obs_span, track_memory, use as obs_use
from ..obs.telemetry import LiveAggregator
from ..resilience import (
    active_plan,
    checkpoint,
    Fault,
    FaultError,
    FaultPolicy,
    run_tasks,
    task_scope,
    WorkerPool,
)
from .cache import cache_key, ResultCache
from .serialize import config_fingerprint


def _task_table1(app_name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    from ..corpus import app
    from ..harness.table1 import build_row
    from .serialize import row_to_dict

    row = build_row(
        app(app_name),
        validate=params.get("validate", True),
        random_attempts=params.get("random_attempts", 40),
        config=params.get("config"),
    )
    return row_to_dict(row)


def _task_figure5(app_name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    from ..corpus import app
    from ..harness.figure5 import figure5_app_data

    return figure5_app_data(app(app_name), params.get("config"))


def _task_table2(app_name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    from ..harness.table2 import table2_app_data

    return table2_app_data(app_name, params.get("config"))


def _task_table3(app_name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    from ..corpus import app
    from ..harness.table3 import table3_app_data

    return table3_app_data(app(app_name), params.get("config"))


def _task_generated(app_name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    from ..harness.generated import generated_app_data

    return generated_app_data(app_name, params)


def _task_analyze(app_name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """One service/CLI analysis job unit: sources arrive *in* the params
    (``{"sources": {app: [[path, text], ...]}}``) instead of being
    resolved from the corpus registry.  ``validate`` adds a
    ``{"confirmed", "schedules_tried"}`` verdict per remaining warning."""
    from ..core import analyze_app
    from .serialize import result_data_to_dict, result_to_data

    files = [tuple(entry) for entry in params["sources"][app_name]]
    result = analyze_app(files, config=params.get("config"))
    data = result_to_data(result)
    payload = {"result": result_data_to_dict(data)}
    if params.get("validate"):
        from ..runtime import Simulator, validate_warning

        make_sim = partial(Simulator, result.program.module,
                           result.program.manifest)
        payload["validation"] = [
            {"confirmed": verdict.confirmed,
             "schedules_tried": verdict.schedules_tried}
            for verdict in (validate_warning(make_sim, warning)
                            for warning in data.remaining())
        ]
    return payload


_TASKS = {
    "table1": _task_table1,
    "figure5": _task_figure5,
    "table2": _task_table2,
    "table3": _task_table3,
    "generated": _task_generated,
    "analyze": _task_analyze,
}

TASK_KINDS = tuple(sorted(_TASKS))


def execute_app_task_observed(kind: str, app_name: str,
                              params: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-process entry point: run one task under a fresh recorder.

    Returns an envelope ``{"data": <task payload>, "obs": <snapshot>}``.
    The span tree is rooted at ``app:<name>``, so a ``--trace`` render of
    a ``--jobs N`` run nests each worker's spans under its own app root
    instead of interleaving them.
    """
    # opt-in cProfile reports (span attrs) and tracemalloc gauges
    # (mem.app.peak_kb and mem.stage.<span>.peak_kb) ride the snapshot
    recorder = Recorder(profile_stages=params.get("profile_stages", ()))
    memory = track_memory(recorder) if params.get("memory") \
        else nullcontext()
    with task_scope(app_name), obs_use(recorder), memory:
        with obs_span(f"app:{app_name}", kind=kind):
            checkpoint("task")
            data = _TASKS[kind](app_name, params)
    return {"data": data, "obs": recorder.snapshot().to_dict()}


def _envelope_duration(envelope: Dict[str, Any]) -> Optional[float]:
    """The worker-measured wall time of an envelope's root app span."""
    try:
        spans = envelope["obs"]["spans"]
        duration = spans[0]["duration_s"]
    except (KeyError, IndexError, TypeError):
        return None
    return float(duration) if duration is not None else None


def _envelope_snapshot(envelope: Dict[str, Any]) -> Optional[MetricsSnapshot]:
    """The metrics snapshot an envelope carried back, if any."""
    obs = envelope.get("obs")
    if not isinstance(obs, dict):
        return None
    return MetricsSnapshot.from_dict(obs)


def _source_for(kind: str, app_name: str, params: Dict[str, Any]) -> str:
    """The source text whose content addresses this task's cache entry."""
    if kind == "analyze":
        # Request-supplied sources (the service path): the canonical
        # concatenation of every file's path and text, so any edit -- or
        # a rename -- re-analyzes, while the same app posted in a
        # different batch (or by a different client) still hits.
        return "\x00".join(
            f"{path}\n{text}"
            for path, text in params["sources"][app_name]
        )
    if kind == "table2":
        from ..corpus.injector import injected_source

        return injected_source(app_name)
    if kind == "generated":
        # Generated apps have no registry entry: regenerate the source
        # from the (config, index) coordinates carried in the params.
        from ..corpus.generator import (
            generate_app, generated_app_index, GeneratorConfig,
        )

        gconfig = GeneratorConfig.from_dict(params["generator"])
        return generate_app(gconfig, generated_app_index(app_name)).source
    from ..corpus import app

    return app(app_name).source()


@dataclass
class RunMetrics:
    """Observability bundle for one driver invocation."""

    #: fan-out and cache behaviour of the run itself
    run: MetricsSnapshot
    #: per-app analysis snapshots, in input-app order (cache hits replay
    #: the snapshot recorded when the entry was built)
    apps: Dict[str, MetricsSnapshot] = field(default_factory=dict)

    def totals(self) -> MetricsSnapshot:
        """Counters/gauges summed over every app in the run."""
        return merge_snapshots(self.apps.values())


class CorpusRunner:
    """Fan per-app analysis tasks out over processes, behind the cache.

    An untimed run without a ``pool`` or a planted ``kill``, at
    ``jobs <= 1`` or with only one app missing the cache, runs
    in-process (no worker).  ``cache=None`` disables caching entirely.

    ``policy`` governs fault tolerance (per-app timeout, transient
    retries, keep-going vs fail-fast).  A policy with a timeout always
    runs its apps in worker processes, even at ``jobs=1``, so the pool's
    watchdog can kill an overrunning app.  The default fails fast with a
    one-line :class:`~repro.resilience.FaultError`.  Apps that end in a
    fault under ``keep_going`` come back as ``{"error": {...}}``
    payloads -- drivers skip them -- and the normalized faults are
    exposed, in input-app order, as :attr:`last_faults`.

    Each run is narrated once, into a :class:`repro.obs.RunEventLog`
    -- ``events`` when given (its sinks flush in input-app order), else
    a sink-less one -- and the run's snapshot (``last_metrics.run``) is
    read off its funnel.  A fail-fast abort closes the run like any
    other: it states the fault and the run-end, and leaves
    :attr:`last_metrics` (the apps landed so far) and :attr:`last_faults`
    (the aborting fault) describing that run before it re-raises.
    ``memory=True`` turns on tracemalloc peak gauges in every worker; it
    joins the cache fingerprint, so instrumented and plain runs never
    share entries.

    ``pool`` runs every pending app on a long-lived
    :class:`~repro.resilience.WorkerPool` (the daemon's) instead of the
    in-process path or a pool opened for the run.  Each run counts its
    own cache lookups and stores, so runs sharing one
    :class:`ResultCache` concurrently never see each other's traffic.

    ``telemetry`` attaches a :class:`repro.obs.LiveAggregator` as the
    log's live listener: it sees each record (and each app's metrics
    snapshot) the moment it happens, which is what the
    ``--serve-telemetry`` endpoint reads mid-run.  The aggregator is a
    pure observer -- results, reports and bench counters are
    byte-identical with and without it.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 policy: Optional[FaultPolicy] = None,
                 events: Optional[RunEventLog] = None,
                 memory: bool = False,
                 telemetry: Optional[LiveAggregator] = None,
                 pool: Optional[WorkerPool] = None) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.policy = policy or FaultPolicy()
        self.events = events
        self.memory = bool(memory)
        self.telemetry = telemetry
        self.pool = pool
        self.last_metrics: Optional[RunMetrics] = None
        self.last_faults: List[Fault] = []

    @staticmethod
    def _fingerprint(params: Dict[str, Any]) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "config": config_fingerprint(params.get("config"))
        }
        for name, value in params.items():
            # "sources" is content-addressed per app via _source_for;
            # hashing the whole map here would key every entry on its
            # *batch* composition and defeat cross-request cache hits.
            if name not in ("config", "sources"):
                out[name] = value
        # An active fault-injection plan changes analysis outcomes, so
        # its digest joins the key: injected results can never poison --
        # or be satisfied by -- the regular cache.
        plan = active_plan()
        if plan is not None:
            out["fault_plan"] = plan.digest()
        return out

    def _run_params(self, params: Optional[Dict[str, Any]]) \
            -> Dict[str, Any]:
        params = dict(params or {})
        if self.memory:
            # only set when on, so plain runs keep their cache keys
            params["memory"] = True
        return params

    def _key(self, kind: str, name: str, params: Dict[str, Any],
             fingerprint: Dict[str, Any]) -> str:
        return cache_key(kind, _source_for(kind, name, params), fingerprint)

    def fully_cached(self, kind: str, app_names: Sequence[str],
                     params: Optional[Dict[str, Any]] = None) -> bool:
        """Whether every app has a cache entry on disk: one ``stat`` per
        app, no lookup counted.  An entry that then reads back as a miss
        (corrupt, stale schema, pruned meanwhile) is simply analyzed."""
        if self.cache is None:
            return False
        params = self._run_params(params)
        fingerprint = self._fingerprint(params)
        return all(
            self.cache.path_for(
                self._key(kind, name, params, fingerprint)).is_file()
            for name in app_names
        )

    def _close_run(self, log: RunEventLog, start: float,
                   tally: Counter,
                   snapshots: Dict[str, MetricsSnapshot],
                   app_names: Sequence[str],
                   faults: List[Fault]) -> RunMetrics:
        """Build the run's metrics off its funnel and its own cache
        tally, state its run-end and record it as :attr:`last_metrics`."""
        funnel = log.funnel
        wall_seconds = time.perf_counter() - start
        counters = {
            "runner.apps.analyzed": funnel.analyzed,
            "runner.apps.cached": funnel.cached,
            "runner.cache.hits": tally["hits"],
            "runner.cache.misses": tally["misses"],
            "runner.cache.stores": tally["stores"],
        }
        # Fault-tolerance counters appear only on runs that needed them,
        # keeping fault-free metrics payloads byte-stable across versions.
        for name, value in (("runner.apps.faulted", funnel.faulted),
                            ("runner.retries", funnel.retries),
                            ("runner.timeouts", funnel.timeouts),
                            ("runner.cache.corrupt", tally["corrupt"])):
            if value:
                counters[name] = value
        for kind in sorted(funnel.fault_kinds):
            counters[f"runner.faults.{kind}"] = funnel.fault_kinds[kind]
        run = MetricsSnapshot(
            counters=counters,
            gauges={"runner.jobs": float(self.jobs),
                    "runner.wall_seconds": wall_seconds},
        )
        log.run_end(
            run,
            analyzed=funnel.analyzed,
            cached=funnel.cached,
            faulted=funnel.faulted,
            wall_seconds=round(wall_seconds, 6),
        )
        self.last_faults = faults
        self.last_metrics = RunMetrics(
            run=run,
            apps={name: snapshots[name] for name in app_names
                  if name in snapshots},
        )
        return self.last_metrics

    def run(
        self,
        kind: str,
        app_names: Sequence[str],
        params: Optional[Dict[str, Any]] = None,
    ) -> Tuple[List[Dict[str, Any]], RunMetrics]:
        """Execute ``kind`` for every app; results follow the input order.

        Returns the payloads and the run's :class:`RunMetrics` -- the
        same object it leaves as :attr:`last_metrics`."""
        if kind not in _TASKS:
            raise ValueError(f"unknown task kind {kind!r}; "
                             f"expected one of {TASK_KINDS}")
        start = time.perf_counter()
        params = self._run_params(params)
        fingerprint = self._fingerprint(params)
        #: this run's own cache hits, misses, stores and quarantines
        tally: Counter = Counter()

        log = self.events if self.events is not None else RunEventLog(())
        log.run_start(kind, app_names, listeners=(
            [self.telemetry.observe] if self.telemetry is not None else []
        ))

        envelopes: Dict[str, Dict[str, Any]] = {}
        snapshots: Dict[str, MetricsSnapshot] = {}

        def landed(name: str, status: str,
                   envelope: Dict[str, Any]) -> None:
            envelopes[name] = envelope
            snapshot = _envelope_snapshot(envelope)
            if snapshot is not None:
                snapshots[name] = snapshot
            log.app_done(name, status, _envelope_duration(envelope),
                         snapshot)

        def narrate(event: str, name: str, payload: Any) -> None:
            """State one pool callback in the log."""
            if event == "start":
                log.app_event(name, "app-start")
            elif event == "retry":
                log.app_event(name, "retry", kind=payload.kind)
            elif event == "fault":
                if payload.kind == "timeout" \
                        and self.policy.timeout is not None:
                    log.app_event(name, "timeout",
                                  seconds=self.policy.timeout)
                log.app_event(name, "fault", kind=payload.kind)
                log.app_done(name, "faulted")
            elif event == "ok":
                landed(name, "analyzed", payload)

        keys: Dict[str, str] = {}
        pending: List[str] = []
        for name in app_names:
            if name in envelopes or name in pending:
                continue  # duplicate input name: analyze once
            if self.cache is not None:
                key = self._key(kind, name, params, fingerprint)
                keys[name] = key
                hit = self.cache.lookup(key, tally)
                if hit is not None:
                    log.app_event(name, "app-start")
                    log.app_event(name, "cache-hit")
                    landed(name, "cached", hit)
                    continue
            pending.append(name)

        faults: Dict[str, Fault] = {}
        if pending:
            try:
                outcome = run_tasks(kind, pending, params, self.jobs,
                                    self.policy, narrate, self.pool)
            except FaultError as exc:
                # fail-fast: the aborting app's fault is already stated;
                # close the run so the stream, the telemetry and
                # last_metrics/last_faults end with it
                self._close_run(log, start, tally, snapshots,
                                app_names, [exc.fault])
                raise
            envelopes.update(outcome.envelopes)
            faults = outcome.faults
            if self.cache is not None:
                for name in pending:
                    # Error envelopes are never cached: a transient
                    # fault must not replay from disk as a permanent one.
                    if name not in faults:
                        self.cache.store(keys[name], envelopes[name], tally)

        metrics = self._close_run(
            log, start, tally, snapshots, app_names,
            [faults[name] for name in app_names if name in faults],
        )
        return [
            envelopes[name]["data"] if "data" in envelopes[name]
            else {"error": envelopes[name]["error"]}
            for name in app_names
        ], metrics
