"""The traced run: per-layer self times and counts, timed from outside.

No tracing lives in the program.  This file re-composes the pipeline
from each layer's public functions, exactly as ``core.analyze_module``
and ``lowering.lower_sources`` compose it (``spec.manifest_for`` for
registry apps, ``k=2``, default detector and filter options), and wraps
every call in a span recorded in memory: name, start, end, parent, and
the app as trace id.  A layer's self time is its spans' time minus the
time of their child spans.

Beside the composition, one traced run also

* runs the workload untraced through ``CorpusRunner(jobs=1)``: the
  reference warnings every other path must reproduce, and the time the
  tracing overhead is measured against;
* runs ``resilience.run_tasks`` at jobs 2 over the same apps;
* replays the workload's cold/warm request sequence against a
  ``ResultCache`` in a temp directory;
* serves the same sequence through a ``repro serve`` child.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from common import (
    median, remove_dir, Result, scratch_dir, warning_keys, WORK,
)
from inputs import (
    App, distinct, generator_config, Golden, paper_apps, generated_apps,
    serve_stream,
)
import serve
from workloads import (
    lifecycle_clock, check_exchanges, make_runner, SERVE_CLIENTS,
)

#: serve-mixed's traced run replays this fixed prefix of its stream
SERVE_TRACE_REQUESTS = 300
#: span name -> per-layer self-time metric
LAYER_TIMES = {
    "corpus.generate": "corpus.generate_s",
    "lang.lex": "lang.lex_s",
    "lang.parse": "lang.parse_s",
    "android.install_framework": "android.framework_s",
    "lowering.lower": "lowering.lower_s",
    "ir.verify": "ir.verify_s",
    "threadify.threadify": "threadify.threadify_s",
    "analysis.pointsto": "analysis.pointsto_s",
    "analysis.lockset": "analysis.lockset_s",
    "race.detect": "race.detect_s",
    "filters.apply": "filters.filter_s",
    "report.render": "report.render_s",
}


class Spans:
    """In-memory span log: ``[name, start, end, parent index, trace id]``."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, trace: str) -> Iterator[int]:
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, trace]
        self.records.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int,
            trace: str) -> None:
        self.records.append([name, start, end, parent, trace])

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (duration minus children)."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.records:
            out[name] += end - start
        for _, start, end, parent, _ in self.records:
            if parent is not None:
                out[self.records[parent][0]] -= end - start
        return dict(out)

    def root_total(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.records
                   if parent is None)

    def to_json(self) -> List[Dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "trace": t}
                for n, s, e, p, t in self.records]


def traced_app(spans: Spans, app: App, counts: Dict[str, int]) -> list:
    """One app through every layer, each call in its own span."""
    from repro import obs
    from repro.analysis.lockset import LocksetAnalysis
    from repro.analysis.pointsto import run_pointsto
    from repro.android.framework import (
        FRAMEWORK_CLASS_NAMES, install_framework,
    )
    from repro.core import AnalysisResult
    from repro.filters import FilterContext, FilterOptions, FilterPipeline
    from repro.filters.sound import SOUND_FILTERS
    from repro.filters.unsound import UNSOUND_FILTERS
    from repro.ir import Module, verify_module
    from repro.lang import parse_program, tokenize
    from repro.lowering import Lowerer
    from repro.race.detector import DetectorOptions, detect_uaf_warnings
    from repro.report import build_app_report, build_report, report_to_json
    from repro.threadify import threadify

    # The parser lexes internally, so lexing is timed on its own first
    # and booked as a child of the parse span: parse self time is
    # parse_program minus tokenize of the same source.
    source = app.load()
    started = time.perf_counter()
    tokens = tokenize(source, app.path)
    lex_s = time.perf_counter() - started

    trace = app.name
    with obs.use(obs.Recorder()), spans.span("app", trace):
        with spans.span("corpus.generate", trace):
            source = app.load()
        with spans.span("lang.parse", trace) as parse:
            program = parse_program(source, app.path)
        spans.add("lang.lex", spans.records[parse][1],
                  spans.records[parse][1] + lex_s, parse, trace)
        module = Module(app.name)
        with spans.span("android.install_framework", trace):
            install_framework(module)
        framework_classes = len(module.classes)
        with spans.span("lowering.lower", trace):
            lowerer = Lowerer(module)
            lowerer.filename = app.path
            lowerer.declare_program(program)
            lowerer.lower_program(program)
        with spans.span("ir.verify", trace):
            problems = verify_module(module,
                                     known_external=FRAMEWORK_CLASS_NAMES)
        methods = sum(len(cls.methods) for cls in module.classes.values())
        manifest = app.spec.manifest_for(module) if app.spec else None
        with spans.span("threadify.threadify", trace):
            threaded = threadify(module, manifest)
        with spans.span("analysis.pointsto", trace):
            pointsto = run_pointsto(threaded.module, k=2)
        with spans.span("analysis.lockset", trace):
            lockset = LocksetAnalysis(threaded.module, pointsto)
        with spans.span("race.detect", trace):
            warnings = detect_uaf_warnings(threaded, pointsto,
                                           DetectorOptions(), lockset)
        with spans.span("filters.apply", trace):
            context = FilterContext(threaded, pointsto, lockset,
                                    FilterOptions())
            filtered = FilterPipeline(context, SOUND_FILTERS,
                                      UNSOUND_FILTERS).apply(warnings)
        with spans.span("report.render", trace):
            text = report_to_json(build_report([build_app_report(
                app.name, AnalysisResult(threaded, pointsto, lockset,
                                         warnings, filtered),
            )]))
    if problems:
        raise RuntimeError(f"{app.name}: IR verification failed")
    counts["lang.tokens"] += len(tokens)
    counts["android.framework_classes"] += framework_classes
    counts["lowering.ir_instructions"] += sum(
        1 for cls in threaded.module.classes.values()
        for method in cls.methods.values() for _ in method.instructions())
    counts["ir.methods_verified"] += methods
    counts["threadify.threads"] += len(threaded.forest)
    counts["race.potential"] += filtered.potential
    counts["filters.remaining"] += filtered.after_unsound
    counts["report.bytes"] += len(text.encode("utf-8"))
    return warnings


def traced_pass(apps: List[App]) -> Tuple[Spans, Dict[str, int],
                                           Dict[str, list]]:
    spans = Spans()
    counts: Dict[str, int] = defaultdict(int)
    warnings = {app.name: traced_app(spans, app, counts) for app in apps}
    return spans, dict(counts), warnings


# -- the workloads' untraced reference -----------------------------------------


def task_for(workload: str, seed: int, apps: List[App]):
    """The runner task kind, params and payload decoder of a workload."""
    from repro.runner import result_data_from_dict
    from repro.runner.serialize import row_from_dict

    if workload == "paper-corpus":
        return ("table1", {"validate": False, "random_attempts": 40,
                           "config": None},
                lambda payload: row_from_dict(payload).result.warnings)
    if workload == "generated-jobs2":
        return ("generated", {"config": None,
                              "generator": generator_config(seed).to_dict()},
                lambda payload: result_data_from_dict(payload).warnings)
    sources = {app.name: [[app.path, app.load()]] for app in apps}
    return ("analyze", {"config": None, "sources": sources},
            lambda payload: result_data_from_dict(payload["result"])
            .warnings)


def compare(result: Result, label: str, reference: Dict[str, list],
            got: Dict[str, list]) -> None:
    for name, warnings in reference.items():
        result.check(name in got and
                     warning_keys(got[name]) == warning_keys(warnings),
                     f"{name}: {label} warnings differ from the untraced run")


def canonical(envelope) -> str:
    """An envelope's content, without the schema stamp the cache adds."""
    return json.dumps({k: v for k, v in envelope.items() if k != "schema"},
                      sort_keys=True)


def replay_cache(result: Result, kind: str, sequence, envelopes) \
        -> Dict[str, Tuple[float, str]]:
    """Time ``ResultCache.lookup``/``store`` over a cold/warm sequence."""
    from repro.runner import cache_key, config_fingerprint, ResultCache

    root = scratch_dir("replay-")
    try:
        cache = ResultCache(root)
        fingerprint = {"config": config_fingerprint(None)}
        lookup_s = store_s = 0.0
        for app, repeat in sequence:
            key = cache_key(kind, app.load(), fingerprint)
            started = time.perf_counter()
            hit = cache.lookup(key)
            lookup_s += time.perf_counter() - started
            if hit is None:
                started = time.perf_counter()
                cache.store(key, envelopes[app.name])
                store_s += time.perf_counter() - started
            result.check(
                (hit is None) != repeat
                and (hit is None or canonical(hit)
                     == canonical(envelopes[app.name])),
                f"{app.name}: cache replay {'missed' if repeat else 'hit'}")
        looked = cache.hits + cache.misses
        return {
            "runner.cache_lookup_s": (lookup_s, "s"),
            "runner.cache_store_s": (store_s, "s"),
            "runner.cache_hit_ratio": (cache.hits / looked, "ratio"),
        }
    finally:
        remove_dir(root)


def run_trace(workload: str, seed: int, seconds: float) -> Result:
    from repro.resilience import FaultPolicy, run_tasks

    result = Result()
    golden: Optional[Golden] = None
    if workload == "serve-mixed":
        stream = serve_stream(seed)
        sequence = [next(stream) for _ in range(SERVE_TRACE_REQUESTS)]
        apps = distinct(sequence)
    else:
        apps = paper_apps(seed) if workload == "paper-corpus" \
            else generated_apps(seed)
        golden = Golden() if workload == "paper-corpus" else None
        sequence = [(app, False) for app in apps] + \
            [(app, True) for app in apps]
    names = [app.name for app in apps]
    kind, params, decode = task_for(workload, seed, apps)

    # untraced reference: the runner at jobs 1 (this first pass also
    # pays the one-time imports and warm-up, so it is not timed)
    clock = lifecycle_clock()
    runner = make_runner(1, clock)

    def untraced_pass():
        """``(wall, summed per-app latency, payloads)`` of one pass."""
        clock.latencies.clear()
        started = time.perf_counter()
        payloads, _ = runner.run(kind, names, params)
        return time.perf_counter() - started, sum(clock.latencies), payloads

    reference = {}
    for name, payload in zip(names, untraced_pass()[2]):
        if result.check("error" not in payload, f"{name}: analysis fault"):
            reference[name] = decode(payload)

    # the pool at jobs 2
    started = time.perf_counter()
    outcome = run_tasks(kind, names, params, 2,
                        FaultPolicy(keep_going=True))
    pool_wall_s = time.perf_counter() - started
    compare(result, "jobs-2 pool", reference, {
        name: decode(env["data"]) for name, env in outcome.envelopes.items()
        if "data" in env})

    # untraced and traced passes in turn for --seconds, so both see the
    # same drift of the host's speed
    untraced: List[Tuple[float, float]] = []
    passes = []
    spent = 0.0
    while spent < seconds or not passes:
        started = time.perf_counter()
        wall, serial, payloads = untraced_pass()
        untraced.append((wall, serial))
        compare(result, "untraced", reference, {
            name: decode(payload) for name, payload in zip(names, payloads)
            if "error" not in payload})
        passes.append(traced_pass(apps))
        spent += time.perf_counter() - started
    for _, counts, warnings in passes:
        compare(result, "traced", reference, warnings)
        result.check(counts == passes[0][1],
                     "traced counts differ between passes")

    layer: Dict[str, Tuple[float, str]] = {}
    self_times = [spans.self_times() for spans, _, _ in passes]
    for span_name, metric in LAYER_TIMES.items():
        layer[metric] = (median(t.get(span_name, 0.0) for t in self_times),
                         "s")
    for name, value in sorted(passes[0][1].items()):
        layer[name] = (value, "bytes" if name == "report.bytes" else "count")
    layer["trace.overhead_s"] = (
        median(spans.root_total() for spans, _, _ in passes)
        - median(wall for wall, _ in untraced), "s")
    layer["resilience.pool_wall_s"] = (pool_wall_s, "s")
    layer["resilience.pool_efficiency"] = (
        median(serial for _, serial in untraced) / (2 * pool_wall_s),
        "ratio")
    layer.update(replay_cache(result, kind, sequence, outcome.envelopes))

    daemon = serve.Daemon()
    try:
        load = serve.drive(daemon, iter(sequence), SERVE_CLIENTS, None)
        layer.update(serve.service_metrics(daemon, load))
    finally:
        result.check(serve.stopped_cleanly(daemon),
                     "daemon did not exit 130 on SIGINT")
    check_exchanges(result, load.exchanges, golden, reference)

    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"trace-{workload}-{seed}.json", "w") as handle:
        json.dump([spans.to_json() for spans, _, _ in passes], handle)
    for name, (value, unit) in layer.items():
        result.metric(name, value, unit)
    return result
