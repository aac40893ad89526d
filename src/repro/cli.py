"""Command-line interface: ``nadroid`` (or ``python -m repro.cli``).

Subcommands:

* ``analyze FILE...``  -- run the full pipeline on MiniDroid sources
* ``explain FILE...``  -- full per-warning provenance (section 7 reports)
* ``diff OLD NEW``     -- compare two report JSONs; the regression gate
* ``simulate FILE...`` -- execute an app under a random event schedule
* ``corpus``           -- Table 1 over the 27-app corpus
* ``corpus generate``  -- write a seeded generated corpus with
  ground-truth labels (``docs/corpus.md``)
* ``corpus score``     -- analyze a generated corpus and grade the
  pipeline against its labels (recall/precision gates)
* ``figure5``          -- filter-effectiveness study
* ``table2``           -- injected false-negative study
* ``table3``           -- DEvA comparison
* ``timing``           -- section 8.8 stage breakdown
* ``hotspots``         -- top-K hotspot attribution table (per-(method,
  context) work inside the points-to fixpoint)
* ``events summarize`` -- funnel + latency digest of an
  ``--events-out`` JSONL stream
* ``bench``            -- corpus benchmark writing ``BENCH_<date>.json``;
  ``--compare OLD.json`` turns it into the perf regression gate
  (``docs/performance.md``): exit 4 on work-counter or wall-time
  regressions against the baseline; ``--generated N`` benchmarks a
  seeded generated corpus instead of the registry apps;
  ``--history DIR`` appends the run to a history directory and
  ``bench trend DIR`` charts it, exiting 4 on monotone drift
* ``serve``            -- long-running analysis daemon: JSON job API +
  telemetry on one loopback port (``docs/service.md``)
* ``cache prune``      -- sweep quarantined (or all) result-cache entries

Observability (``docs/observability.md``): every corpus subcommand and
``analyze`` accept ``--trace`` (span tree on stderr), ``--metrics-out
PATH`` (deterministic JSON) and ``--trace-out PATH`` (Chrome
trace-event / Perfetto JSON timeline).  Corpus subcommands also accept
``--events-out PATH`` (structured JSONL event stream, tail-able
mid-run; ``events summarize [--json]`` digests it and ``events
to-trace`` converts it to a timeline), ``--progress`` (opt-in stderr
progress line per finished app), ``--memory`` (tracemalloc peak gauges
per stage and app) and ``--serve-telemetry PORT`` (live 127.0.0.1-only
HTTP endpoint: Prometheus ``/metrics``, ``/healthz``, ``/progress``
JSON).  ``hotspots --flame PATH`` writes collapsed-stack flamegraph
input.  Observability output never touches stdout, which stays
byte-stable across ``--jobs`` settings.

Reporting (``docs/reporting.md``): ``analyze``, ``explain`` and
``corpus`` accept ``--report-out PATH`` (deterministic report JSON) and
``--sarif-out PATH`` (SARIF 2.1.0); ``diff`` compares two report files
and exits non-zero under ``--fail-on-new`` when a regression appears.

Fault tolerance (``docs/robustness.md``): every corpus subcommand
accepts ``--timeout SECS``, ``--max-retries N`` and
``--keep-going``/``--fail-fast``.  Under ``--keep-going`` one
pathological app costs one structured fault entry while the others
complete, and the process exits with code 3.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List


class CliError(Exception):
    """A user-facing error: printed as one line, exit code 2."""


def _read_sources(paths: List[str]):
    sources = []
    for p in paths:
        try:
            sources.append((p, Path(p).read_text()))
        except OSError as exc:
            reason = exc.strerror or str(exc)
            raise CliError(f"cannot read {p}: {reason}") from exc
    return sources


def _write_artifact(tag: str, what: str, path: str, write) -> None:
    """Write one output artifact with ``write(path)``, then say so on
    stderr; an unwritable path is a one-line :class:`CliError`."""
    try:
        write(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise CliError(f"cannot write {what} to {path}: {reason}") from exc
    print(f"[{tag}] wrote {path}", file=sys.stderr)


def _open_cache(args: argparse.Namespace):
    """The result cache the --cache-dir/--no-cache flags ask for."""
    from .runner import default_cache_dir, ResultCache

    if args.no_cache:
        return None
    cache_dir = Path(args.cache_dir) if args.cache_dir \
        else default_cache_dir()
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise CliError(
            f"cannot use cache directory {cache_dir}: {reason}"
        ) from exc
    return ResultCache(cache_dir)


def _fault_policy(args: argparse.Namespace, keep_going: bool):
    """The fault policy of the --timeout/--max-retries flags."""
    from .resilience import FaultPolicy

    timeout = getattr(args, "timeout", None)
    max_retries = getattr(args, "max_retries", 1)
    if timeout is not None and timeout <= 0:
        raise CliError("--timeout must be a positive number of seconds")
    if max_retries < 0:
        raise CliError("--max-retries must be >= 0")
    return FaultPolicy(timeout=timeout, max_retries=max_retries,
                       keep_going=keep_going)


def _make_runner(args: argparse.Namespace):
    """Build the corpus runner from the shared --jobs/--cache/fault flags."""
    from .runner import CorpusRunner

    cache = _open_cache(args)
    policy = _fault_policy(args, getattr(args, "keep_going", False))
    sinks = []
    events_out = getattr(args, "events_out", None)
    if events_out:
        from .obs import JsonlEventSink

        try:
            # fail before the run starts, not at the first event
            open(events_out, "w", encoding="utf-8").close()
        except OSError as exc:
            reason = exc.strerror or str(exc)
            raise CliError(
                f"cannot write events to {events_out}: {reason}"
            ) from exc
        sinks.append(JsonlEventSink(events_out))
    if getattr(args, "progress", False):
        from .obs import ProgressSink

        sinks.append(ProgressSink(sys.stderr))
    if getattr(args, "trace_out", None):
        from .obs import MemoryEventSink

        # retain the stream in memory so the Chrome trace can carry the
        # run's instant events alongside the span lanes
        args._trace_events = MemoryEventSink()
        sinks.append(args._trace_events)
    events = None
    if sinks:
        from .obs import RunEventLog

        events = RunEventLog(sinks)
    # remembered so main() can close the sinks even on a faulted run
    args._events_log = events
    telemetry = _make_telemetry(args)
    return CorpusRunner(jobs=args.jobs, cache=cache, policy=policy,
                        events=events,
                        memory=getattr(args, "memory", False),
                        telemetry=telemetry)


def _make_telemetry(args: argparse.Namespace):
    """Honor --serve-telemetry: start the live endpoint before the run.

    Returns the :class:`repro.obs.LiveAggregator` to attach to the
    runner (or ``None``).  The server binds 127.0.0.1 only and is shut
    down by main() after the run, even on faults.
    """
    port = getattr(args, "serve_telemetry", None)
    if port is None:
        return None
    if not 0 <= port <= 65535:
        raise CliError("--serve-telemetry must be a port number (0-65535; "
                       "0 picks a free port)")
    from .obs import LiveAggregator, TelemetryServer

    aggregator = LiveAggregator()
    server = TelemetryServer(aggregator, port=port)
    try:
        server.start()
    except OSError as exc:
        reason = getattr(exc, "strerror", None) or str(exc)
        raise CliError(
            f"cannot serve telemetry on port {port}: {reason}"
        ) from exc
    args._telemetry_server = server
    # machine-readable: scripts parse host:port out of "listening on"
    print(f"[telemetry] listening on 127.0.0.1:{server.port} "
          f"(/metrics /healthz /progress)", file=sys.stderr, flush=True)
    return aggregator


def _corpus_apps(args: argparse.Namespace):
    """Resolve an optional --apps subset against the registry."""
    from .corpus import app, UnknownAppError

    if not getattr(args, "apps", None):
        return None
    try:
        return [app(name) for name in args.apps]
    except UnknownAppError as exc:
        # the registry error already names the bad entry and the known apps
        raise CliError(str(exc)) from exc


def _report_stats(runner) -> None:
    """Fan-out/cache statistics go to stderr so stdout stays byte-stable
    across --jobs settings; the line is rendered from the run's metrics
    snapshot rather than hand-formatted."""
    from .obs import describe_run

    print(f"[runner] {describe_run(runner.last_metrics.run)}",
          file=sys.stderr)


#: exit code for "the run completed, but some apps faulted" (--keep-going)
EXIT_FAULTS = 3

#: exit code for "interrupted by Ctrl-C" (128 + SIGINT, the shell idiom)
EXIT_INTERRUPTED = 130


def _report_faults(runner) -> int:
    """Print one stderr line per app-level fault; return the exit code
    contribution (EXIT_FAULTS when any app faulted, else 0)."""
    if not runner.last_faults:
        return 0
    for fault in runner.last_faults:
        print(f"[fault] {fault.describe()}", file=sys.stderr)
    return EXIT_FAULTS


def _emit_observability(args, runner) -> None:
    """Honor --trace / --metrics-out for a runner-driven subcommand."""
    metrics = runner.last_metrics
    if getattr(args, "trace", False):
        from .obs import render_spans

        for snapshot in metrics.apps.values():
            rendered = render_spans(snapshot.spans)
            if rendered:
                print(rendered, file=sys.stderr)
    out = getattr(args, "metrics_out", None)
    if out:
        from .obs import write_json

        payload = {
            "run": metrics.run.to_dict(),
            "apps": {
                name: snapshot.to_dict()
                for name, snapshot in metrics.apps.items()
            },
            "totals": metrics.totals().to_dict(),
        }
        _write_artifact("obs", "metrics", out,
                        lambda path: write_json(path, payload))
    out = getattr(args, "trace_out", None)
    if out:
        from .obs import chrome_trace, write_trace

        sink = getattr(args, "_trace_events", None)
        trace = chrome_trace(
            metrics.apps,
            events=sink.records if sink is not None else None,
        )
        _write_artifact("trace", "trace", out,
                        lambda path: write_trace(path, trace))


def _emit_report_outputs(args, report) -> None:
    """Honor --report-out / --sarif-out for an AnalysisReport."""
    for key, flag in (("trace", "trace_out"), ("events", "events_out"),
                      ("metrics", "metrics_out")):
        value = getattr(args, flag, None)
        if value:
            # pointers only: the run report records *where* the sibling
            # artifacts went, never their contents
            report.artifacts[key] = str(value)
    out = getattr(args, "report_out", None)
    if out:
        from .report import write_report

        _write_artifact("report", "report", out,
                        lambda path: write_report(report, path))
    out = getattr(args, "sarif_out", None)
    if out:
        from .report import write_sarif

        _write_artifact("sarif", "SARIF", out,
                        lambda path: write_sarif(report, path))


def _analyze_files(args: argparse.Namespace, **params):
    """Analyze ``args.files`` as one ``analyze`` task (the daemon's) on a
    serial, uncached, fail-fast runner, as a runner-less paper driver
    does.  Returns the task payload, its ``ResultData``, the report and
    the app's metrics snapshot.  A fault exits 2 as one line; a parse
    fault prints just its ``<file>:<line>:<col>:`` diagnostic."""
    from .core import AnalysisConfig
    from .resilience import FaultError
    from .runner import CorpusRunner
    from .runner.serialize import result_data_from_dict
    from .service.jobs import SINGLE_APP_NAME, single_app_report

    # task params are set only when used, like the runner's "memory"
    params = {name: value for name, value in params.items() if value}
    params["config"] = AnalysisConfig(k=args.k)
    params["sources"] = {SINGLE_APP_NAME: _read_sources(args.files)}
    runner = CorpusRunner(memory=getattr(args, "memory", False))
    try:
        payloads, metrics = runner.run("analyze", [SINGLE_APP_NAME], params)
    except FaultError as exc:
        if exc.fault.kind == "parse":
            raise CliError(exc.fault.message) from exc
        raise
    payload = payloads[0]
    result = result_data_from_dict(payload["result"])
    snapshot = metrics.apps[SINGLE_APP_NAME]
    report = single_app_report(result, source=args.files[0],
                               metrics=snapshot)
    return payload, result, report, snapshot


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import obs

    payload, result, report, snapshot = _analyze_files(
        args, validate=args.validate, profile_stages=args.profile_stage)
    if args.trace:
        print(obs.render_spans(snapshot.spans), file=sys.stderr)
        print(obs.render_metrics(snapshot), file=sys.stderr)
    if args.hotspots:
        entries = obs.collect_hotspots([snapshot])
        print(obs.render_hotspots(entries, top=args.hotspots),
              file=sys.stderr)
    if args.profile_stage:
        for root in snapshot.spans:
            for node in obs.Span.from_dict(root).walk():
                profile = node.attrs.get("profile")
                if profile:
                    print(f"[profile] {node.name}\n{profile}",
                          file=sys.stderr)
    if args.metrics_out:
        _write_artifact("obs", "metrics", args.metrics_out,
                        lambda path: obs.write_json(path, snapshot.to_dict()))
    if args.trace_out:
        from .obs import chrome_trace, write_trace

        _write_artifact(
            "trace", "trace", args.trace_out,
            lambda path: write_trace(path, chrome_trace({"app": snapshot})),
        )
    _emit_report_outputs(args, report)
    counts = result.counts()
    print(f"modeled threads : EC={counts['EC']} PC={counts['PC']} "
          f"T={counts['T']}")
    print(f"potential UAFs  : {counts['potential']}")
    print(f"after sound     : {counts['after_sound']}")
    print(f"after unsound   : {counts['after_unsound']}")
    by_type = {k: v for k, v in result.by_pair_type().items() if v}
    if by_type:
        print(f"origin split    : {by_type}")
    print()
    remaining = result.remaining()
    verdicts = payload.get("validation", [None] * len(remaining))
    for warning, verdict in zip(remaining, verdicts):
        print(warning.describe())
        if verdict is not None:
            status = "CONFIRMED harmful" if verdict["confirmed"] \
                else "not confirmed (possible false positive)"
            print(f"  dynamic check: {status} "
                  f"({verdict['schedules_tried']} schedules)")
        print()
    return 1 if remaining else 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .report import render_app_explanations

    _, _, report, _ = _analyze_files(args)
    app_report = report.apps["app"]
    by_status = {s: len(ws) for s, ws in app_report.by_status().items()}
    print(f"{len(app_report.warnings)} potential warning(s): "
          f"{by_status['remaining']} remaining, "
          f"{by_status['downgraded']} downgraded, "
          f"{by_status['pruned']} pruned")
    text = render_app_explanations(
        app_report, statuses=args.status or None
    )
    if text:
        print()
        print(text)
    _emit_report_outputs(args, report)
    return 1 if by_status["remaining"] else 0


def cmd_diff(args: argparse.Namespace) -> int:
    from .report import (
        diff_reports, exit_code, load_report, render_diff, REPORT_SCHEMA,
    )

    payloads = []
    for path in (args.old, args.new):
        try:
            payload = load_report(path)
        except OSError as exc:
            reason = exc.strerror or str(exc)
            raise CliError(f"cannot read {path}: {reason}") from exc
        except ValueError as exc:
            raise CliError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) \
                or payload.get("schema") != REPORT_SCHEMA:
            raise CliError(
                f"{path} is not a nadroid report "
                f"(expected schema {REPORT_SCHEMA})"
            )
        payloads.append(payload)
    diff = diff_reports(payloads[0], payloads[1])
    print(render_diff(diff))
    return exit_code(diff, args.fail_on_new)


def cmd_simulate(args: argparse.Namespace) -> int:
    from .lowering import compile_app
    from .runtime import RandomScheduler, Simulator
    from .threadify import threadify

    module = compile_app(_read_sources(args.files), seal=False)
    program = threadify(module)
    sim = Simulator(program.module, program.manifest)
    sim.run(RandomScheduler(args.seed), max_decisions=args.max_decisions)
    print(f"executed {sim.total_steps} decisions "
          f"({len(sim.trace)} events dispatched)")
    for line in sim.trace:
        print("  " + line)
    if sim.exceptions:
        print("exceptions:")
        for exc in sim.exceptions:
            print(f"  {exc}")
        return 1
    print("no exceptions raised")
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    from .harness import (
        fp_totals, render_table1, run_table1, save_result_analysis,
        total_true_harmful,
    )

    runner = _make_runner(args)
    rows = run_table1(
        validate=args.validate, apps=_corpus_apps(args), runner=runner
    )
    _report_stats(runner)
    _emit_observability(args, runner)
    per_app = runner.last_metrics.apps
    if args.report_out or args.sarif_out:
        from .report import build_app_report, build_report, fault_app_report

        # Faulted apps have no row but still get a report entry carrying
        # their structured fault record, so the run report always has
        # one entry per input app.
        report = build_report([
            build_app_report(
                row.app.name, row.result,
                metrics=per_app.get(row.app.name),
            )
            for row in rows
        ] + [
            fault_app_report(fault.to_dict())
            for fault in runner.last_faults
        ])
        _emit_report_outputs(args, report)
    print(render_table1(rows))
    if args.validate:
        print(f"\ntrue harmful UAFs: {total_true_harmful(rows)}")
        print(f"false positives by category: {fp_totals(rows)}")
    if args.csv:
        save_result_analysis(
            rows,
            {name: snapshot.stage_seconds()
             for name, snapshot in per_app.items()},
            args.csv,
        )
        print(f"\nwrote {args.csv}")
    return _report_faults(runner)


def _generator_config(args: argparse.Namespace):
    """Build (and validate) a GeneratorConfig from the generate/score flags."""
    from .corpus import GeneratorConfig

    if args.count <= 0:
        raise CliError("--count must be a positive number of apps")
    if args.min_patterns < 1 or args.max_patterns < args.min_patterns:
        raise CliError(
            "--min-patterns/--max-patterns must satisfy 1 <= min <= max"
        )
    if not 0.0 <= args.clean_ratio <= 1.0:
        raise CliError("--clean-ratio must be between 0 and 1")
    if args.max_filler_classes < 0:
        raise CliError("--max-filler-classes must be >= 0")
    return GeneratorConfig(
        seed=args.seed,
        count=args.count,
        min_patterns=args.min_patterns,
        max_patterns=args.max_patterns,
        clean_ratio=args.clean_ratio,
        max_filler_classes=args.max_filler_classes,
    )


def cmd_corpus_generate(args: argparse.Namespace) -> int:
    from .corpus import generate_corpus, label_manifest
    from .obs import write_json

    gconfig = _generator_config(args)
    apps = generate_corpus(gconfig)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for app in apps:
            (out / f"{app.name}.mjava").write_text(app.source)
        manifest_path = Path(args.manifest_out) if args.manifest_out \
            else out / "labels.json"
        write_json(str(manifest_path), label_manifest(gconfig, apps))
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise CliError(f"cannot write generated corpus: {reason}") from exc
    labels = sum(len(app.labels) for app in apps)
    clean = sum(1 for app in apps if app.clean)
    print(f"generated {len(apps)} apps ({labels} labels, {clean} clean) "
          f"in {out}")
    print(f"ground-truth manifest: {manifest_path}")
    return 0


def cmd_corpus_score(args: argparse.Namespace) -> int:
    from .harness import run_generated
    from .report import render_score, score_generated

    for name, value in (("--fail-under-recall", args.fail_under_recall),
                        ("--fail-under-precision",
                         args.fail_under_precision)):
        if value is not None and not 0.0 <= value <= 1.0:
            raise CliError(f"{name} must be between 0 and 1")
    gconfig = _generator_config(args)
    runner = _make_runner(args)
    apps, results = run_generated(runner, gconfig)
    _report_stats(runner)
    _emit_observability(args, runner)
    report = score_generated(apps, results)
    print(render_score(report))
    if args.score_out:
        from .obs import write_json

        _write_artifact("score", "score report", args.score_out,
                        lambda path: write_json(path, report.to_dict()))
    code = _report_faults(runner)
    if args.fail_under_recall is not None \
            and report.recall < args.fail_under_recall:
        print(f"[score] gate: recall {report.recall:.3f} < "
              f"{args.fail_under_recall}", file=sys.stderr)
        code = max(code, 1)
    if args.fail_under_precision is not None \
            and report.precision < args.fail_under_precision:
        print(f"[score] gate: precision {report.precision:.3f} < "
              f"{args.fail_under_precision}", file=sys.stderr)
        code = max(code, 1)
    return code


def cmd_nosleep(args: argparse.Namespace) -> int:
    from .analysis import run_pointsto
    from .extensions import detect_nosleep
    from .lowering import compile_app
    from .threadify import threadify

    module = compile_app(_read_sources(args.files), seal=False)
    program = threadify(module)
    pointsto = run_pointsto(program.module)
    warnings = detect_nosleep(program, pointsto)
    if not warnings:
        print("no no-sleep risks found")
        return 0
    for warning in warnings:
        print(warning.describe(program))
        print()
    return 1


def cmd_paper_driver(args: argparse.Namespace) -> int:
    """figure5/table2/table3/timing: ``harness.run_<driver>`` through the
    runner, then ``harness.render_<driver>`` of its data on stdout."""
    from . import harness

    runner = _make_runner(args)
    data = getattr(harness, f"run_{args.driver}")(runner=runner)
    _report_stats(runner)
    _emit_observability(args, runner)
    print(getattr(harness, f"render_{args.driver}")(data))
    return _report_faults(runner)


def cmd_hotspots(args: argparse.Namespace) -> int:
    from .harness import run_table1_metrics
    from .obs import collect_hotspots, render_hotspots

    if args.top <= 0:
        raise CliError("--top must be a positive number of rows")
    runner = _make_runner(args)
    # the same per-app work (and cache entries) as ``repro corpus``
    metrics = run_table1_metrics(apps=_corpus_apps(args), runner=runner)
    _report_stats(runner)
    _emit_observability(args, runner)
    entries = collect_hotspots(metrics.apps.values())
    if args.flame:
        from .obs import collapsed_stacks

        stacks = collapsed_stacks(metrics.apps.values())
        _write_artifact(
            "flame", "flamegraph stacks", args.flame,
            lambda path: Path(path).write_text(stacks, encoding="utf-8"),
        )
    print(render_hotspots(entries, top=args.top))
    return _report_faults(runner)


def _read_event_stream(path: str):
    from .obs import read_events

    try:
        return read_events(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise CliError(f"cannot read {path}: {reason}") from exc
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_events(args: argparse.Namespace) -> int:
    import json

    from .obs import render_events_summary, summarize_events

    records = _read_event_stream(args.path)
    summary = summarize_events(records)
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        print(render_events_summary(summary))
    return 0


def cmd_events_to_trace(args: argparse.Namespace) -> int:
    from .obs import trace_from_events, write_trace

    records = _read_event_stream(args.path)
    trace = trace_from_events(records)
    _write_artifact("trace", "trace", args.out,
                    lambda path: write_trace(path, trace))
    return 0


#: exit code for "the bench compare gate found a perf regression"
EXIT_BENCH_REGRESSION = 4


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .harness import (
        BENCH_SCHEMA, compare_bench, default_bench_path, has_regressions,
        render_compare, run_bench, run_generated_bench, write_bench,
    )

    # Bench measures; a warm cache would replay old durations.  Only use
    # the cache when the user explicitly points at one.
    if not args.cache_dir:
        args.no_cache = True
    if args.compare_time_tolerance < 0:
        raise CliError("--compare-time-tolerance must be >= 0")
    if args.generated is not None:
        if args.apps:
            raise CliError("--generated and --apps are mutually exclusive")
        if args.generated <= 0:
            raise CliError("--generated must be a positive number of apps")
    baseline = None
    if args.compare:
        # load (and validate) the baseline before the expensive run
        try:
            baseline = json.loads(Path(args.compare).read_text())
        except OSError as exc:
            reason = exc.strerror or str(exc)
            raise CliError(f"cannot read {args.compare}: {reason}") from exc
        except ValueError as exc:
            raise CliError(
                f"{args.compare} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(baseline, dict) \
                or baseline.get("schema") != BENCH_SCHEMA:
            raise CliError(
                f"{args.compare} is not a nadroid benchmark "
                f"(expected schema {BENCH_SCHEMA})"
            )
    runner = _make_runner(args)
    if args.generated is not None:
        from .corpus import GeneratorConfig

        payload = run_generated_bench(
            runner, GeneratorConfig(seed=args.seed, count=args.generated)
        )
    else:
        payload = run_bench(runner, apps=_corpus_apps(args))
    _report_stats(runner)
    _emit_observability(args, runner)
    _write_artifact("bench", "benchmark", args.out or default_bench_path(),
                    lambda path: write_bench(payload, path))
    if args.history:
        from .harness import append_history

        try:
            history_path = append_history(payload, args.history)
        except OSError as exc:
            reason = exc.strerror or str(exc)
            raise CliError(
                f"cannot append to history {args.history}: {reason}"
            ) from exc
        print(f"[bench] appended {history_path}", file=sys.stderr)
    code = _report_faults(runner)
    if baseline is not None:
        comparison = compare_bench(
            baseline, payload,
            time_tolerance=args.compare_time_tolerance,
        )
        print(render_compare(comparison))
        if has_regressions(comparison):
            code = max(code, EXIT_BENCH_REGRESSION)
    return code


def cmd_bench_trend(args: argparse.Namespace) -> int:
    from .harness import (
        check_comparable, detect_drift, load_history, render_trend,
    )

    if args.window < 2:
        raise CliError("--window must be at least 2 runs")
    if args.time_tolerance < 0:
        raise CliError("--time-tolerance must be >= 0")
    try:
        history = load_history(args.history_dir)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not history:
        raise CliError(
            f"bench trend: no BENCH_*.json runs in {args.history_dir}"
        )
    error = check_comparable(history)
    if error is not None:
        raise CliError(error)
    drifts = detect_drift(history, window=args.window,
                          time_tolerance=args.time_tolerance)
    print(render_trend(history, drifts))
    return EXIT_BENCH_REGRESSION if drifts else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis daemon (docs/service.md) until interrupted."""
    from .obs import LiveAggregator
    from .service import AnalysisService, DEFAULT_QUEUE_LIMIT, ServiceServer

    if not 0 <= args.port <= 65535:
        raise CliError("--port must be a port number (0-65535; 0 picks "
                       "a free port)")
    if args.jobs < 1:
        raise CliError("--jobs must be >= 1")
    policy = _fault_policy(args, keep_going=True)
    queue_limit = args.queue_limit if args.queue_limit is not None \
        else DEFAULT_QUEUE_LIMIT
    if queue_limit < 1:
        raise CliError("--queue-limit must be >= 1")
    cache = _open_cache(args)
    aggregator = LiveAggregator()
    service = AnalysisService(
        jobs=args.jobs,
        cache=cache,
        policy=policy,
        telemetry=aggregator,
        queue_limit=queue_limit,
    )
    server = ServiceServer(service, aggregator=aggregator, port=args.port)
    try:
        server.bind()
    except OSError as exc:
        reason = getattr(exc, "strerror", None) or str(exc)
        raise CliError(
            f"cannot serve on port {args.port}: {reason}"
        ) from exc
    # machine-readable: scripts parse host:port out of "listening on"
    print(f"[serve] listening on 127.0.0.1:{server.port} "
          f"(POST /v1/analyze /v1/batch; GET /v1/jobs "
          f"/metrics /healthz /progress)", file=sys.stderr, flush=True)
    try:
        # foreground, so SIGINT lands here as KeyboardInterrupt and
        # main() turns it into exit 130
        server.serve_forever()
    finally:
        server.close()
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .runner import default_cache_dir, ResultCache

    cache_dir = Path(args.cache_dir) if args.cache_dir \
        else default_cache_dir()
    if args.cache_command == "prune":
        if not cache_dir.is_dir():
            print(f"[cache] {cache_dir} does not exist; nothing to prune",
                  file=sys.stderr)
            return 0
        cache = ResultCache(cache_dir)
        removed = cache.prune(everything=args.all)
        what = "entries" if args.all else "quarantined entries"
        print(f"[cache] pruned {removed} {what} from {cache_dir}",
              file=sys.stderr)
        return 0
    raise CliError(f"unknown cache command {args.cache_command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nadroid",
        description="nAdroid (CGO'18) reproduction: static ordering-"
                    "violation detection for Android-style programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_report_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--report-out", metavar="PATH",
                       help="write the full warning report (witnesses, "
                            "lineage, metrics) as JSON to PATH")
        p.add_argument("--sarif-out", metavar="PATH",
                       help="write remaining + downgraded warnings as "
                            "SARIF 2.1.0 to PATH")

    p = sub.add_parser("analyze", help="analyze MiniDroid sources")
    p.add_argument("files", nargs="+", help="MiniDroid (.mjava) source files")
    p.add_argument("--k", type=int, default=2,
                   help="k for k-object-sensitive points-to (default 2)")
    p.add_argument("--validate", action="store_true",
                   help="dynamically confirm surviving warnings")
    p.add_argument("--trace", action="store_true",
                   help="print the stage span tree and metrics to stderr")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the metrics snapshot as JSON to PATH")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write the stage span tree as a Chrome "
                        "trace-event / Perfetto JSON timeline to PATH")
    p.add_argument("--profile-stage", action="append", metavar="STAGE",
                   help="cProfile a pipeline stage (e.g. pointsto, "
                        "detect); repeatable; report goes to stderr")
    p.add_argument("--hotspots", type=int, default=None, metavar="K",
                   help="print the top-K hotspot attribution table "
                        "(per-(method, context) work) to stderr")
    p.add_argument("--memory", action="store_true",
                   help="record tracemalloc peak-memory gauges per "
                        "pipeline stage")
    _add_report_flags(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "explain",
        help="explain every warning: lineage, witnesses, filter trail",
    )
    p.add_argument("files", nargs="+", help="MiniDroid (.mjava) source files")
    p.add_argument("--k", type=int, default=2,
                   help="k for k-object-sensitive points-to (default 2)")
    p.add_argument("--status", action="append", metavar="STATUS",
                   choices=("remaining", "downgraded", "pruned"),
                   help="only explain warnings with this status "
                        "(repeatable; default: all)")
    _add_report_flags(p)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser(
        "diff",
        help="diff two report JSONs (the regression gate)",
    )
    p.add_argument("old", help="baseline report JSON (e.g. the golden file)")
    p.add_argument("new", help="candidate report JSON")
    p.add_argument("--fail-on-new", action="store_true",
                   help="exit 1 when NEW has remaining warnings that OLD "
                        "did not (new or changed-to-remaining)")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("simulate", help="run an app under a random schedule")
    p.add_argument("files", nargs="+")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-decisions", type=int, default=2000)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "nosleep",
        help="detect no-sleep energy bugs (the section 9 extension)",
    )
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_nosleep)

    def _add_runner_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="analyze N apps in parallel worker processes "
                            "(default 1 = serial)")
        p.add_argument("--cache-dir", metavar="PATH",
                       help="result cache directory (default: "
                            "$NADROID_CACHE_DIR or ~/.cache/nadroid)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the result cache for this run")
        p.add_argument("--trace", action="store_true",
                       help="print per-app span trees to stderr (worker "
                            "spans nest under each app's root)")
        p.add_argument("--metrics-out", metavar="PATH",
                       help="write run + per-app metrics as JSON to PATH")
        p.add_argument("--trace-out", metavar="PATH",
                       help="write a Chrome trace-event / Perfetto JSON "
                            "timeline of the run (one process lane per "
                            "app) to PATH; open with ui.perfetto.dev or "
                            "chrome://tracing")
        p.add_argument("--serve-telemetry", type=int, default=None,
                       metavar="PORT",
                       help="serve live run telemetry on "
                            "http://127.0.0.1:PORT while the run lasts "
                            "(/metrics Prometheus text, /healthz, "
                            "/progress JSON); PORT 0 picks a free port, "
                            "printed to stderr")
        p.add_argument("--events-out", metavar="PATH",
                       help="write the structured run event stream as "
                            "JSONL to PATH (flushed per event, so the "
                            "file can be tailed mid-run)")
        p.add_argument("--progress", action="store_true",
                       help="print a [progress] line to stderr per "
                            "finished app (off by default: stderr stays "
                            "byte-stable without it)")
        p.add_argument("--memory", action="store_true",
                       help="record tracemalloc peak-memory gauges "
                            "(mem.app.peak_kb, mem.stage.*.peak_kb) in "
                            "every worker; changes the cache key")
        p.add_argument("--timeout", type=float, default=None,
                       metavar="SECS",
                       help="per-app deadline: overrunning workers are "
                            "killed and recorded as a timeout fault")
        p.add_argument("--max-retries", type=int, default=1, metavar="N",
                       help="re-submissions for transient faults (a lost "
                            "worker process; default 1); deterministic "
                            "faults are never retried")
        going = p.add_mutually_exclusive_group()
        going.add_argument("--keep-going", action="store_true",
                           help="record per-app faults and finish the "
                                "remaining apps (exit code 3 when any "
                                "app faulted)")
        going.add_argument("--fail-fast", dest="keep_going",
                           action="store_false",
                           help="abort the run on the first app-level "
                                "fault (default)")

    p = sub.add_parser(
        "corpus",
        help="Table 1 over the 27-app corpus; `corpus generate` / "
             "`corpus score` drive the seeded app generator",
    )
    p.add_argument("--validate", action="store_true")
    p.add_argument("--csv", metavar="PATH",
                   help="also write a ResultAnalysis.csv-style file")
    p.add_argument("--apps", nargs="+", metavar="NAME",
                   help="restrict to these corpus apps (default: all 27)")
    _add_runner_flags(p)
    _add_report_flags(p)
    p.set_defaults(fn=cmd_corpus)

    def _add_generator_flags(pp: argparse.ArgumentParser) -> None:
        pp.add_argument("--seed", type=int, default=42,
                        help="generator seed (default 42); the same seed "
                             "reproduces byte-identical apps and labels")
        pp.add_argument("--count", type=int, default=20, metavar="N",
                        help="number of apps to generate (default 20)")
        pp.add_argument("--min-patterns", type=int, default=1, metavar="N",
                        help="min injected patterns per non-clean app "
                             "(default 1)")
        pp.add_argument("--max-patterns", type=int, default=4, metavar="N",
                        help="max injected patterns per non-clean app "
                             "(default 4)")
        pp.add_argument("--clean-ratio", type=float, default=0.25,
                        metavar="FRAC",
                        help="fraction of apps generated with no injection "
                             "at all (default 0.25)")
        pp.add_argument("--max-filler-classes", type=int, default=2,
                        metavar="N",
                        help="up to N inert filler classes per app "
                             "(default 2)")

    corpus_sub = p.add_subparsers(dest="corpus_command",
                                  metavar="SUBCOMMAND")
    pp = corpus_sub.add_parser(
        "generate",
        help="write a seeded generated corpus (.mjava sources + "
             "ground-truth label manifest) to a directory",
    )
    _add_generator_flags(pp)
    pp.add_argument("--out", metavar="DIR", required=True,
                    help="directory for the generated .mjava sources")
    pp.add_argument("--manifest-out", metavar="PATH",
                    help="label manifest path (default: DIR/labels.json)")
    pp.set_defaults(fn=cmd_corpus_generate)

    pp = corpus_sub.add_parser(
        "score",
        help="analyze a seeded generated corpus and grade the pipeline "
             "against its ground-truth labels",
    )
    _add_generator_flags(pp)
    pp.add_argument("--score-out", metavar="PATH",
                    help="write the score report as JSON to PATH")
    pp.add_argument("--fail-under-recall", type=float, default=None,
                    metavar="FRAC",
                    help="exit 1 when recall over injected labels falls "
                         "below FRAC (e.g. 1.0)")
    pp.add_argument("--fail-under-precision", type=float, default=None,
                    metavar="FRAC",
                    help="exit 1 when precision over surviving warnings "
                         "falls below FRAC")
    _add_runner_flags(pp)
    pp.set_defaults(fn=cmd_corpus_score)

    for name, help_text in (
        ("figure5", "filter effectiveness (Figure 5)"),
        ("table2", "injected false-negative study (Table 2)"),
        ("table3", "DEvA comparison (Table 3)"),
        ("timing", "stage time breakdown (section 8.8)"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_runner_flags(p)
        p.set_defaults(fn=cmd_paper_driver, driver=name)

    p = sub.add_parser(
        "hotspots",
        help="top-K hotspot attribution over the corpus: which "
             "points-to (method, context) pairs do the work",
    )
    p.add_argument("--apps", nargs="+", metavar="NAME",
                   help="restrict to these corpus apps (default: all 27)")
    p.add_argument("--top", type=int, default=20, metavar="K",
                   help="rows in the table (default 20)")
    p.add_argument("--flame", metavar="PATH",
                   help="also write collapsed-stack lines (span "
                        "self-time plus hotspot counters, flamegraph.pl "
                        "/ speedscope input) to PATH")
    _add_runner_flags(p)
    p.set_defaults(fn=cmd_hotspots)

    p = sub.add_parser(
        "events",
        help="read an --events-out JSONL stream",
    )
    events_sub = p.add_subparsers(dest="events_command", required=True)
    pp = events_sub.add_parser(
        "summarize",
        help="print the run funnel and p50/p95/max per-app latency",
    )
    pp.add_argument("path", help="events JSONL file (from --events-out)")
    pp.add_argument("--json", action="store_true",
                    help="print the summary as JSON instead of the "
                         "human-readable digest")
    pp.set_defaults(fn=cmd_events)
    pp = events_sub.add_parser(
        "to-trace",
        help="convert an event stream into a Chrome trace-event / "
             "Perfetto JSON timeline (real wall-clock lanes, one thread "
             "per app)",
    )
    pp.add_argument("path", help="events JSONL file (from --events-out)")
    pp.add_argument("out", help="trace JSON output path")
    pp.set_defaults(fn=cmd_events_to_trace)

    p = sub.add_parser(
        "bench",
        help="run the corpus benchmark and write BENCH_<date>.json",
    )
    p.add_argument("--apps", nargs="+", metavar="NAME",
                   help="restrict to these corpus apps (default: all 27)")
    p.add_argument("--generated", type=int, default=None, metavar="N",
                   help="stress mode: benchmark N generated apps instead "
                        "of the registry corpus (mutually exclusive with "
                        "--apps)")
    p.add_argument("--seed", type=int, default=42,
                   help="generator seed for --generated (default 42)")
    p.add_argument("--out", metavar="PATH",
                   help="output path (default: BENCH_<YYYY-MM-DD>.json)")
    p.add_argument("--compare", metavar="OLD.json",
                   help="diff against a baseline benchmark: print the "
                        "per-app wall-time delta table and exit 4 on "
                        "work-counter or wall-time regressions")
    p.add_argument("--compare-time-tolerance", type=float, default=0.25,
                   metavar="FRAC",
                   help="relative wall-time growth allowed per app "
                        "before --compare fails (default 0.25 = 25%%); "
                        "widen when the baseline came from a different "
                        "machine -- counters always gate exactly")
    p.add_argument("--history", metavar="DIR",
                   help="also append this run's payload to a bench "
                        "history directory (for `bench trend`)")
    _add_runner_flags(p)
    p.set_defaults(fn=cmd_bench)

    bench_sub = p.add_subparsers(dest="bench_command",
                                 metavar="SUBCOMMAND")
    pp = bench_sub.add_parser(
        "trend",
        help="chart a bench history directory and exit 4 on monotone "
             "perf drift across the trailing window",
    )
    pp.add_argument("history_dir", metavar="DIR",
                    help="directory of BENCH_*.json runs "
                         "(see bench --history)")
    pp.add_argument("--window", type=int, default=5, metavar="N",
                    help="trailing runs inspected by the drift gate "
                         "(default 5)")
    pp.add_argument("--time-tolerance", type=float, default=0.25,
                    metavar="FRAC",
                    help="relative wall-time growth across the window "
                         "tolerated before monotone growth counts as "
                         "drift (default 0.25 = 25%%)")
    pp.set_defaults(fn=cmd_bench_trend)

    p = sub.add_parser(
        "serve",
        help="run the analysis daemon: accept jobs over loopback HTTP "
             "(docs/service.md)",
    )
    p.add_argument("--port", type=int, default=0, metavar="PORT",
                   help="port to bind on 127.0.0.1 (default 0 = OS picks "
                        "a free one; the bound port is printed in the "
                        "'listening on' stderr line)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes, kept for the daemon's "
                        "lifetime, that run every analysis (default 1; "
                        "queued jobs run one at a time)")
    p.add_argument("--cache-dir", metavar="PATH",
                   help="result cache directory (default: "
                        "$NADROID_CACHE_DIR or ~/.cache/nadroid)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache for this daemon")
    p.add_argument("--queue-limit", type=int, default=None, metavar="N",
                   help="queued jobs admitted before POSTs get HTTP 429 "
                        "(default 8)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECS",
                   help="default per-app deadline for jobs that do not "
                        "set their own")
    p.add_argument("--max-retries", type=int, default=1, metavar="N",
                   help="default re-submissions for transient faults "
                        "(jobs may override per request)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("cache", help="manage the on-disk result cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pp = cache_sub.add_parser(
        "prune",
        help="delete quarantined .json.corrupt entries (--all: everything)",
    )
    pp.add_argument("--cache-dir", metavar="PATH",
                    help="cache directory (default: $NADROID_CACHE_DIR "
                         "or ~/.cache/nadroid)")
    pp.add_argument("--all", action="store_true",
                    help="also delete valid entries, emptying the cache")
    pp.set_defaults(fn=cmd_cache)
    return parser


def main(argv: List[str] = None) -> int:
    from .lang import SourceError
    from .resilience import FaultError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # Ctrl-C: the pool has already terminated and joined its worker
        # processes on the way out (run_tasks closes the pool it opened;
        # serve closes its daemon pool) and the finally below flushes
        # the event stream and closes any live servers; all that is left
        # is the conventional exit code.
        print("nadroid: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (CliError, FaultError, SourceError) as exc:
        # a fail-fast fault aborted the run, or a source file is malformed
        # (its diagnostic names <file>:<line>:<col>)
        print(f"nadroid: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. piped into head/less); die quietly,
        # redirecting stdout so the interpreter's shutdown flush cannot
        # raise a second time
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        # the event stream is flushed per event, so even an aborted run
        # leaves a faithful prefix on disk; this only closes the handles
        events = getattr(args, "_events_log", None)
        if events is not None:
            events.close()
            for sink in events.sinks:
                path = getattr(sink, "path", None)
                if path:
                    print(f"[events] wrote {path}", file=sys.stderr)
        server = getattr(args, "_telemetry_server", None)
        if server is not None:
            server.close()


if __name__ == "__main__":
    sys.exit(main())
