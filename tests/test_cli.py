"""CLI integration tests (in-process, via ``repro.cli.main``)."""

import json

import pytest

from repro.cli import main
from repro.corpus import app
from repro.resilience import (
    FAULT_PLAN_ENV_VAR,
    FaultPlan,
    FaultSpec,
    install,
    worker_lost_fault,
)


@pytest.fixture()
def app_file(tmp_path):
    path = tmp_path / "app.mjava"
    path.write_text(app("connectbot").source())
    return str(path)


@pytest.fixture()
def clean_app_file(tmp_path):
    path = tmp_path / "clean.mjava"
    path.write_text(app("swiftnotes").source())
    return str(path)


def test_analyze_reports_warnings(app_file, capsys):
    code = main(["analyze", app_file])
    out = capsys.readouterr().out
    assert code == 1  # warnings remain
    assert "potential UAF on ConsoleActivity.bound" in out
    assert "modeled threads" in out


def test_analyze_clean_app_exits_zero(clean_app_file, capsys):
    code = main(["analyze", clean_app_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "potential UAFs  : 0" in out


def test_analyze_imperative_engine_flag(app_file, capsys):
    code = main(["analyze", app_file])
    assert code == 1
    assert "after unsound   : 7" in capsys.readouterr().out


def test_simulate_runs_and_reports(clean_app_file, capsys):
    code = main(["simulate", clean_app_file, "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no exceptions raised" in out


def test_simulate_buggy_app_reports_npe(app_file, capsys):
    code = main(["simulate", app_file, "--seed", "0",
                 "--max-decisions", "3000"])
    out = capsys.readouterr().out
    # a random schedule on connectbot usually crashes; accept either
    # outcome but require coherent output
    assert ("NullPointerException" in out) == (code == 1)


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_file_exits_2_with_one_line_error(capsys):
    code = main(["analyze", "/no/such/file.mjava"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("nadroid: error: cannot read /no/such/file.mjava")
    assert "Traceback" not in captured.err


def test_simulate_missing_file_exits_2(capsys):
    code = main(["simulate", "/no/such/file.mjava"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "explain", "simulate",
                                     "nosleep"])
@pytest.mark.parametrize("source, diagnostic", [
    ("class A {\n  int f() { return 5x; }\n}\n",
     ":2:21: malformed number near '5'"),                       # LexError
    ("class A {\n  int f() { return ; ; }\n",
     ":2:22: unexpected token ';' in expression"),              # ParseError
    ("class A {\n  int f() { return y; }\n}\n",
     ":2:0: in A.f: unresolved identifier 'y'"),                # LoweringError
    ("class A {\n  int x;\n  void f() { " + "x = " * 3000 + "1; }\n}\n",
     ":3:266: nesting depth exceeds the MiniDroid limit of 64"),  # too deep
], ids=["lex", "parse", "lowering", "too-deep"])
def test_malformed_source_exits_2_with_one_line_error(
        tmp_path, capsys, command, source, diagnostic):
    path = tmp_path / "bad.mjava"
    path.write_text(source)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"nadroid: error: {path}{diagnostic}"]


@pytest.mark.parametrize("command", ["analyze", "explain"])
@pytest.mark.parametrize("stage", ["detection", "filtering"])
def test_an_analysis_fault_exits_2_with_one_line_error(
        app_file, capsys, command, stage):
    plan = FaultPlan(faults=(FaultSpec(app="*", stage=stage,
                                       action="raise"),))
    with install(plan):
        code = main([command, app_file])
    captured = capsys.readouterr()
    assert code == 2  # 1 would read as "warnings remain"
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"nadroid: error: analysis of app 'app' failed [analysis, stage "
        f"{stage}]: InjectedFaultError: injected fault in app 'app' at "
        f"stage '{stage}' (rerun with --keep-going to complete the "
        f"remaining apps)"]


def test_a_killed_analyze_worker_exits_2_with_one_line_error(
        app_file, capsys, monkeypatch):
    plan = FaultPlan(faults=(FaultSpec(app="*", stage="detection",
                                       action="kill"),))
    monkeypatch.setenv(FAULT_PLAN_ENV_VAR, json.dumps(plan.to_dict()))
    code = main(["analyze", app_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [
        f"nadroid: error: analysis of app 'app' failed [worker-lost, stage "
        f"task]: {worker_lost_fault('app').message} (rerun with "
        f"--keep-going to complete the remaining apps)"]


def test_an_untimed_serial_corpus_run_loses_a_real_worker(
        tmp_path, capsys, monkeypatch):
    # the kill plan sends even a --jobs 1 run without --timeout to a
    # worker: the kill exits that worker (twice, with the one retry),
    # never this process
    plan = FaultPlan(faults=(FaultSpec(app="todolist", stage="detection",
                                       action="kill"),))
    monkeypatch.setenv(FAULT_PLAN_ENV_VAR, json.dumps(plan.to_dict()))
    metrics = tmp_path / "metrics.json"
    code = main(["corpus", "--apps", "todolist", "clipstack", "--jobs", "1",
                 "--no-cache", "--keep-going",
                 "--metrics-out", str(metrics)])
    captured = capsys.readouterr()
    assert code == 3
    assert [line for line in captured.err.splitlines()
            if line.startswith("[fault]")] == [
        f"[fault] {worker_lost_fault('todolist').describe()}"]
    counters = json.loads(metrics.read_text())["run"]["counters"]
    assert counters["runner.faults.worker-lost"] == 1
    assert counters["runner.retries"] == 1
    assert counters["runner.apps.analyzed"] == 1


def test_corpus_subset_serial_and_parallel_stdout_identical(capsys):
    args = ["corpus", "--apps", "todolist", "swiftnotes", "clipstack",
            "--no-cache"]
    assert main(args) == 0
    serial_out = capsys.readouterr().out
    assert main(args + ["--jobs", "4"]) == 0
    parallel_out = capsys.readouterr().out
    assert serial_out == parallel_out
    assert "todolist" in serial_out and "clipstack" in serial_out


def test_corpus_cache_dir_round_trip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["corpus", "--apps", "todolist", "--cache-dir", cache_dir]
    assert main(args) == 0
    first = capsys.readouterr()
    assert "1 analyzed, 0 from cache" in first.err
    assert main(args) == 0
    second = capsys.readouterr()
    assert "0 analyzed, 1 from cache" in second.err
    assert first.out == second.out


def test_corpus_cache_dir_is_a_file_exits_2(tmp_path, capsys):
    bogus = tmp_path / "not-a-dir"
    bogus.write_text("")
    code = main(["corpus", "--apps", "todolist", "--cache-dir", str(bogus)])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot use cache directory" in captured.err
    assert "Traceback" not in captured.err


def test_corpus_unknown_app_exits_2(capsys):
    code = main(["corpus", "--apps", "nonesuch", "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown corpus app 'nonesuch'" in captured.err


def test_corpus_csv_export_with_runner(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code = main(["corpus", "--apps", "todolist", "--no-cache",
                 "--csv", str(csv_path)])
    assert code == 0
    content = csv_path.read_text().splitlines()
    assert content[0].startswith("group,app,EC,PC,T")
    assert content[1].startswith("train,todolist,5,0,1")
    # a fresh run's stage seconds come off its span trees
    import csv

    row = next(csv.DictReader(content))
    for column in ("modeling_seconds", "detection_seconds",
                   "filtering_seconds"):
        assert float(row[column]) > 0, column


# -- observability (ISSUE 2) --------------------------------------------------


def test_corpus_trace_goes_to_stderr_not_stdout(capsys):
    base = ["corpus", "--apps", "todolist", "--no-cache"]
    assert main(base) == 0
    plain = capsys.readouterr()
    assert main(base + ["--trace"]) == 0
    traced = capsys.readouterr()
    assert traced.out == plain.out, "--trace must not touch stdout"
    assert "app:todolist" in traced.err
    assert "pointsto" in traced.err


def test_corpus_trace_with_jobs_nests_per_app(capsys):
    code = main(["corpus", "--apps", "todolist", "swiftnotes", "--no-cache",
                 "--jobs", "2", "--trace"])
    assert code == 0
    err = capsys.readouterr().err
    # each app renders one contiguous tree rooted at app:<name>
    tree_roots = [line for line in err.splitlines()
                  if line.startswith("app:")]
    assert tree_roots[0].startswith("app:todolist")
    assert tree_roots[1].startswith("app:swiftnotes")


def test_corpus_metrics_out_includes_cache_counters(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    cache_dir = tmp_path / "cache"
    args = ["corpus", "--apps", "todolist", "--cache-dir", str(cache_dir),
            "--metrics-out", str(metrics_path)]
    assert main(args) == 0
    capsys.readouterr()
    import json

    payload = json.loads(metrics_path.read_text())
    assert payload["run"]["counters"]["runner.cache.misses"] == 1
    assert payload["run"]["counters"]["runner.cache.hits"] == 0
    assert "pointsto.passes" in payload["apps"]["todolist"]["counters"]
    assert "funnel.potential" in payload["totals"]["counters"]

    assert main(args) == 0
    capsys.readouterr()
    warm = json.loads(metrics_path.read_text())
    assert warm["run"]["counters"]["runner.cache.hits"] == 1
    # cached entries replay the recorded analysis counters
    assert warm["apps"]["todolist"]["counters"] \
        == payload["apps"]["todolist"]["counters"]


def test_analyze_trace_and_metrics_out(app_file, tmp_path, capsys):
    metrics_path = tmp_path / "analyze.json"
    code = main(["analyze", app_file, "--trace",
                 "--metrics-out", str(metrics_path)])
    assert code == 1  # warnings remain, same as without flags
    captured = capsys.readouterr()
    assert "lowering" in captured.err and "detection" in captured.err
    assert "lowering" not in captured.out
    import json

    payload = json.loads(metrics_path.read_text())
    assert "detector.potential_warnings" in payload["counters"]


# -- reporting (ISSUE 3) ------------------------------------------------------


def test_explain_prints_lineage_and_decision_trail(app_file, capsys):
    code = main(["explain", app_file])
    out = capsys.readouterr().out
    assert code == 1  # same exit semantics as analyze: warnings remain
    assert "potential warning(s):" in out
    assert "use  thread lineage:" in out
    assert "free thread lineage:" in out
    assert "alias witness :" in out
    assert "filter witness:" in out
    assert "status: remaining" in out


def test_explain_clean_app_exits_zero(clean_app_file, capsys):
    code = main(["explain", clean_app_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 potential warning(s)" in out


def test_explain_status_filter(app_file, capsys):
    code = main(["explain", app_file, "--status", "remaining"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status: remaining" in out
    assert "status: pruned" not in out


def test_analyze_report_and_sarif_out(app_file, tmp_path, capsys):
    import json

    report_path = tmp_path / "report.json"
    sarif_path = tmp_path / "report.sarif"
    code = main(["analyze", app_file, "--report-out", str(report_path),
                 "--sarif-out", str(sarif_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert f"[report] wrote {report_path}" in captured.err
    assert f"[sarif] wrote {sarif_path}" in captured.err

    payload = json.loads(report_path.read_text())
    assert payload["schema"] == 1
    warnings = payload["apps"]["app"]["warnings"]
    assert warnings and all(w["id"].startswith("app::") for w in warnings)

    sarif = json.loads(sarif_path.read_text())
    assert sarif["version"] == "2.1.0"
    assert sarif["runs"][0]["tool"]["driver"]["rules"]
    assert all(r["locations"] for r in sarif["runs"][0]["results"])


UNWRITABLE = "/no/such/dir/x"

TRIO = ["--apps", "todolist", "swiftnotes", "clipstack"]


@pytest.mark.parametrize("argv, what", [
    (["analyze", "{app}", "--metrics-out", UNWRITABLE], "metrics"),
    (["corpus", "--apps", "todolist", "--no-cache",
      "--metrics-out", UNWRITABLE], "metrics"),
    (["analyze", "{app}", "--trace-out", UNWRITABLE], "trace"),
    (["corpus", "--apps", "todolist", "--no-cache",
      "--trace-out", UNWRITABLE], "trace"),
    (["events", "to-trace", "{events}", UNWRITABLE], "trace"),
    (["analyze", "{app}", "--report-out", UNWRITABLE], "report"),
    (["analyze", "{app}", "--sarif-out", UNWRITABLE], "SARIF"),
    (["corpus", "score", "--seed", "7", "--count", "2", "--no-cache",
      "--score-out", UNWRITABLE], "score report"),
    (["hotspots", "--apps", "todolist", "--no-cache",
      "--flame", UNWRITABLE], "flamegraph stacks"),
    (["bench", "--apps", "todolist", "--out", UNWRITABLE], "benchmark"),
], ids=["analyze-metrics", "corpus-metrics", "analyze-trace",
        "corpus-trace", "events-to-trace", "report", "sarif", "score",
        "flame", "bench"])
def test_every_artifact_flag_reports_an_unwritable_path(
        app_file, tmp_path, capsys, argv, what):
    events = tmp_path / "events.jsonl"
    events.write_text("")
    code = main([arg.format(app=app_file, events=events) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    errors = [line for line in captured.err.splitlines()
              if line.startswith("nadroid: error:")]
    assert len(errors) == 1
    assert errors[0].startswith(
        f"nadroid: error: cannot write {what} to {UNWRITABLE}: "
    )
    assert "Traceback" not in captured.err


def test_table3_fans_the_train_apps_out_once(tmp_path, capsys):
    import json

    events = tmp_path / "events.jsonl"
    code = main(["table3", "--no-cache", "--events-out", str(events)])
    assert code == 0
    assert "[runner] 7 apps (7 analyzed, 0 from cache)" \
        in capsys.readouterr().err
    kinds = [json.loads(line)["event"]
             for line in events.read_text().splitlines()]
    assert kinds.count("run-start") == 1
    assert kinds.count("app-start") == 7
    assert kinds.count("run-end") == 1


@pytest.mark.parametrize("command, expected", [
    (["timing"], "27 apps (24 analyzed, 3 from cache)"),
    (["hotspots", *TRIO], "3 apps (0 analyzed, 3 from cache)"),
    (["bench", *TRIO, "--out", "{out}"], "3 apps (0 analyzed, 3 from cache)"),
], ids=["timing", "hotspots", "bench"])
def test_registry_consumers_reuse_the_corpus_cache(
        tmp_path, capsys, command, expected):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(["corpus", *TRIO, *cache]) == 0
    capsys.readouterr()
    out = str(tmp_path / "bench.json")
    assert main([arg.format(out=out) for arg in command] + cache) == 0
    assert f"[runner] {expected}" in capsys.readouterr().err


def test_corpus_report_out_covers_every_app(tmp_path, capsys):
    import json

    report_path = tmp_path / "corpus.json"
    code = main(["corpus", "--apps", "todolist", "connectbot", "--no-cache",
                 "--report-out", str(report_path)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(report_path.read_text())
    assert set(payload["apps"]) == {"todolist", "connectbot"}
    assert payload["apps"]["connectbot"]["warnings"]
    assert payload["apps"]["connectbot"]["metrics"]


def test_diff_identical_reports_clean_exit_zero(app_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    main(["analyze", app_file, "--report-out", str(report_path)])
    capsys.readouterr()
    code = main(["diff", str(report_path), str(report_path),
                 "--fail-on-new"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reports are identical (0 warning changes, 0 metric deltas)" in out


def test_diff_injected_warning_fails_gate(app_file, tmp_path, capsys):
    import copy
    import json

    old_path = tmp_path / "old.json"
    main(["analyze", app_file, "--report-out", str(old_path)])
    capsys.readouterr()

    payload = json.loads(old_path.read_text())
    app_payload = payload["apps"]["app"]
    injected = copy.deepcopy(app_payload["warnings"][0])
    injected["id"] = "app::Injected.f::I.use:1::I.free:2"
    injected["status"] = "remaining"
    app_payload["warnings"].append(injected)
    new_path = tmp_path / "new.json"
    new_path.write_text(json.dumps(payload))

    assert main(["diff", str(old_path), str(new_path)]) == 0
    without_gate = capsys.readouterr().out
    assert "app::Injected.f::I.use:1::I.free:2" in without_gate

    code = main(["diff", str(old_path), str(new_path), "--fail-on-new"])
    gated = capsys.readouterr().out
    assert code == 1
    assert "1 regression(s)" in gated
    assert gated.count("[REGRESSION]") == 1


def test_diff_rejects_non_report_json(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{\"schema\": 99}")
    code = main(["diff", str(bogus), str(bogus)])
    captured = capsys.readouterr()
    assert code == 2
    assert "is not a nadroid report" in captured.err


def test_diff_missing_file_exits_2(tmp_path, capsys):
    code = main(["diff", "/no/such/old.json", "/no/such/new.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read /no/such/old.json" in captured.err


def test_bench_writes_schema_documented_json(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["bench", "--apps", "todolist", "swiftnotes",
                 "--jobs", "2", "--out", "bench.json"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # bench output is the file, not stdout
    assert "[bench] wrote bench.json" in captured.err
    import json

    payload = json.loads((tmp_path / "bench.json").read_text())
    assert payload["schema"] == 1
    assert payload["jobs"] == 2
    assert set(payload["apps"]) == {"todolist", "swiftnotes"}
    assert payload["apps"]["todolist"]["timings"]["total"] > 0


def test_bench_default_filename_carries_date(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["bench", "--apps", "todolist"])
    assert code == 0
    capsys.readouterr()
    import re

    names = [p.name for p in tmp_path.glob("BENCH_*.json")]
    assert len(names) == 1
    assert re.fullmatch(r"BENCH_\d{4}-\d{2}-\d{2}\.json", names[0])


def test_hotspots_renders_ranked_table(capsys):
    code = main(["hotspots", "--apps", "todolist", "--no-cache",
                 "--top", "5"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["#", "domain", "name", "count", "seconds"]
    assert any("pointsto.pair" in line for line in lines)


def test_hotspots_rejects_nonpositive_top(capsys):
    code = main(["hotspots", "--apps", "todolist", "--no-cache",
                 "--top", "0"])
    assert code == 2
    assert "--top" in capsys.readouterr().err


def test_analyze_hotspots_flag_goes_to_stderr(app_file, capsys):
    code = main(["analyze", app_file, "--hotspots", "3"])
    captured = capsys.readouterr()
    assert code == 1  # warning verdict unchanged
    assert "pointsto.pair" not in captured.out  # stdout stays byte-identical
    header = captured.err.splitlines()[0]
    assert header.split() == ["#", "domain", "name", "count", "seconds"]


def test_corpus_events_out_and_summary(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    code = main(["corpus", "--apps", "todolist", "swiftnotes",
                 "--jobs", "2", "--no-cache", "--events-out", str(events)])
    assert code == 0
    assert f"[events] wrote {events}" in capsys.readouterr().err

    code = main(["events", "summarize", str(events)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 run(s), 2 apps" in out
    assert "analyzed : 2" in out
    assert "per-app latency over 2 apps" in out


def test_events_summarize_rejects_malformed_file(tmp_path, capsys):
    bogus = tmp_path / "events.jsonl"
    bogus.write_text("{ nope\n")
    code = main(["events", "summarize", str(bogus)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_corpus_events_out_unwritable_path_exits_2(capsys):
    code = main(["corpus", "--apps", "todolist", "--no-cache",
                 "--events-out", "/no/such/dir/events.jsonl"])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_corpus_progress_lines_on_stderr(capsys):
    code = main(["corpus", "--apps", "todolist", "--no-cache",
                 "--progress"])
    captured = capsys.readouterr()
    assert code == 0
    assert "[progress] 1/1 apps, 0 faults, 0 cache hits" in captured.err
    assert "[progress]" not in captured.out


def test_corpus_memory_gauges_reach_metrics_out(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    code = main(["corpus", "--apps", "todolist", "--memory", "--no-cache",
                 "--metrics-out", str(metrics)])
    assert code == 0
    capsys.readouterr()
    import json

    payload = json.loads(metrics.read_text())
    gauges = payload["apps"]["todolist"]["gauges"]
    assert gauges["mem.app.peak_kb"] > 0
    assert gauges["mem.stage.lowering.peak_kb"] > 0


# -- ISSUE 8: exporters and live telemetry ------------------------------------


def test_corpus_trace_out_writes_perfetto_json(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    events = tmp_path / "events.jsonl"
    code = main(["corpus", "--apps", "todolist", "swiftnotes",
                 "--no-cache", "--trace-out", str(trace),
                 "--events-out", str(events)])
    captured = capsys.readouterr()
    assert code == 0
    assert f"[trace] wrote {trace}" in captured.err
    payload = json.loads(trace.read_text())
    assert payload["displayTimeUnit"] == "ms"
    names = {e["args"]["name"] for e in payload["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    # one process lane per app, plus the event-stream lane
    assert {"run", "app:todolist", "app:swiftnotes"} <= names
    assert any(e["ph"] == "X" for e in payload["traceEvents"])
    assert any(e["ph"] == "i" for e in payload["traceEvents"])


def test_analyze_trace_out(app_file, tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    main(["analyze", app_file, "--trace-out", str(trace)])
    assert f"[trace] wrote {trace}" in capsys.readouterr().err
    payload = json.loads(trace.read_text())
    spans = [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
    assert "lowering" in spans and "detection" in spans


def test_hotspots_flame_out(tmp_path, capsys):
    flame = tmp_path / "stacks.txt"
    code = main(["hotspots", "--apps", "todolist", "--no-cache",
                 "--flame", str(flame)])
    captured = capsys.readouterr()
    assert code == 0
    assert f"[flame] wrote {flame}" in captured.err
    lines = flame.read_text().strip().splitlines()
    assert lines
    for line in lines:
        frames, value = line.rsplit(" ", 1)
        assert frames and int(value) > 0


def test_events_summarize_json(tmp_path, capsys):
    import json

    events = tmp_path / "events.jsonl"
    assert main(["corpus", "--apps", "todolist", "--no-cache",
                 "--events-out", str(events)]) == 0
    capsys.readouterr()
    assert main(["events", "summarize", str(events), "--json"]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert summary["apps"] == 1
    assert summary["analyzed"] == 1
    assert summary["latency"]["apps"] == 1


def test_events_to_trace(tmp_path, capsys):
    import json

    events = tmp_path / "events.jsonl"
    trace = tmp_path / "trace.json"
    assert main(["corpus", "--apps", "todolist", "swiftnotes",
                 "--jobs", "2", "--no-cache",
                 "--events-out", str(events)]) == 0
    capsys.readouterr()
    assert main(["events", "to-trace", str(events), str(trace)]) == 0
    assert f"[trace] wrote {trace}" in capsys.readouterr().err
    payload = json.loads(trace.read_text())
    complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"todolist", "swiftnotes"}
    assert all(e["args"]["status"] == "analyzed" for e in complete)


def test_report_artifact_pointers(tmp_path, capsys):
    import json

    report = tmp_path / "report.json"
    trace = tmp_path / "trace.json"
    events = tmp_path / "events.jsonl"
    code = main(["corpus", "--apps", "todolist", "--no-cache",
                 "--report-out", str(report), "--trace-out", str(trace),
                 "--events-out", str(events)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["artifacts"] == {"trace": str(trace),
                                    "events": str(events)}
    # without the flags the key is absent, keeping goldens byte-stable
    assert main(["corpus", "--apps", "todolist", "--no-cache",
                 "--report-out", str(report)]) == 0
    capsys.readouterr()
    assert "artifacts" not in json.loads(report.read_text())


def test_corpus_serve_telemetry_live_endpoint(monkeypatch, capsys):
    """Probe /metrics, /healthz and /progress while the run is still
    inside main() (hooked at the run-end record, before the server
    closes)."""
    import json
    import urllib.request

    from repro.obs import telemetry as tel

    started = []
    orig_start = tel.TelemetryServer.start

    def start(self):
        started.append(self)
        return orig_start(self)

    probes = {}
    orig_observe = tel.LiveAggregator.observe

    def observe(self, record, snapshot=None):
        if record["event"] == "run-end":
            server = started[0]
            for path in ("metrics", "healthz", "progress"):
                with urllib.request.urlopen(f"{server.url}/{path}") as resp:
                    probes[path] = (resp.status,
                                    resp.read().decode("utf-8"))
        return orig_observe(self, record, snapshot)

    monkeypatch.setattr(tel.TelemetryServer, "start", start)
    monkeypatch.setattr(tel.LiveAggregator, "observe", observe)
    code = main(["corpus", "--apps", "todolist", "--no-cache",
                 "--serve-telemetry", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "[telemetry] listening on 127.0.0.1:" in captured.err
    assert probes["healthz"] == (200, "ok\n")
    status, metrics = probes["metrics"]
    assert status == 200
    assert "nadroid_telemetry_apps_done_total 1" in metrics
    assert "# TYPE nadroid_pointsto_passes_total counter" in metrics
    progress = json.loads(probes["progress"][1])
    assert progress["apps"] == {"total": 1, "done": 1, "analyzed": 1,
                                "cached": 0, "faulted": 0}
    # the server is gone once main() returns
    assert started[0].port is None


def test_serve_telemetry_rejects_bad_port(capsys):
    code = main(["corpus", "--apps", "todolist", "--no-cache",
                 "--serve-telemetry", "70000"])
    assert code == 2
    assert "--serve-telemetry" in capsys.readouterr().err


def test_serve_prints_listening_line_and_interrupt_exits_130(
        monkeypatch, capsys, tmp_path):
    """`repro serve` binds, announces its port machine-readably, and a
    Ctrl-C lands as the conventional 128+SIGINT exit code."""
    import repro.service.server as server_mod

    def interrupted_serve_forever(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(server_mod.ServiceServer, "serve_forever",
                        interrupted_serve_forever)
    code = main(["serve", "--port", "0",
                 "--cache-dir", str(tmp_path / "cache")])
    err = capsys.readouterr().err
    assert code == 130
    assert "[serve] listening on 127.0.0.1:" in err
    assert "nadroid: interrupted" in err


@pytest.mark.parametrize("flags, needle", [
    (["--no-cache", "--port", "70000"], "--port"),
    (["--no-cache", "--queue-limit", "0"], "--queue-limit"),
    (["--no-cache", "--jobs", "0"], "--jobs"),
    (["--no-cache", "--timeout", "0"], "--timeout"),
    (["--no-cache", "--max-retries", "-1"], "--max-retries"),
    # a file where the cache directory should be
    (["--cache-dir", __file__], "cannot use cache directory"),
])
def test_serve_rejects_bad_flags(flags, needle, capsys):
    code = main(["serve"] + flags)
    assert code == 2
    assert needle in capsys.readouterr().err


def test_keyboard_interrupt_exits_130_and_flushes_events(
        monkeypatch, capsys, tmp_path):
    def interrupted_run(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.harness.run_table1", interrupted_run)
    events = tmp_path / "events.jsonl"
    code = main(["corpus", "--apps", "todolist", "--no-cache",
                 "--events-out", str(events)])
    captured = capsys.readouterr()
    assert code == 130
    assert "nadroid: interrupted" in captured.err
    # the event stream was closed (and announced) on the way out
    assert f"[events] wrote {events}" in captured.err
    assert events.exists()
