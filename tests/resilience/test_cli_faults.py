"""CLI surface of fault tolerance: flags, exit codes, fault reporting."""

import json

import pytest

from repro.cli import EXIT_FAULTS, main
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.faultinject import ENV_VAR


@pytest.fixture()
def crash_env(monkeypatch):
    plan = FaultPlan(faults=(FaultSpec(app="todolist", stage="detection",
                                       action="raise"),))
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))


CORPUS_ARGS = ["corpus", "--apps", "todolist", "clipstack", "--no-cache"]


def test_keep_going_completes_with_exit_faults(crash_env, capsys):
    code = main(CORPUS_ARGS + ["--keep-going"])
    captured = capsys.readouterr()
    assert code == EXIT_FAULTS
    assert "[fault] app 'todolist': analysis at detection:" in captured.err
    # The surviving app's row still renders.
    assert "clipstack" in captured.out
    assert "1 faulted" in captured.err


def test_fail_fast_is_the_default(crash_env, capsys):
    code = main(CORPUS_ARGS)
    captured = capsys.readouterr()
    assert code == 2
    assert "nadroid: error: analysis of app 'todolist' failed" \
        in captured.err
    assert "--keep-going" in captured.err


@pytest.mark.parametrize("plan", ["{missing}", '{"faults": ['])
def test_a_bad_fault_plan_exits_2_with_one_line_error(
        monkeypatch, tmp_path, capsys, plan):
    # a plan naming a missing file, or holding malformed JSON
    monkeypatch.setenv(ENV_VAR,
                       plan.replace("{missing}",
                                    str(tmp_path / "missing.json")))
    code = main(["corpus", "--apps", "todolist", "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"nadroid: error: {ENV_VAR}: ")
    assert "Traceback" not in captured.err


def test_faulted_apps_reach_the_report_and_sarif(crash_env, tmp_path,
                                                 capsys):
    report_path = tmp_path / "report.json"
    sarif_path = tmp_path / "report.sarif"
    code = main(CORPUS_ARGS + [
        "--keep-going",
        "--report-out", str(report_path),
        "--sarif-out", str(sarif_path),
    ])
    capsys.readouterr()
    assert code == EXIT_FAULTS

    report = json.loads(report_path.read_text())
    apps = report["apps"]
    assert apps["todolist"]["fault"]["kind"] == "analysis"
    assert apps["todolist"]["fault"]["stage"] == "detection"
    assert "fault" not in apps["clipstack"]

    sarif = json.loads(sarif_path.read_text())
    invocation = sarif["runs"][0]["invocations"][0]
    assert invocation["executionSuccessful"] is False
    notes = invocation["toolExecutionNotifications"]
    assert any(n["descriptor"]["id"] == "fault/analysis" for n in notes)


def test_invalid_timeout_is_a_cli_error(capsys):
    code = main(CORPUS_ARGS + ["--timeout", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "nadroid: error:" in captured.err
    assert "--timeout" in captured.err


def test_invalid_max_retries_is_a_cli_error(capsys):
    code = main(CORPUS_ARGS + ["--max-retries", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--max-retries" in captured.err


def test_cache_prune_sweeps_quarantined_entries(tmp_path, capsys):
    sub = tmp_path / "ab"
    sub.mkdir()
    (sub / "keep.json").write_text("{}")
    (sub / "broken.json.corrupt").write_text("garbage")
    code = main(["cache", "prune", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "pruned 1 quarantined entries" in captured.err
    assert (sub / "keep.json").exists()
    assert not (sub / "broken.json.corrupt").exists()


def test_cache_prune_all_sweeps_everything(tmp_path, capsys):
    sub = tmp_path / "ab"
    sub.mkdir()
    (sub / "keep.json").write_text("{}")
    code = main(["cache", "prune", "--cache-dir", str(tmp_path), "--all"])
    captured = capsys.readouterr()
    assert code == 0
    assert "pruned 1 entries" in captured.err
    assert not (sub / "keep.json").exists()


def test_cache_prune_missing_dir_is_fine(tmp_path, capsys):
    code = main(["cache", "prune", "--cache-dir",
                 str(tmp_path / "nowhere")])
    captured = capsys.readouterr()
    assert code == 0
    assert "nothing to prune" in captured.err
