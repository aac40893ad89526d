"""The job layer: spec validation, execution, CLI byte-identity."""

import json

import pytest

from repro.corpus import app
from repro.runner import CorpusRunner
from repro.service import (
    AppSource,
    execute_job,
    JobSpec,
    JobSpecError,
    SINGLE_APP_NAME,
)


def _app_source(name="todolist", app_name="a"):
    spec = app(name)
    return AppSource(name=app_name, files=((spec.filename, spec.source()),))


# -- spec validation ----------------------------------------------------------


def test_spec_rejects_empty_apps():
    with pytest.raises(JobSpecError, match="at least one app"):
        JobSpec(apps=())


def test_from_request_ignores_an_engine_key():
    body = {"files": [{"path": "a.mjava", "text": "class A {}"}]}
    spec = JobSpec.from_request(dict(body, engine="prolog"), batch=False)
    assert spec == JobSpec.from_request(body, batch=False)


def test_spec_rejects_duplicate_app_names():
    with pytest.raises(JobSpecError, match="unique"):
        JobSpec(apps=(_app_source(app_name="x"),
                      _app_source(name="clipstack", app_name="x")))


@pytest.mark.parametrize("kwargs", [
    {"k": -1},
    {"timeout": 0},
    {"timeout": -2.5},
    {"max_retries": -1},
])
def test_spec_rejects_bad_numbers(kwargs):
    with pytest.raises(JobSpecError):
        JobSpec(apps=(_app_source(),), **kwargs)


def test_policy_always_keeps_going():
    spec = JobSpec(apps=(_app_source(),), timeout=5.0, max_retries=2)
    policy = spec.policy()
    assert policy.keep_going is True
    assert policy.timeout == 5.0
    assert policy.max_retries == 2


# -- request parsing ----------------------------------------------------------


def test_from_request_single_app_uses_the_cli_app_key():
    spec = JobSpec.from_request(
        {"files": [{"path": "a.mjava", "text": "class A {}"}]},
        batch=False,
    )
    assert [a.name for a in spec.apps] == [SINGLE_APP_NAME]
    assert spec.apps[0].files == (("a.mjava", "class A {}"),)
    assert spec.k == 2
    assert spec.client == "anonymous"
    assert spec.sarif is False


def test_from_request_batch_parses_every_app():
    spec = JobSpec.from_request({
        "apps": [
            {"name": "one", "files": [{"path": "a", "text": "x"}]},
            {"name": "two", "files": [{"path": "b", "text": "y"}]},
        ],
        "client": "ci",
        "k": 1,
        "engine": "imperative",
        "timeout": 30,
        "sarif": True,
    }, batch=True)
    assert [a.name for a in spec.apps] == ["one", "two"]
    assert (spec.client, spec.k) == ("ci", 1)
    assert spec.timeout == 30.0
    assert spec.sarif is True


@pytest.mark.parametrize("payload, batch, match", [
    ({}, False, "files"),
    ({"files": []}, False, "files"),
    ({"files": [{"path": "a"}]}, False, "text"),
    ({"files": [{"path": "a", "text": 3}]}, False, "text"),
    ({}, True, "apps"),
    ({"apps": []}, True, "apps"),
    ({"apps": [{"files": [{"path": "a", "text": "x"}]}]}, True, "name"),
    ({"files": [{"path": "a", "text": "x"}], "client": ""}, False,
     "client"),
    ({"files": [{"path": "a", "text": "x"}], "k": "lots"}, False,
     "numeric"),
    ({"files": [{"path": "a", "text": "x"}], "k": True}, False, "'k'"),
    ({"files": [{"path": "a", "text": "x"}], "k": 2.9}, False, "'k'"),
    ({"files": [{"path": "a", "text": "x"}], "k": "2"}, False, "'k'"),
    ({"files": [{"path": "a", "text": "x"}], "max_retries": True}, False,
     "max_retries"),
    ({"files": [{"path": "a", "text": "x"}], "max_retries": 1.5}, False,
     "max_retries"),
    ({"files": [{"path": "a", "text": "x"}], "sarif": "false"}, False,
     "sarif"),
    ({"files": [{"path": "a", "text": "x"}], "sarif": 1}, False, "sarif"),
])
def test_from_request_rejects_malformed_bodies(payload, batch, match):
    with pytest.raises(JobSpecError, match=match):
        JobSpec.from_request(payload, batch=batch)


# -- execution ----------------------------------------------------------------


def test_execute_job_analyzes_a_batch():
    spec = JobSpec(apps=(
        _app_source("todolist", "todolist"),
        _app_source("clipstack", "clipstack"),
    ))
    result = execute_job(spec, CorpusRunner(jobs=1))
    assert sorted(result.report.apps) == ["clipstack", "todolist"]
    assert result.stats["analyzed"] == 2
    assert result.stats["faulted"] == 0
    assert result.faults == []
    assert result.sarif_dict() is None
    counts = result.counts()
    assert set(counts) == {"clipstack", "todolist"}
    # the report text is the canonical report-file format
    payload = json.loads(result.report_json())
    assert sorted(payload["apps"]) == ["clipstack", "todolist"]


def test_execute_job_records_a_fault_per_broken_app():
    spec = JobSpec(apps=(
        AppSource(name="broken", files=(("b.mjava", "class {"),)),
        _app_source("todolist", "todolist"),
    ))
    result = execute_job(spec, CorpusRunner(jobs=1, policy=spec.policy()))
    assert result.stats["faulted"] == 1
    assert result.stats["analyzed"] == 1
    assert len(result.faults) == 1
    assert result.faults[0]["app"] == "broken"
    # the report still carries one entry per input app
    assert sorted(result.report.apps) == ["broken", "todolist"]


def test_execute_job_sarif_round_trips():
    spec = JobSpec(apps=(_app_source(),), sarif=True)
    result = execute_job(spec, CorpusRunner(jobs=1))
    sarif = result.sarif_dict()
    assert sarif is not None and sarif["version"] == "2.1.0"


# -- CLI byte-identity --------------------------------------------------------


def test_single_app_job_matches_repro_analyze(tmp_path):
    """The tentpole contract in miniature: one job's report equals the
    ``repro analyze --report-out`` artifact, byte for byte."""
    from repro.cli import main

    spec_app = app("todolist")
    src = tmp_path / spec_app.filename
    src.write_text(spec_app.source())
    out = tmp_path / "cli-report.json"
    code = main(["analyze", str(src), "--report-out", str(out)])
    assert code in (0, 1)  # 1 = warnings remain, still a clean run

    job = JobSpec.from_request({
        "files": [{"path": str(src), "text": spec_app.source()}],
    }, batch=False)
    result = execute_job(job, CorpusRunner(jobs=1))
    assert result.report_json() == out.read_text()
