"""The deterministic fault-injection harness itself."""

import json
import multiprocessing

import pytest

from repro.lang.errors import ParseError
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    install,
    maybe_fault,
)
from repro.resilience.faultinject import ENV_VAR, active_plan


def plan_with(action, app="myapp", stage="detection", **kwargs):
    return FaultPlan(
        faults=(FaultSpec(app=app, stage=stage, action=action),), **kwargs
    )


# -- plan parsing and validation ----------------------------------------------


def test_plan_round_trips_through_json():
    plan = FaultPlan(
        faults=(FaultSpec(app="a", stage="modeling", action="hang"),),
        state_dir=None,
        hang_seconds=12.0,
    )
    clone = FaultPlan.from_json(json.dumps(plan.to_dict()))
    assert clone == plan


def test_plan_digest_is_stable():
    a = plan_with("raise")
    b = plan_with("raise")
    assert a.digest() == b.digest()
    assert a.digest() != plan_with("hang").digest()


def test_unknown_action_is_rejected():
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultPlan.from_dict(
            {"faults": [{"app": "a", "stage": "s", "action": "explode"}]}
        )


def test_times_requires_state_dir():
    with pytest.raises(ValueError, match="state_dir"):
        FaultPlan.from_dict(
            {"faults": [{"app": "a", "stage": "s", "action": "kill",
                         "times": 1}]}
        )


def test_spec_wildcard_matches_any_app():
    spec = FaultSpec(app="*", stage="detection", action="raise")
    assert spec.matches("anything", "detection")
    assert not spec.matches("anything", "modeling")


# -- firing -------------------------------------------------------------------


def test_no_plan_is_a_noop():
    maybe_fault("myapp", "detection")  # must not raise


def test_raise_fires_only_on_matching_app_and_stage():
    with install(plan_with("raise")):
        maybe_fault("otherapp", "detection")
        maybe_fault("myapp", "modeling")
        with pytest.raises(InjectedFaultError, match="myapp"):
            maybe_fault("myapp", "detection")


def test_parse_error_action_raises_minidroid_parse_error():
    with install(plan_with("parse-error")):
        with pytest.raises(ParseError):
            maybe_fault("myapp", "detection")


def _fire_kill() -> None:
    with install(plan_with("kill")):
        maybe_fault("myapp", "detection")


def test_kill_exits_the_process_it_fires_in():
    # A kill is always a real exit, never an exception: run_tasks sends
    # a run with a kill plan to worker processes, whose loss the pool
    # reads as EOF.  Fired here in a child, so the test process lives.
    child = multiprocessing.get_context("fork").Process(target=_fire_kill)
    child.start()
    child.join(30)
    assert child.exitcode == 17


def test_hang_backstop_returns_without_a_deadline():
    # No deadline installed: the hang must still terminate after
    # hang_seconds rather than block the suite forever.
    with install(plan_with("hang", hang_seconds=0.05)):
        maybe_fault("myapp", "detection")


# -- attempt accounting (``times``) -------------------------------------------


def test_times_limits_firing_to_first_k_attempts(tmp_path):
    plan = FaultPlan(
        faults=(FaultSpec(app="myapp", stage="detection", action="raise",
                          times=2),),
        state_dir=str(tmp_path),
    )
    with install(plan):
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                maybe_fault("myapp", "detection")
        # third and later attempts succeed: the marker files persist
        maybe_fault("myapp", "detection")
        maybe_fault("myapp", "detection")
    assert len(list(tmp_path.glob("*.attempt.*"))) == 2


# -- activation ---------------------------------------------------------------


def test_env_var_inline_json_activates_a_plan(monkeypatch):
    plan = plan_with("raise")
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))
    assert active_plan() == plan
    with pytest.raises(InjectedFaultError):
        maybe_fault("myapp", "detection")


def test_env_var_path_form_activates_a_plan(tmp_path, monkeypatch):
    plan = plan_with("raise")
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    monkeypatch.setenv(ENV_VAR, str(path))
    assert active_plan() == plan


def test_install_outranks_the_environment(monkeypatch):
    monkeypatch.setenv(ENV_VAR, json.dumps(plan_with("raise").to_dict()))
    quiet = FaultPlan()
    with install(quiet):
        assert active_plan() == quiet
        maybe_fault("myapp", "detection")  # env plan must not fire
