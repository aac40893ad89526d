"""The fault taxonomy: classification, determinism, retry policy."""

import pytest

from repro.lang import LexError, tokenize
from repro.lang.errors import ParseError
from repro.resilience import (
    AnalysisFault,
    Fault,
    FAULT_KINDS,
    FaultError,
    fault_digest,
    fault_from_dict,
    fault_from_exception,
    ParseFault,
    timeout_fault,
    worker_lost_fault,
)


def test_taxonomy_covers_the_issue_kinds():
    assert set(FAULT_KINDS) == {
        "parse", "analysis", "timeout", "worker-lost", "filter",
    }


def test_only_worker_loss_is_transient():
    transient = {kind for kind, cls in FAULT_KINDS.items() if cls.transient}
    assert transient == {"worker-lost"}


def test_parse_error_classifies_as_parse_fault():
    exc = ParseError("unexpected token", 3, 7, "bad.mjava")
    fault = fault_from_exception(exc, "badapp", stage="lowering")
    assert isinstance(fault, ParseFault)
    assert fault.app == "badapp"
    assert fault.stage == "lowering"
    assert "unexpected token" in fault.message
    assert not fault.transient


def test_non_decimal_digit_classifies_as_parse_fault():
    # ``1²`` used to escape the lexer as a bare ValueError (an
    # AnalysisFault); it is a LexError, so a ParseFault
    with pytest.raises(LexError) as excinfo:
        tokenize("int x = 1²;", "bad.mjava")
    fault = fault_from_exception(excinfo.value, "badapp", stage="lowering")
    assert isinstance(fault, ParseFault)
    assert fault.message == "bad.mjava:1:10: unexpected character '²'"


def test_worker_lost_fault_names_the_app():
    # The satellite bugfix: a dead worker must produce one actionable
    # line naming the app, not an opaque pool traceback.
    fault = worker_lost_fault("k9mail")
    assert "k9mail" in fault.message
    assert "died" in fault.message


def test_generic_exception_is_analysis_fault_with_type_name():
    fault = fault_from_exception(ZeroDivisionError("division by zero"),
                                 "app", stage="detection")
    assert isinstance(fault, AnalysisFault)
    assert fault.message == "ZeroDivisionError: division by zero"


def test_digest_is_stable_and_path_independent():
    # The digest hashes kind/app/message only -- never traceback frames,
    # which differ between the in-process and worker execution paths.
    a = fault_digest("analysis", "app", "boom")
    b = fault_digest("analysis", "app", "boom")
    assert a == b
    assert len(a) == 12
    assert fault_digest("parse", "app", "boom") != a


def test_fault_round_trips_through_dict():
    fault = fault_from_exception(ValueError("nope"), "app", stage="modeling")
    clone = fault_from_dict(fault.to_dict())
    assert clone == fault
    assert type(clone) is type(fault)


def test_unknown_kind_falls_back_to_analysis_fault():
    fault = fault_from_dict({"kind": "martian", "app": "a", "stage": "s",
                             "message": "m"})
    assert isinstance(fault, AnalysisFault)


def test_fault_error_message_is_actionable():
    fault = timeout_fault("mytracks1", 5.0)
    err = FaultError(fault)
    assert "mytracks1" in str(err)
    assert "[timeout, stage task]" in str(err)
    # the --keep-going hint is the CLI's, for subcommands that take it
    assert "--keep-going" not in str(err)
    assert err.fault is fault


def test_describe_is_one_line():
    fault = worker_lost_fault("app")
    assert "\n" not in fault.describe()
    assert fault.describe().startswith("app 'app': worker-lost")


def test_base_fault_is_frozen():
    fault = Fault(app="a", stage="s", message="m")
    with pytest.raises(Exception):
        fault.app = "b"
