"""Fault tolerance for corpus runs: isolation, timeouts, retries.

One pathological app must never cost the other N-1 their results.  This
package provides the pieces the runner threads through the pipeline:

* :mod:`~repro.resilience.errors` -- the typed fault taxonomy and the
  classification of raw exceptions into JSON-safe fault records;
* :mod:`~repro.resilience.pool` -- the pool of long-lived, killable
  workers whose watchdog enforces every per-app timeout, plus
  transient-fault retries;
* :mod:`~repro.resilience.faultinject` -- the deterministic fault
  injection harness that tests all of the above.

:func:`checkpoint` is the one call analysis code makes: at each stage
boundary it names the stage and gives planted faults a chance to fire.
See docs/robustness.md.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from .errors import (
    AnalysisFault,
    Fault,
    FAULT_KINDS,
    FaultError,
    FilterFault,
    InjectedFaultError,
    ParseFault,
    TimeoutFault,
    WorkerLostFault,
    fault_digest,
    fault_from_dict,
    fault_from_exception,
    timeout_fault,
    worker_lost_fault,
)
from .faultinject import (
    ENV_VAR as FAULT_PLAN_ENV_VAR,
    FaultPlan,
    FaultSpec,
    active_plan,
    install,
    maybe_fault,
)
from .pool import (
    FaultPolicy,
    Observer,
    PoolOutcome,
    run_tasks,
    WorkerPool,
)

_CURRENT_APP: ContextVar[Optional[str]] = ContextVar(
    "nadroid-current-app", default=None
)

#: the most recent checkpointed stage -- deliberately NOT a contextvar:
#: when a task raises, its scopes unwind before the pool classifies the
#: exception, and this residue is exactly what names the failing stage
#: in the fault record.  One task per process/thread, so a plain global
#: is race-free here.
_LAST_STAGE = "task"


def current_app() -> Optional[str]:
    """The app the enclosing task is analyzing, if any."""
    return _CURRENT_APP.get()


def current_stage() -> str:
    """The last stage boundary the current (or just-failed) task crossed."""
    return _LAST_STAGE


@contextmanager
def task_scope(app: str) -> Iterator[None]:
    """Name the app under analysis so checkpoints can match fault specs."""
    global _LAST_STAGE
    _LAST_STAGE = "task"
    token = _CURRENT_APP.set(app)
    try:
        yield
    finally:
        _CURRENT_APP.reset(token)


def checkpoint(stage: str) -> None:
    """A pipeline stage boundary: record it, fire planted faults.

    Costs two contextvar reads and one environment lookup when no plan
    is active.
    """
    global _LAST_STAGE
    _LAST_STAGE = stage
    maybe_fault(_CURRENT_APP.get(), stage)


__all__ = [
    "AnalysisFault",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV_VAR",
    "Fault",
    "FaultError",
    "FaultPlan",
    "FaultPolicy",
    "FaultSpec",
    "FilterFault",
    "InjectedFaultError",
    "ParseFault",
    "PoolOutcome",
    "TimeoutFault",
    "WorkerLostFault",
    "active_plan",
    "checkpoint",
    "current_app",
    "current_stage",
    "fault_digest",
    "fault_from_dict",
    "fault_from_exception",
    "install",
    "maybe_fault",
    "Observer",
    "run_tasks",
    "task_scope",
    "timeout_fault",
    "worker_lost_fault",
    "WorkerPool",
]
