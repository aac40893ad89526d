"""Typed fault taxonomy for fault-tolerant corpus runs.

One bad app must cost exactly one result, never the whole run.  Every
failure mode the runner can observe is normalized into a :class:`Fault`
-- a small, JSON-safe record ``{kind, app, stage, message,
traceback_digest}`` that rides in the runner's error envelopes, the
report JSON (per-app ``fault`` entries) and SARIF tool-execution
notifications.

Determinism contract: the same failure produces a byte-identical fault
record on the in-process path (``--jobs 1``) and the worker-process path
(``--jobs N``).  Canonical constructors (:func:`timeout_fault`,
:func:`worker_lost_fault`) therefore never embed anything
schedule-dependent (pids, exit codes, wall-clock), and
``traceback_digest`` hashes only the exception's type and message --
the frames above the analysis entry point differ between the two paths.

The taxonomy also encodes the retry policy: only *transient* faults
(a worker process lost to an OOM kill or hard crash) are ever
re-submitted; deterministic faults (parse errors, analysis crashes,
timeouts) would fail identically and are recorded on first occurrence.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Type

from ..lang.errors import SourceError

try:  # pragma: no cover - the pool never raises this itself
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover - ancient pythons
    class BrokenProcessPool(Exception):
        """Placeholder when concurrent.futures.process is unavailable."""


# -- exceptions the resilience layer itself raises ---------------------------


class CooperativeTimeout(Exception):
    """Raised at a stage boundary when the cooperative deadline passed."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        super().__init__(f"per-app deadline of {seconds:g}s exceeded")


class SimulatedWorkerLoss(Exception):
    """The in-process stand-in for a worker death (``kill`` injection).

    ``os._exit`` in the main process would take the whole run down, so on
    the ``--jobs 1`` path an injected kill raises this instead; the
    runner classifies it exactly like a real worker loss (transient,
    retried).
    """


class InjectedFaultError(RuntimeError):
    """A deterministic crash planted by the fault-injection harness."""


class FaultError(RuntimeError):
    """Fail-fast surface: one app's fault aborted the run.

    The message is the one-line actionable form the CLI prints -- it
    names the app that was running (the satellite fix for the formerly
    opaque ``BrokenProcessPool`` traceback).
    """

    def __init__(self, fault: "Fault") -> None:
        self.fault = fault
        super().__init__(
            f"analysis of app '{fault.app}' failed "
            f"[{fault.kind}, stage {fault.stage}]: {fault.message} "
            f"(rerun with --keep-going to complete the remaining apps)"
        )


# -- the fault record --------------------------------------------------------


def fault_digest(kind: str, app: str, message: str) -> str:
    """Short stable digest identifying one fault's cause.

    Hashes only path-independent material (never traceback frames), so
    serial and parallel runs of the same failure agree byte-for-byte.
    """
    payload = "\x1f".join((kind, app, message))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class Fault:
    """One app-level failure, normalized and JSON-safe."""

    app: str
    stage: str
    message: str
    traceback_digest: str = ""

    #: taxonomy tag; subclasses override
    kind = "fault"
    #: retried under ``--max-retries``?  Only worker loss qualifies.
    transient = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "app": self.app,
            "stage": self.stage,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
        }

    def describe(self) -> str:
        """One stderr line: ``app 'x': timeout at task: ...``."""
        return f"app '{self.app}': {self.kind} at {self.stage}: {self.message}"


class ParseFault(Fault):
    """MiniDroid source failed to lex/parse/lower (deterministic)."""

    kind = "parse"


class AnalysisFault(Fault):
    """The analysis pipeline raised (deterministic for a given input)."""

    kind = "analysis"


class TimeoutFault(Fault):
    """The per-app deadline expired (watchdog kill or cooperative)."""

    kind = "timeout"


class WorkerLostFault(Fault):
    """The worker process died without reporting (OOM kill, hard crash)."""

    kind = "worker-lost"
    transient = True


class FilterFault(Fault):
    """A filter crashed and was skipped (the analysis itself survived)."""

    kind = "filter"


FAULT_KINDS: Dict[str, Type[Fault]] = {
    cls.kind: cls
    for cls in (ParseFault, AnalysisFault, TimeoutFault, WorkerLostFault,
                FilterFault)
}


def fault_from_dict(payload: Dict[str, Any]) -> Fault:
    cls = FAULT_KINDS.get(payload.get("kind", ""), AnalysisFault)
    return cls(
        app=payload.get("app", ""),
        stage=payload.get("stage", ""),
        message=payload.get("message", ""),
        traceback_digest=payload.get("traceback_digest", ""),
    )


# -- canonical constructors --------------------------------------------------


def timeout_fault(app: str, seconds: Optional[float]) -> TimeoutFault:
    """The canonical deadline fault -- identical whether the watchdog
    killed a worker or the cooperative check raised in-process, so fault
    entries stay byte-identical across ``--jobs`` settings."""
    message = f"exceeded the per-app timeout of {seconds:g}s" \
        if seconds is not None else "exceeded the per-app timeout"
    return TimeoutFault(
        app=app, stage="task", message=message,
        traceback_digest=fault_digest("timeout", app, message),
    )


def worker_lost_fault(app: str) -> WorkerLostFault:
    """The canonical worker-death fault, naming the app that was running
    (instead of the opaque ``BrokenProcessPool`` crash it replaces)."""
    message = (f"worker process died while analyzing '{app}' "
               f"(possible OOM kill or hard crash)")
    return WorkerLostFault(
        app=app, stage="task", message=message,
        traceback_digest=fault_digest("worker-lost", app, message),
    )


def fault_from_exception(exc: BaseException, app: str,
                         stage: str = "task") -> Fault:
    """Classify an exception raised while analyzing ``app``.

    The mapping is the retry policy: :class:`WorkerLostFault` (and only
    it) comes back ``transient``.
    """
    if isinstance(exc, CooperativeTimeout):
        return timeout_fault(app, exc.seconds)
    if isinstance(exc, (SimulatedWorkerLoss, BrokenProcessPool)):
        return worker_lost_fault(app)
    if isinstance(exc, SourceError):
        cls: Type[Fault] = ParseFault
        message = str(exc)
    elif isinstance(exc, RecursionError):
        cls = AnalysisFault
        message = f"RecursionError: {exc}"
    else:
        cls = AnalysisFault
        message = f"{type(exc).__name__}: {exc}"
    return cls(
        app=app, stage=stage, message=message,
        traceback_digest=fault_digest(cls.kind, app, message),
    )
