"""Typed fault taxonomy for fault-tolerant corpus runs.

One bad app must cost exactly one result, never the whole run.  Every
failure mode the runner can observe is normalized into a :class:`Fault`
-- a small, JSON-safe record ``{kind, app, stage, message,
traceback_digest}`` that rides in the runner's error envelopes, the
report JSON (per-app ``fault`` entries) and SARIF tool-execution
notifications.

Determinism contract: the same failure produces a byte-identical fault
record on the in-process path (an untimed ``--jobs 1`` run) and the
worker-process path.  Canonical constructors (:func:`timeout_fault`,
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


# -- exceptions the resilience layer itself raises ---------------------------


class InjectedFaultError(RuntimeError):
    """A deterministic crash planted by the fault-injection harness."""


class FaultError(RuntimeError):
    """Fail-fast surface: one app's fault aborted the run.

    The message is the one-line actionable form the CLI prints -- it
    names the app that was running.
    """

    def __init__(self, fault: "Fault") -> None:
        self.fault = fault
        super().__init__(
            f"analysis of app '{fault.app}' failed "
            f"[{fault.kind}, stage {fault.stage}]: {fault.message}"
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
    """The per-app deadline expired and the watchdog killed the worker."""

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
    """The canonical deadline fault the watchdog records: it embeds
    nothing schedule-dependent, so fault entries stay byte-identical
    across ``--jobs`` settings."""
    message = f"exceeded the per-app timeout of {seconds:g}s" \
        if seconds is not None else "exceeded the per-app timeout"
    return TimeoutFault(
        app=app, stage="task", message=message,
        traceback_digest=fault_digest("timeout", app, message),
    )


def worker_lost_fault(app: str) -> WorkerLostFault:
    """The canonical worker-death fault, naming the app that was running."""
    message = (f"worker process died while analyzing '{app}' "
               f"(possible OOM kill or hard crash)")
    return WorkerLostFault(
        app=app, stage="task", message=message,
        traceback_digest=fault_digest("worker-lost", app, message),
    )


def fault_from_exception(exc: BaseException, app: str,
                         stage: str = "task") -> Fault:
    """Classify an exception raised while analyzing ``app``.

    An exception is always a deterministic fault (never retried); the
    one transient fault, a lost worker, raises nothing -- the pool reads
    it as EOF on the worker's pipe (:func:`worker_lost_fault`).
    """
    if isinstance(exc, SourceError):
        cls: Type[Fault] = ParseFault
        message = str(exc)
    else:
        cls = AnalysisFault
        message = f"{type(exc).__name__}: {exc}"
    return cls(
        app=app, stage=stage, message=message,
        traceback_digest=fault_digest(cls.kind, app, message),
    )
