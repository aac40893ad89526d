"""Deterministic fault injection: make a named app/stage raise, hang or die.

Every fault-tolerance behaviour in this repo -- error envelopes, the
watchdog kill, transient retries, graceful filter degradation -- is
tested by *planting* the failure rather than hoping for one.  A
:class:`FaultPlan` names which (app, stage) pairs misbehave and how:

``{"faults": [{"app": "todolist", "stage": "detection",
               "action": "raise"}],
   "state_dir": null, "hang_seconds": 3600.0}``

Actions:

* ``raise``       -- raise :class:`InjectedFaultError` (a deterministic
  analysis fault; never retried),
* ``parse-error`` -- raise a MiniDroid :class:`ParseError` (classifies
  as a :class:`ParseFault`; never retried),
* ``hang``        -- block until the watchdog kills the worker or
  ``hang_seconds`` elapse,
* ``kill``        -- ``os._exit`` the worker mid-task (a real worker
  loss, retried as transient); a run whose plan has one runs its apps
  in worker processes (:func:`repro.resilience.run_tasks`).

``times: K`` limits a spec to the first K attempts, which is how
retry-succeeds scenarios are scripted; attempt counts persist across
worker processes via marker files in ``state_dir`` (required whenever
``times`` is set).  ``times: null`` (the default) always fires and needs
no state, which keeps cold-vs-warm-cache runs byte-identical.

Activation: programmatically via :func:`install`, or through the
``NADROID_FAULT_PLAN`` environment variable holding either inline JSON
or a path to a JSON file -- the environment form is what reaches worker
processes and CI. The active plan's digest participates in the runner's
cache fingerprint so injected results never poison the regular cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from ..lang.errors import ParseError
from .errors import InjectedFaultError

ENV_VAR = "NADROID_FAULT_PLAN"

ACTIONS = ("raise", "parse-error", "hang", "kill")


@dataclass(frozen=True)
class FaultSpec:
    """One planted failure: ``app`` (or ``"*"``), ``stage``, ``action``."""

    app: str
    stage: str
    action: str
    times: Optional[int] = None

    def matches(self, app: str, stage: str) -> bool:
        return self.stage == stage and self.app in (app, "*")

    def to_dict(self) -> Dict[str, Any]:
        return {"app": self.app, "stage": self.stage,
                "action": self.action, "times": self.times}


@dataclass(frozen=True)
class FaultPlan:
    """A set of :class:`FaultSpec` entries plus shared knobs."""

    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    #: directory for cross-process attempt markers (required with times)
    state_dir: Optional[str] = None
    #: upper bound on a ``hang`` so an un-watched hang still terminates
    hang_seconds: float = 3600.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "faults": [spec.to_dict() for spec in self.faults],
            "state_dir": self.state_dir,
            "hang_seconds": self.hang_seconds,
        }

    def kills(self) -> bool:
        """Whether a spec exits the process it fires in."""
        return any(spec.action == "kill" for spec in self.faults)

    def digest(self) -> str:
        """Stable content hash, mixed into runner cache fingerprints."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "FaultPlan":
        specs = []
        for entry in payload.get("faults", ()):
            action = entry.get("action", "raise")
            if action not in ACTIONS:
                raise ValueError(
                    f"unknown fault action {action!r}; expected one of "
                    f"{ACTIONS}"
                )
            specs.append(FaultSpec(
                app=entry.get("app", "*"),
                stage=entry.get("stage", "task"),
                action=action,
                times=entry.get("times"),
            ))
        plan = FaultPlan(
            faults=tuple(specs),
            state_dir=payload.get("state_dir"),
            hang_seconds=float(payload.get("hang_seconds", 3600.0)),
        )
        if plan.state_dir is None and any(
            spec.times is not None for spec in plan.faults
        ):
            raise ValueError(
                "a fault plan with 'times' limits needs a 'state_dir' for "
                "cross-process attempt markers"
            )
        return plan

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        return FaultPlan.from_dict(json.loads(text))


_INSTALLED: ContextVar[Optional[FaultPlan]] = ContextVar(
    "nadroid-fault-plan", default=None
)

#: memoized (raw env string, parsed plan)
_ENV_CACHE: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


@contextmanager
def install(plan: Optional[FaultPlan]) -> Iterator[None]:
    """Activate ``plan`` for the enclosed block (tests, in-process runs).

    Workers forked inside the block (a pool :func:`repro.resilience
    .run_tasks` opens, as it does for a plan with a ``kill``) inherit
    it; longer-lived workers need the ``NADROID_FAULT_PLAN`` variable.
    """
    token = _INSTALLED.set(plan)
    try:
        yield
    finally:
        _INSTALLED.reset(token)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else the environment plan, else ``None``."""
    global _ENV_CACHE
    installed = _INSTALLED.get()
    if installed is not None:
        return installed
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _ENV_CACHE[0] == raw:
        return _ENV_CACHE[1]
    text = raw if raw.lstrip().startswith("{") else Path(raw).read_text()
    plan = FaultPlan.from_json(text)
    _ENV_CACHE = (raw, plan)
    return plan


# -- attempt accounting ------------------------------------------------------


def _claim_attempt(plan: FaultPlan, spec: FaultSpec) -> bool:
    """Should this spec fire now?  ``times=None`` always fires (stateless);
    otherwise the first K attempts claim marker files under
    ``state_dir`` -- atomic-create, so the count survives worker deaths
    and crosses process boundaries."""
    if spec.times is None:
        return True
    root = Path(plan.state_dir)
    root.mkdir(parents=True, exist_ok=True)
    key = f"{spec.app}.{spec.stage}.{spec.action}".replace("*", "any") \
        .replace(":", "_").replace("/", "_")
    while True:
        used = len(list(root.glob(f"{key}.attempt.*")))
        if used >= spec.times:
            return False
        try:
            (root / f"{key}.attempt.{used}").touch(exist_ok=False)
            return True
        except FileExistsError:  # lost a race; recount
            continue


# -- firing ------------------------------------------------------------------


def maybe_fault(app: Optional[str], stage: str) -> None:
    """Fire any planted fault matching (``app``, ``stage``).  No-op --
    one dict lookup -- when no plan is active."""
    plan = _INSTALLED.get()
    if plan is None and ENV_VAR not in os.environ:
        return
    plan = active_plan()
    if plan is None:
        return
    name = app or ""
    for spec in plan.faults:
        if not spec.matches(name, stage):
            continue
        if not _claim_attempt(plan, spec):
            continue
        if spec.action == "raise":
            raise InjectedFaultError(
                f"injected fault in app '{name}' at stage '{stage}'"
            )
        if spec.action == "parse-error":
            raise ParseError(
                f"injected parse fault at stage '{stage}'",
                1, 1, f"{name}.mjava",
            )
        if spec.action == "hang":
            # until the watchdog kills the worker; an untimed run has no
            # watchdog, so hang_seconds is the backstop
            time.sleep(plan.hang_seconds)
            return
        if spec.action == "kill":
            os._exit(17)
