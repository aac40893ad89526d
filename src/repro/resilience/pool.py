"""Fault-isolating task pool: long-lived killable workers, one app each
at a time.

The previous runner pushed every pending app through one
``ProcessPoolExecutor`` and called ``future.result()`` bare -- a single
parse error, ``RecursionError`` or OOM-killed worker
(``BrokenProcessPool``) aborted the whole run and threw away every other
app's result.  This pool keeps per-app blast radius without paying a
fork per app:

* each :func:`run_tasks` call forks ``min(jobs, pending)`` **workers**
  that serve tasks one at a time over their own ``Pipe`` until the call
  returns; the task kind and ``params`` reach them through the fork, so
  a task is just its app name on the wire;
* a worker runs one app at a time, so a dying worker still loses
  exactly one app -- the one it was running -- and is respawned for the
  rest of the queue;
* a **watchdog** enforces the per-app deadline by ``terminate()``-ing
  the overrunning worker and recording a canonical
  :class:`~repro.resilience.errors.TimeoutFault`;
* **transient** faults (worker lost) are re-submitted up to
  ``max_retries`` times; deterministic faults (parse/analysis crashes,
  timeouts) never are;
* under ``keep_going`` every fault becomes an error envelope
  ``{"error": {...}}`` and the remaining apps complete; otherwise the
  first final fault terminates every worker and aborts the run with a
  one-line actionable :class:`~repro.resilience.errors.FaultError`.

Workers are forked after the shared Android framework is built, so
they inherit it copy-on-write instead of each building its own.  A
worker that dies before replying (kill injection, OOM, segfault)
surfaces as EOF on its pipe and classifies as :class:`WorkerLostFault`.
The serial path (:func:`run_serial`) implements the same contract
in-process, with the cooperative deadline of
:mod:`repro.resilience.deadline` standing in for the watchdog, so
``--jobs 1`` and ``--jobs N`` produce byte-identical fault records.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .deadline import deadline_scope
from .errors import (
    Fault,
    fault_from_dict,
    fault_from_exception,
    FaultError,
    timeout_fault,
    worker_lost_fault,
)
from .faultinject import mark_worker_process


@dataclass(frozen=True)
class FaultPolicy:
    """How a corpus run treats app-level failures.

    The default matches the historical contract (fail fast, no deadline)
    except that failures now carry a one-line actionable message instead
    of an opaque pool traceback.
    """

    #: per-app deadline in seconds (``None`` = no deadline)
    timeout: Optional[float] = None
    #: re-submissions allowed for *transient* faults (worker lost)
    max_retries: int = 1
    #: record faults and keep running (True) or abort on the first (False)
    keep_going: bool = False


#: optional pool observer: called as ``observer(event, name, payload)``
#: with events ``"start"`` (first attempt spawned, payload ``None``),
#: ``"retry"`` (transient fault re-submitted, payload the fault),
#: ``"fault"`` (final fault recorded under keep-going, payload the
#: fault) and ``"ok"`` (payload the success envelope).  Fail-fast
#: aborts raise :class:`FaultError` without a ``"fault"`` callback.
Observer = Callable[[str, str, Any], None]


def compose_observers(
    observers: Sequence[Optional[Observer]],
) -> Optional[Observer]:
    """Fan one pool-observer slot out to several sinks.

    The runner narrates each run to up to two independent consumers --
    the ordered event log and the live telemetry aggregator -- through
    the single ``observer`` parameter; this composes them.  ``None``
    entries are dropped; an empty set composes to ``None`` (no observer
    overhead at all).  Callbacks fire in input order, on the pool's
    coordinating thread.
    """
    active = [observer for observer in observers if observer is not None]
    if not active:
        return None
    if len(active) == 1:
        return active[0]

    def observer(event: str, name: str, payload: Any) -> None:
        for callback in active:
            callback(event, name, payload)

    return observer


@dataclass
class PoolOutcome:
    """What one batch of tasks actually did."""

    #: app name -> success envelope or ``{"error": fault_dict}``
    envelopes: Dict[str, Dict[str, Any]]
    #: app name -> final fault, for the apps that failed
    faults: Dict[str, Fault]
    #: transient re-submissions performed
    retries: int = 0


def _finalize(
    name: str,
    fault: Fault,
    attempt: int,
    policy: FaultPolicy,
    outcome: PoolOutcome,
    observer: Optional[Observer] = None,
) -> bool:
    """Apply the retry/keep-going policy to one fault.

    Returns True when the task should be re-submitted; raises
    :class:`FaultError` on fail-fast; otherwise records the error
    envelope.
    """
    if fault.transient and attempt <= policy.max_retries:
        outcome.retries += 1
        if observer is not None:
            observer("retry", name, fault)
        return True
    if not policy.keep_going:
        raise FaultError(fault)
    outcome.envelopes[name] = {"error": fault.to_dict()}
    outcome.faults[name] = fault
    if observer is not None:
        observer("fault", name, fault)
    return False


# -- serial path -------------------------------------------------------------


def run_serial(
    kind: str,
    names: Sequence[str],
    params: Dict[str, Any],
    policy: FaultPolicy,
    observer: Optional[Observer] = None,
) -> PoolOutcome:
    """The in-process twin of :func:`run_parallel` (``--jobs 1``)."""
    from ..runner.runner import execute_app_task_observed

    outcome = PoolOutcome(envelopes={}, faults={})
    for name in names:
        attempt = 1
        while True:
            if attempt == 1 and observer is not None:
                observer("start", name, None)
            try:
                with deadline_scope(policy.timeout):
                    envelope = execute_app_task_observed(kind, name, params)
            except Exception as exc:
                from . import current_stage

                fault = fault_from_exception(exc, name,
                                             stage=current_stage())
                if _finalize(name, fault, attempt, policy, outcome,
                             observer):
                    attempt += 1
                    continue
                break
            outcome.envelopes[name] = envelope
            if observer is not None:
                observer("ok", name, envelope)
            break
    return outcome


# -- parallel path -----------------------------------------------------------


def _worker_main(conn, kind: str, params: Dict[str, Any],
                 inherited: Sequence[Any]) -> None:
    """Worker entry point: serve app names from the pipe until it closes
    or the parent terminates the worker, answering each with
    ``("ok", envelope)`` or a pre-classified ``("error", fault_dict)``.

    ``inherited`` holds the parent's ends of this worker's and earlier
    workers' pipes, which the fork copied; closing them lets this
    worker see EOF -- and exit -- if the parent goes away.  An injected
    ``kill`` (or a real OOM) exits without replying; the parent reads
    EOF and classifies the loss itself.
    """
    for connection in inherited:
        connection.close()
    mark_worker_process()
    from ..runner.runner import execute_app_task_observed
    from . import current_stage

    try:
        while True:
            try:
                name = conn.recv()
            except (EOFError, OSError):
                return  # the parent is gone
            try:
                reply = ("ok", execute_app_task_observed(kind, name, params))
            except Exception as exc:
                fault = fault_from_exception(exc, name, stage=current_stage())
                reply = ("error", fault.to_dict())
            try:
                conn.send(reply)
            except OSError:
                return  # the parent is gone
    except KeyboardInterrupt:
        # A terminal Ctrl-C delivers SIGINT to the whole process group,
        # so every worker gets one alongside the parent.  Exit quietly
        # -- the parent is aborting anyway and terminates its workers;
        # re-raising would spray one multiprocessing traceback per live
        # worker over the user's terminal.
        pass
    finally:
        conn.close()


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _Worker:
    """One live worker process and the task it is running, if any."""

    __slots__ = ("proc", "conn", "task", "attempt", "deadline_at")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.task: Optional[str] = None
        self.attempt = 0
        self.deadline_at: Optional[float] = None

    def stop(self) -> None:
        """Terminate the worker (busy, idle or already dead); reap it."""
        self.proc.terminate()
        self.conn.close()
        self.proc.join()


def run_parallel(
    kind: str,
    names: Sequence[str],
    params: Dict[str, Any],
    jobs: int,
    policy: FaultPolicy,
    observer: Optional[Observer] = None,
) -> PoolOutcome:
    """Fan tasks out over at most ``jobs`` long-lived workers."""
    from ..threadify import build_shared_frameworks

    # built before the first fork, so every worker inherits it
    build_shared_frameworks()
    ctx = _pool_context()
    outcome = PoolOutcome(envelopes={}, faults={})
    queue = deque((name, 1) for name in names)
    workers: List[_Worker] = []

    def spawn() -> _Worker:
        parent_conn, child_conn = ctx.Pipe()
        inherited = [parent_conn] + [worker.conn for worker in workers]
        proc = ctx.Process(target=_worker_main,
                           args=(child_conn, kind, params, inherited))
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        workers.append(worker)
        return worker

    def assign(worker: _Worker, name: str, attempt: int) -> None:
        if attempt == 1 and observer is not None:
            observer("start", name, None)
        worker.task, worker.attempt = name, attempt
        worker.deadline_at = (
            time.monotonic() + policy.timeout
            if policy.timeout is not None else None
        )
        try:
            worker.conn.send(name)
        except OSError:
            pass  # the worker is gone; its EOF surfaces as a lost worker

    def settle(worker: _Worker, fault: Fault) -> None:
        """Free the worker's task slot and apply the policy to its fault."""
        name, attempt = worker.task, worker.attempt
        worker.task = None
        if _finalize(name, fault, attempt, policy, outcome, observer):
            queue.append((name, attempt + 1))

    def lose(worker: _Worker) -> None:
        workers.remove(worker)
        worker.stop()

    try:
        while True:
            idle = [worker for worker in workers if worker.task is None]
            while queue and (idle or len(workers) < jobs):
                assign(idle.pop() if idle else spawn(), *queue.popleft())
            busy = {worker.conn: worker for worker in workers
                    if worker.task is not None}
            if not busy:
                break
            deadlines = [worker.deadline_at for worker in busy.values()
                         if worker.deadline_at is not None]
            wait_timeout = (max(0.0, min(deadlines) - time.monotonic())
                            if deadlines else None)
            for conn in connection_wait(list(busy), timeout=wait_timeout):
                worker = busy[conn]
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    lose(worker)
                    settle(worker, worker_lost_fault(worker.task))
                    continue
                if status == "ok":
                    name, worker.task = worker.task, None
                    outcome.envelopes[name] = payload
                    if observer is not None:
                        observer("ok", name, payload)
                else:
                    settle(worker, fault_from_dict(payload))
            now = time.monotonic()
            for worker in busy.values():
                if worker.task is not None and worker.deadline_at is not None \
                        and now >= worker.deadline_at:
                    lose(worker)
                    settle(worker, timeout_fault(worker.task, policy.timeout))
    finally:
        # done, failed fast or interrupted: no worker outlives the call
        for worker in workers:
            worker.stop()
    return outcome


def run_tasks(
    kind: str,
    names: Sequence[str],
    params: Dict[str, Any],
    jobs: int,
    policy: Optional[FaultPolicy] = None,
    observer: Optional[Observer] = None,
) -> PoolOutcome:
    """Execute tasks under ``policy``, parallel when ``jobs > 1`` and
    more than one task is pending."""
    policy = policy or FaultPolicy()
    if jobs > 1 and len(names) > 1:
        return run_parallel(kind, names, params, min(jobs, len(names)),
                            policy, observer)
    return run_serial(kind, names, params, policy, observer)
