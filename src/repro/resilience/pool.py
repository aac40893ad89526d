"""Fault-isolating task pool: long-lived killable workers, one app each
at a time.

One parse error, ``RecursionError`` or OOM-killed worker must cost one
app's result, never the whole run.  This pool keeps per-app blast radius
without paying a fork per app:

* a :class:`WorkerPool` forks at most ``jobs`` **workers**, on demand,
  that serve tasks one at a time over their own ``Pipe``.  Workers
  outlive a single :meth:`WorkerPool.run`: :func:`run_tasks` opens a
  pool for one call (the CLI), while the ``repro serve`` daemon keeps
  one for its whole lifetime.  A task message carries its kind, its app
  name and its params: a request's ``sources`` narrowed to that app's
  own files, and params a run shares sent once per worker;
* a worker runs one app at a time, so a dying worker still loses
  exactly one app -- the one it was running -- and is respawned when
  work next needs it;
* a **watchdog** enforces the per-app deadline by ``terminate()``-ing
  the overrunning worker and recording a canonical
  :class:`~repro.resilience.errors.TimeoutFault`.  It is the only
  timeout mechanism: :func:`run_tasks` sends every timed run through
  the workers, even at ``--jobs 1`` or with a single pending app;
* **transient** faults (worker lost) are re-submitted up to
  ``max_retries`` times; deterministic faults (parse/analysis crashes,
  timeouts) never are;
* under ``keep_going`` every fault becomes an error envelope
  ``{"error": {...}}`` and the remaining apps complete; otherwise the
  first final fault terminates every busy worker and aborts the run
  with a one-line actionable :class:`~repro.resilience.errors.FaultError`.

Workers are forked after the shared Android framework is built, so
they inherit it copy-on-write instead of each building its own.  A
worker that dies before replying (kill injection, OOM, segfault)
surfaces as EOF on its pipe and classifies as :class:`WorkerLostFault`.
An untimed run with one worker's worth of work, no planted ``kill`` and
no pool of its own takes the in-process path (:func:`run_serial`),
which applies the same retry and keep-going policy, so ``--jobs 1`` and
``--jobs N`` produce byte-identical fault records.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence

from .errors import (
    Fault,
    fault_from_dict,
    fault_from_exception,
    FaultError,
    timeout_fault,
    worker_lost_fault,
)
from .faultinject import active_plan


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
#: ``"fault"`` (final fault, payload the fault) and ``"ok"`` (payload
#: the success envelope).  Under fail-fast the ``"fault"`` callback
#: fires before :class:`FaultError` aborts the run.
Observer = Callable[[str, str, Any], None]


@dataclass
class PoolOutcome:
    """What one batch of tasks actually did."""

    #: app name -> success envelope or ``{"error": fault_dict}``
    envelopes: Dict[str, Dict[str, Any]]
    #: app name -> final fault, for the apps that failed
    faults: Dict[str, Fault]


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
        if observer is not None:
            observer("retry", name, fault)
        return True
    if observer is not None:
        observer("fault", name, fault)
    if not policy.keep_going:
        raise FaultError(fault)
    outcome.envelopes[name] = {"error": fault.to_dict()}
    outcome.faults[name] = fault
    return False


# -- serial path -------------------------------------------------------------


def run_serial(
    kind: str,
    names: Sequence[str],
    params: Dict[str, Any],
    policy: FaultPolicy,
    observer: Optional[Observer] = None,
) -> PoolOutcome:
    """The in-process twin of :meth:`WorkerPool.run` for untimed runs."""
    from ..runner.runner import execute_app_task_observed

    outcome = PoolOutcome(envelopes={}, faults={})
    for name in names:
        attempt = 1
        while True:
            if attempt == 1 and observer is not None:
                observer("start", name, None)
            try:
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


# -- worker pool -------------------------------------------------------------


def _wire_params(params: Dict[str, Any], name: str) -> Dict[str, Any]:
    """One task's params on the wire: a request's ``sources`` map (the
    ``analyze`` kind) narrowed to the task's own app, so no worker
    receives -- or unpickles -- another app's files."""
    sources = params.get("sources")
    if sources is None:
        return params
    return {**params, "sources": {name: sources[name]}}


def _worker_main(conn, inherited: Sequence[Any]) -> None:
    """Worker entry point: serve ``(kind, name, params)`` tasks from the
    pipe until it closes or the parent terminates the worker, answering
    each with ``("ok", envelope)`` or a pre-classified
    ``("error", fault_dict)``.  ``params`` is ``None`` when it is the
    same as the previous task's.

    ``inherited`` holds the parent's ends of this worker's and the other
    live workers' pipes, which the fork copied; closing them lets this
    worker see EOF -- and exit -- if the parent goes away.  An injected
    ``kill`` (or a real OOM) exits without replying; the parent reads
    EOF and classifies the loss itself.
    """
    for connection in inherited:
        connection.close()
    from ..runner.runner import execute_app_task_observed
    from . import current_stage

    last_params = None
    try:
        while True:
            try:
                kind, name, params = conn.recv()
            except (EOFError, OSError):
                return  # the parent is gone
            if params is None:
                params = last_params
            last_params = params
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

    __slots__ = ("proc", "conn", "task", "attempt", "deadline_at", "params")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.task: Optional[str] = None
        self.attempt = 0
        self.deadline_at: Optional[float] = None
        #: the params object this worker last received
        self.params: Optional[Dict[str, Any]] = None

    def stop(self) -> None:
        """Terminate the worker (busy, idle or already dead); reap it."""
        self.proc.terminate()
        self.conn.close()
        self.proc.join()


class WorkerPool:
    """At most ``jobs`` long-lived worker processes, forked on demand.

    Workers are forked lazily, by the first :meth:`run` that has work
    for them, and survive from one run to the next; one that dies or is
    killed by the watchdog is replaced only when work next needs a
    worker.  Runs are serialized (one at a time per pool), and between
    runs every worker is idle: a run that ends abnormally (fail-fast,
    interrupt) terminates the workers still busy on it, so no stale
    reply can reach the next run.  :meth:`close` terminates every
    worker; a closed pool forks no more.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))
        self._workers: List[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Terminate and reap every worker; the pool forks no more."""
        self._closed = True
        for worker in list(self._workers):
            self._lose(worker)

    def _lose(self, worker: _Worker) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        worker.stop()

    def _spawn(self) -> _Worker:
        from ..threadify import build_shared_frameworks

        if self._closed:
            raise RuntimeError("the worker pool is closed")
        # built before the fork, so every worker inherits it
        build_shared_frameworks()
        ctx = _pool_context()
        parent_conn, child_conn = ctx.Pipe()
        inherited = [parent_conn] + [worker.conn for worker in self._workers]
        proc = ctx.Process(target=_worker_main,
                           args=(child_conn, inherited), daemon=True)
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        self._workers.append(worker)
        return worker

    def run(
        self,
        kind: str,
        names: Sequence[str],
        params: Dict[str, Any],
        policy: FaultPolicy,
        observer: Optional[Observer] = None,
    ) -> PoolOutcome:
        """Fan ``kind`` tasks for ``names`` out over the workers."""
        with self._lock:
            try:
                return self._run(kind, names, params, policy, observer)
            except BaseException:
                # failed fast or interrupted: a busy worker's late reply
                # would be read as the next run's, so it goes
                for worker in list(self._workers):
                    if worker.task is not None:
                        self._lose(worker)
                raise

    def _run(self, kind: str, names: Sequence[str], params: Dict[str, Any],
             policy: FaultPolicy,
             observer: Optional[Observer]) -> PoolOutcome:
        outcome = PoolOutcome(envelopes={}, faults={})
        queue = deque((name, 1) for name in names)
        workers = self._workers
        for worker in list(workers):
            # died while idle (say, OOM-killed between runs): replace it
            # instead of charging its loss to this run's first app
            if not worker.proc.is_alive():
                self._lose(worker)

        def assign(worker: _Worker, name: str, attempt: int) -> None:
            if attempt == 1 and observer is not None:
                observer("start", name, None)
            worker.task, worker.attempt = name, attempt
            worker.deadline_at = (
                time.monotonic() + policy.timeout
                if policy.timeout is not None else None
            )
            wire = _wire_params(params, name)
            # a run's shared params cross each worker's pipe once
            message = (kind, name, None if wire is worker.params else wire)
            worker.params = wire
            try:
                worker.conn.send(message)
            except OSError:
                pass  # the worker is gone; its EOF surfaces as a lost worker

        def settle(worker: _Worker, fault: Fault) -> None:
            """Free the worker's task slot and apply the policy to its
            fault."""
            name, attempt = worker.task, worker.attempt
            worker.task = None
            if _finalize(name, fault, attempt, policy, outcome, observer):
                queue.append((name, attempt + 1))

        while True:
            idle = [worker for worker in workers if worker.task is None]
            while queue and (idle or len(workers) < self.jobs):
                assign(idle.pop() if idle else self._spawn(),
                       *queue.popleft())
            busy = {worker.conn: worker for worker in workers
                    if worker.task is not None}
            if not busy:
                return outcome
            deadlines = [worker.deadline_at for worker in busy.values()
                         if worker.deadline_at is not None]
            wait_timeout = (max(0.0, min(deadlines) - time.monotonic())
                            if deadlines else None)
            for conn in connection_wait(list(busy), timeout=wait_timeout):
                worker = busy[conn]
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    self._lose(worker)
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
                    self._lose(worker)
                    settle(worker, timeout_fault(worker.task, policy.timeout))


def run_tasks(
    kind: str,
    names: Sequence[str],
    params: Dict[str, Any],
    jobs: int,
    policy: Optional[FaultPolicy] = None,
    observer: Optional[Observer] = None,
    pool: Optional[WorkerPool] = None,
) -> PoolOutcome:
    """Execute tasks under ``policy``.

    On ``pool`` when one is given (the daemon's: every task runs in a
    worker).  Otherwise in worker processes of a pool opened for this
    call when the policy sets a timeout (the watchdog needs a process to
    kill), when the active fault plan has a ``kill`` (it exits the
    process it fires in) or when ``jobs > 1`` and more than one task is
    pending; and in-process otherwise."""
    policy = policy or FaultPolicy()
    if pool is not None:
        return pool.run(kind, names, params, policy, observer)
    plan = active_plan()
    if policy.timeout is not None or (plan is not None and plan.kills()) \
            or (jobs > 1 and len(names) > 1):
        with WorkerPool(min(jobs, len(names))) as call_pool:
            return call_pool.run(kind, names, params, policy, observer)
    return run_serial(kind, names, params, policy, observer)
