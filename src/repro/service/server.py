"""The ``repro serve`` daemon: analysis as a service over loopback HTTP.

Zero new dependencies -- the server is the same stdlib ``http.server``
stack as :mod:`repro.obs.telemetry` (and shares its
:class:`~repro.obs.telemetry.LoopbackHTTPServer` base: ``SO_REUSEADDR``
on, daemonic handler threads, **127.0.0.1 only**).  Two layers:

* :class:`AnalysisService` -- the scheduler.  Holds the long-lived warm
  state (the content-addressed :class:`~repro.runner.ResultCache`, the
  interned framework model, which its workers inherit) and the
  daemon-lifetime :class:`~repro.resilience.WorkerPool` of ``--jobs``
  workers on which every analysis runs: this process parses requests,
  reads the cache, builds and renders reports, and never analyzes.  A
  job whose apps all hit the cache is answered at admission, on its
  request thread; any other job queues for a single drain thread that
  runs cold jobs one at a time on a :class:`~repro.runner.CorpusRunner`
  (``--jobs N`` fan-out *within* each job keeps results deterministic).
  Admission control: a bounded queue (:class:`QueueFullError` -> HTTP
  429 with ``Retry-After``) and round-robin fairness over client ids, so
  one chatty client cannot starve the rest.
* :class:`ServiceServer` -- the HTTP front.  ``POST /v1/analyze`` /
  ``POST /v1/batch`` submit jobs (``"wait": true`` blocks until done),
  ``GET /v1/jobs[/<id>[/report|/sarif]]`` reads them back (the
  ``JOB_HISTORY`` most recently finished jobs are kept), and the
  :class:`~repro.obs.LiveAggregator` telemetry routes (``/metrics``,
  ``/healthz``, ``/progress``) are mounted on the same port.

The report endpoint serves the *canonical* report text --
byte-identical to ``repro analyze --report-out`` for the same sources
(see :mod:`repro.service.jobs`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..obs.telemetry import (
    LiveAggregator,
    LoopbackHTTPServer,
    TELEMETRY_HOST,
    telemetry_response,
)
from ..resilience import FaultPolicy, WorkerPool
from ..runner import CorpusRunner, ResultCache
from .jobs import execute_job, fully_cached, JobResult, JobSpec

#: default bound on queued (not yet running) jobs
DEFAULT_QUEUE_LIMIT = 8

#: finished jobs kept for ``GET /v1/jobs``; older ones are forgotten, so
#: a long-running daemon's memory stays bounded
JOB_HISTORY = 256

#: job lifecycle states
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")


class QueueFullError(Exception):
    """Admission control rejected a submit: the queue is at its bound."""

    def __init__(self, depth: int, limit: int,
                 retry_after: int = 1) -> None:
        super().__init__(
            f"job queue is full ({depth}/{limit} queued); "
            f"retry in {retry_after}s"
        )
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after


@dataclass
class Job:
    """One submitted job and everything known about it so far."""

    id: str
    spec: JobSpec
    status: str = "queued"
    result: Optional[JobResult] = None
    #: one-line reason when status == "failed"
    error: Optional[str] = None
    #: wall seconds the job spent executing (None until finished)
    wall_seconds: Optional[float] = None
    done: threading.Event = field(default_factory=threading.Event)

    def to_dict(self) -> Dict[str, Any]:
        """The ``GET /v1/jobs/<id>`` payload (links, not blobs: the
        report/SARIF bodies live at their own endpoints)."""
        out: Dict[str, Any] = {
            "id": self.id,
            "client": self.spec.client,
            "status": self.status,
            "apps": [app.name for app in self.spec.apps],
        }
        if self.wall_seconds is not None:
            out["wall_seconds"] = round(self.wall_seconds, 6)
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out["counts"] = self.result.counts()
            out["stats"] = dict(self.result.stats)
            if self.result.faults:
                out["faults"] = [dict(f) for f in self.result.faults]
            out["report"] = f"/v1/jobs/{self.id}/report"
            if self.result.sarif:
                out["sarif"] = f"/v1/jobs/{self.id}/sarif"
        return out


class AnalysisService:
    """The daemon's scheduler: bounded fair queue + one drain thread,
    in front of the daemon-lifetime worker pool.

    Cold jobs execute strictly one at a time (parallelism lives *inside*
    a job via the pool's ``jobs`` workers), which keeps every job's
    results byte-identical to a standalone run.  A job whose apps all
    hit the cache skips the queue and runs on the submitting thread; it
    analyzes nothing, and each run counts its own cache traffic, so its
    stats match a queued run's.  The pool forks its workers at the
    first cold job, not at start-up, and :meth:`shutdown` terminates
    them.

    Call :meth:`start` to begin draining; tests can submit first and
    start later to exercise admission control deterministically.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        policy: Optional[FaultPolicy] = None,
        telemetry: Optional[LiveAggregator] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.default_policy = policy or FaultPolicy(keep_going=True)
        self.telemetry = telemetry
        self.queue_limit = max(0, int(queue_limit))
        #: the workers every analysis of this daemon runs on
        self.pool = WorkerPool(self.jobs)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        #: per-client FIFO queues, drained round-robin
        self._queues: Dict[str, Deque[Job]] = {}
        #: client rotation order (head = next to be served)
        self._rotation: List[str] = []
        self._jobs: Dict[str, Job] = {}
        #: ids of finished jobs still in ``_jobs``, oldest first
        self._finished: Deque[str] = deque()
        self._seq = 0
        self._stop = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "AnalysisService":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._drain, name="nadroid-service", daemon=True
            )
            self._thread.start()
        return self

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop draining: the in-flight job finishes, queued jobs are
        cancelled (their waiters released), the drain thread joins and
        the pool's workers are terminated."""
        with self._wake:
            self._stop = True
            for queue in self._queues.values():
                while queue:
                    job = queue.popleft()
                    job.status = "cancelled"
                    job.done.set()
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self.pool.close()

    # -- submission / lookup --------------------------------------------------

    def queue_depth(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._queues.values())

    def submit(self, spec: JobSpec) -> Job:
        """Admit one job.  A job whose apps all hit the cache runs to
        completion on the calling thread before this returns; any other
        is queued, and raises :class:`QueueFullError` at the bound."""
        runner = self._make_runner(spec)
        warm = fully_cached(spec, runner)
        with self._wake:
            if self._stop:
                raise QueueFullError(0, self.queue_limit)
            depth = sum(len(q) for q in self._queues.values())
            if not warm and depth >= self.queue_limit:
                raise QueueFullError(depth, self.queue_limit)
            self._seq += 1
            job = Job(id=f"j{self._seq}", spec=spec)
            self._jobs[job.id] = job
            if not warm:
                if spec.client not in self._queues:
                    self._queues[spec.client] = deque()
                    self._rotation.append(spec.client)
                self._queues[spec.client].append(job)
                self._wake.notify_all()
                return job
            job.status = "running"
        self._execute(job, runner)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def forgotten(self, job_id: str) -> bool:
        """Was ``job_id`` issued, finished, and since dropped from the
        history?"""
        seq = job_id[1:]
        with self._lock:
            return job_id[:1] == "j" and seq.isdigit() \
                and 0 < int(seq) <= self._seq and job_id not in self._jobs

    def list_jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: Optional[float] = None) \
            -> Optional[Job]:
        job = self.get(job_id)
        if job is None:
            return None
        job.done.wait(timeout=timeout)
        return job

    # -- the drain thread -----------------------------------------------------

    def _next_job(self) -> Optional[Job]:
        """Round-robin: serve the first client in rotation with queued
        work, then rotate it to the back."""
        for index, client in enumerate(self._rotation):
            queue = self._queues.get(client)
            if queue:
                self._rotation.append(self._rotation.pop(index))
                return queue.popleft()
        return None

    def _make_runner(self, spec: JobSpec) -> CorpusRunner:
        """A fresh (cheap) runner per job: per-job policy, shared warm
        cache, shared telemetry aggregator, shared worker pool."""
        policy = spec.policy()
        if policy.timeout is None and self.default_policy.timeout:
            policy = FaultPolicy(timeout=self.default_policy.timeout,
                                 max_retries=policy.max_retries,
                                 keep_going=True)
        return CorpusRunner(jobs=self.jobs, cache=self.cache,
                            policy=policy, telemetry=self.telemetry,
                            pool=self.pool)

    def _drain(self) -> None:
        while True:
            with self._wake:
                job = self._next_job()
                while job is None and not self._stop:
                    self._wake.wait()
                    job = self._next_job()
                if job is None:
                    return
                job.status = "running"
            self._execute(job, self._make_runner(job.spec))

    def _execute(self, job: Job, runner: CorpusRunner) -> None:
        """Run one admitted job to its end state and file it in the
        history (on the drain thread, or on the request thread of a job
        answered at admission)."""
        if self.telemetry is not None:
            self.telemetry.set_phase(f"job:{job.id}")
        started = time.perf_counter()
        try:
            job.result = execute_job(job.spec, runner)
            job.status = "done"
        except Exception as exc:  # a job must never kill the daemon
            job.error = f"{type(exc).__name__}: {exc}"
            job.status = "failed"
        job.wall_seconds = time.perf_counter() - started
        with self._lock:
            self._finished.append(job.id)
            while len(self._finished) > JOB_HISTORY:
                del self._jobs[self._finished.popleft()]
        job.done.set()


# -- the HTTP front ----------------------------------------------------------


def _json_body(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes the job API plus the shared telemetry surface."""

    server_version = "nadroid-service"

    # -- plumbing -------------------------------------------------------------

    def _send(self, status: int, content_type: str, body: str,
              headers: Optional[Dict[str, str]] = None) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send(status, "application/json; charset=utf-8",
                   _json_body(payload), headers)

    def _error(self, status: int, message: str,
               headers: Optional[Dict[str, str]] = None) -> None:
        self._send_json(status, {"error": message}, headers)

    @property
    def _service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    @property
    def _aggregator(self) -> LiveAggregator:
        return self.server.aggregator  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        """Suppressed: the daemon's stderr carries its own lines."""

    # -- GET ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        response = telemetry_response(self._aggregator, path)
        if response is not None:
            self._send(*response)
            return
        if path == "/v1/jobs":
            self._send_json(200, {
                "jobs": [job.to_dict() for job in
                         self._service.list_jobs()],
                "queued": self._service.queue_depth(),
            })
            return
        if path.startswith("/v1/jobs/"):
            parts = path[len("/v1/jobs/"):].split("/")
            job = self._service.get(parts[0])
            if job is None and self._service.forgotten(parts[0]):
                self._error(410, f"job {parts[0]!r} is older than the "
                            f"{JOB_HISTORY} most recently finished jobs "
                            f"and was forgotten")
                return
            if job is None:
                self._error(404, f"no such job {parts[0]!r}")
                return
            if len(parts) == 1:
                self._send_json(200, job.to_dict())
                return
            if parts[1:] == ["report"] and job.result is not None:
                # the canonical artifact: exactly the --report-out bytes
                self._send(200, "application/json; charset=utf-8",
                           job.result.report_json())
                return
            if parts[1:] == ["sarif"] and job.result is not None:
                sarif = job.result.sarif_dict()
                if sarif is not None:
                    self._send(200, "application/json; charset=utf-8",
                               json.dumps(sarif, sort_keys=True, indent=2))
                    return
            self._error(404, f"no such artifact for job {parts[0]!r}")
            return
        self._error(404, "not found")

    # -- POST -----------------------------------------------------------------

    def _read_body(self) -> Optional[Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length <= 0:
            self._error(400, "request body required")
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
            return None
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return payload

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        from .jobs import JobSpecError

        path = self.path.split("?", 1)[0]
        if path not in ("/v1/analyze", "/v1/batch"):
            self._error(404, "not found")
            return
        payload = self._read_body()
        if payload is None:
            return
        try:
            spec = JobSpec.from_request(payload, batch=(path == "/v1/batch"))
        except JobSpecError as exc:
            self._error(400, str(exc))
            return
        try:
            job = self._service.submit(spec)
        except QueueFullError as exc:
            self._error(429, str(exc),
                        headers={"Retry-After": str(exc.retry_after)})
            return
        if payload.get("wait"):
            self._service.wait(job.id)
            self._send_json(200, job.to_dict())
            return
        self._send_json(202, job.to_dict(),
                        headers={"Location": f"/v1/jobs/{job.id}"})


class ServiceServer:
    """The daemon's HTTP front: bind 127.0.0.1, serve the job API and
    the telemetry surface on one port.

    ``port=0`` asks the OS for a free port; read :attr:`port` after
    :meth:`bind`.  :meth:`start` serves on a background thread (tests);
    :meth:`serve_forever` serves on the calling thread (the CLI
    foreground path, so SIGINT lands as ``KeyboardInterrupt``).
    """

    def __init__(self, service: AnalysisService,
                 aggregator: Optional[LiveAggregator] = None,
                 port: int = 0) -> None:
        self.service = service
        self.aggregator = aggregator if aggregator is not None \
            else (service.telemetry or LiveAggregator())
        self.requested_port = int(port)
        self._server: Optional[LoopbackHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> Optional[int]:
        return self._server.server_address[1] if self._server else None

    @property
    def url(self) -> Optional[str]:
        if self._server is None:
            return None
        return f"http://{TELEMETRY_HOST}:{self.port}"

    def bind(self) -> "ServiceServer":
        """Bind the listening socket (raises ``OSError`` when a fixed
        port is taken) without serving yet."""
        if self._server is None:
            server = LoopbackHTTPServer(
                (TELEMETRY_HOST, self.requested_port), _ServiceHandler
            )
            server.service = self.service  # type: ignore[attr-defined]
            server.aggregator = self.aggregator  # type: ignore[attr-defined]
            self._server = server
        return self

    def start(self) -> "ServiceServer":
        """Bind and serve on a daemon thread (also starts the service's
        drain thread)."""
        self.bind()
        self.service.start()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="nadroid-service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or a
        ``KeyboardInterrupt`` on the CLI path)."""
        self.bind()
        self.service.start()
        self._server.serve_forever()

    def close(self) -> None:
        if self._server is not None:
            if self._thread is not None:
                self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.shutdown()
