"""The ``repro serve`` daemon as a child process, and its load generator.

:class:`Daemon` starts ``repro serve --jobs 1`` on a fresh cache
directory, times its start-up until ``/healthz`` answers, and stops it
with SIGINT (exit code 130 is the only clean stop).  :func:`drive` runs
closed-loop clients: each POSTs one app with ``wait: true``, then GETs
the job's report, then sends the next.
"""

from __future__ import annotations

import http.client
import json
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from common import (
    BenchError, child_env, median, remove_dir, ROOT, rss_kb, scratch_dir,
)
from inputs import App, request_body

LISTENING = re.compile(r"listening on 127\.0\.0\.1:(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 120.0
#: requests completed before the daemon's baseline RSS is sampled
WARMUP_REQUESTS = 20


class Daemon:
    """One ``repro serve`` child process with its own cache directory."""

    def __init__(self) -> None:
        self.cache_dir = scratch_dir("cache-")
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", "1", "--cache-dir", str(self.cache_dir)],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port(started)
            self._await_health(started)
        except BaseException:
            self.kill()
            raise
        #: seconds from process start until /healthz answered
        self.setup_s = time.perf_counter() - started

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self, started: float) -> int:
        while True:
            left = START_TIMEOUT_S - (time.perf_counter() - started)
            try:
                line = self._lines.get(timeout=max(left, 0.01))
            except queue.Empty:
                raise BenchError("daemon did not print its port") from None
            if line is None:
                raise BenchError(
                    f"daemon exited before listening ({self.proc.wait()})")
            match = LISTENING.search(line)
            if match:
                return int(match.group(1))

    def _await_health(self, started: float) -> None:
        while time.perf_counter() - started < START_TIMEOUT_S:
            try:
                status, body = self.request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchError("daemon /healthz never answered")

    def request(self, method: str, path: str,
                body: Optional[Dict] = None) -> Tuple[int, str]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if body is None else \
                {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()

    def rss_kb(self, field: str = "VmRSS") -> int:
        return rss_kb(self.proc.pid, field)

    def stop(self) -> int:
        """SIGINT, wait, clean up; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            code = self.proc.returncode
        self._reader.join(timeout=STOP_TIMEOUT_S)
        remove_dir(self.cache_dir)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        remove_dir(self.cache_dir)


def stopped_cleanly(daemon: Daemon) -> bool:
    return daemon.stop() == 130


@dataclass
class Exchange:
    """One POST + GET round trip."""

    app: App
    repeat: bool
    latency_s: float = 0.0
    status: int = 0
    #: the job record's fields, when the POST succeeded
    job_wall_s: Optional[float] = None
    warm: Optional[bool] = None
    report: Optional[str] = None
    error: Optional[str] = None


@dataclass
class Load:
    """Everything one :func:`drive` call observed."""

    exchanges: List[Exchange] = field(default_factory=list)
    wall_s: float = 0.0
    rss_after_warmup_kb: int = 0

    def ok(self) -> List[Exchange]:
        return [x for x in self.exchanges if x.error is None]


def _exchange(daemon: Daemon, app: App, repeat: bool,
              client: str) -> Exchange:
    body = request_body(app, client)
    out = Exchange(app=app, repeat=repeat)
    started = time.perf_counter()
    try:
        status, text = daemon.request("POST", "/v1/analyze", body)
        out.status = status
        if status != 200:
            out.error = f"POST {app.name}: HTTP {status}"
            return out
        job = json.loads(text)
        if job.get("status") != "done" or job.get("faults"):
            out.error = f"POST {app.name}: job {job.get('status')}"
            return out
        status, report = daemon.request(
            "GET", f"/v1/jobs/{job['id']}/report")
        out.latency_s = time.perf_counter() - started
        out.status = status
        if status != 200:
            out.error = f"GET report {app.name}: HTTP {status}"
            return out
        out.job_wall_s = float(job["wall_seconds"])
        out.warm = job["stats"]["cache_hits"] > 0
        out.report = report
    except (OSError, ValueError, KeyError) as exc:
        out.error = f"{app.name}: {type(exc).__name__}: {exc}"
    return out


def drive(daemon: Daemon, stream: Iterator[Tuple[App, bool]],
          clients: int, seconds: Optional[float]) -> Load:
    """Closed-loop load: ``clients`` threads share ``stream``.

    With ``seconds`` the clients stop taking new requests once that
    much time has passed; without it they run until the (finite) stream
    ends.
    """
    load = Load()
    lock = threading.Lock()
    started = time.perf_counter()

    def client(ident: str) -> None:
        while True:
            with lock:
                if seconds is not None \
                        and time.perf_counter() - started >= seconds:
                    return
                try:
                    app, repeat = next(stream)
                except StopIteration:
                    return
            result = _exchange(daemon, app, repeat, ident)
            with lock:
                load.exchanges.append(result)
                if len(load.exchanges) == WARMUP_REQUESTS:
                    load.rss_after_warmup_kb = daemon.rss_kb()

    threads = [threading.Thread(target=client, args=(f"client-{i}",))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    load.wall_s = time.perf_counter() - started
    if not load.rss_after_warmup_kb:
        load.rss_after_warmup_kb = daemon.rss_kb()
    return load


def service_metrics(daemon: Daemon, load: Load) -> Dict[str, Tuple[float, str]]:
    """The service/obs per-layer numbers of one load, read from outside."""
    ok = load.ok()
    status, text = daemon.request("GET", "/metrics")
    if status != 200:
        raise BenchError(f"GET /metrics: HTTP {status}")
    cold = [x.latency_s * 1000 for x in ok if not x.warm]
    warm = [x.latency_s * 1000 for x in ok if x.warm]
    return {
        "service.job_wall_ms_p50":
            (median(x.job_wall_s * 1000 for x in ok), "ms"),
        "service.overhead_ms_p50":
            (median((x.latency_s - x.job_wall_s) * 1000 for x in ok), "ms"),
        "service.rejected":
            (sum(1 for x in load.exchanges if x.status == 429), "count"),
        "service.rss_growth_kb":
            (daemon.rss_kb() - load.rss_after_warmup_kb, "kB"),
        "service.cold_latency_p50_ms": (median(cold) if cold else 0.0, "ms"),
        "service.warm_latency_p50_ms": (median(warm) if warm else 0.0, "ms"),
        "obs.metrics_lines": (len(text.splitlines()), "count"),
    }
