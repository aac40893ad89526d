"""Shared plumbing for the benchmark: paths, statistics, the result line.

Every file the benchmark writes goes under ``WORK`` inside the checkout,
and the program under test is always the checkout's own ``src/`` tree,
never an installed copy.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN_REPORT = ROOT / "benchmarks" / "golden_report.json"

#: a latency percentile is reported only with this many samples beyond it
SAMPLES_BEYOND_P95 = 10
MIN_LATENCY_SAMPLES = SAMPLES_BEYOND_P95 * 20


class BenchError(Exception):
    """The benchmark cannot run here (missing program, daemon died...)."""


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under ``WORK``; the caller removes it."""
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def chunked_percentile(groups: Sequence[Sequence[float]], q: float) -> float:
    """Median over chunks of ``q``-percentiles: consecutive groups (passes
    or load segments) are pooled into chunks of at least
    ``MIN_LATENCY_SAMPLES`` samples, so every chunk leaves at least
    ``SAMPLES_BEYOND_P95`` beyond its p95 and a slow spell of the host
    moves one chunk, not the run's figure."""
    chunks: List[List[float]] = []
    pending: List[float] = []
    for group in groups:
        pending.extend(group)
        if len(pending) >= MIN_LATENCY_SAMPLES:
            chunks.append(pending)
            pending = []
    if pending:
        if chunks:
            chunks[-1].extend(pending)
        else:
            chunks.append(pending)
    return median(percentile(chunk, q) for chunk in chunks)


def rss_kb(pid: int, field: str) -> int:
    """A ``VmRSS``/``VmHWM`` line of ``/proc/<pid>/status``, in kB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise BenchError(f"no {field} for pid {pid}")


# -- warning identity ----------------------------------------------------------


def warning_keys(warnings) -> List[Tuple[str, str]]:
    """App-independent ``(warning id, status)`` pairs, sorted.

    Report ids are ``<app>::<field>::use:<line>::free:<line>``; the app
    prefix is dropped so a daemon report (keyed ``app``) compares with a
    runner result keyed by the app's own name.
    """
    from repro.report import warning_id

    return sorted(
        (warning_id("_", w).split("::", 1)[1], w.status) for w in warnings
    )


def report_warning_keys(app_payload: Dict) -> List[Tuple[str, str]]:
    """The same pairs from one app entry of a report JSON."""
    return sorted(
        (w["id"].split("::", 1)[1], w["status"])
        for w in app_payload["warnings"]
    )


# -- output --------------------------------------------------------------------


class Result:
    """Attempted/failed operations plus named metrics, in print order."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}

    def check(self, ok: bool, problem: str) -> bool:
        """Count one checked operation; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def fail(self, problem: str) -> None:
        self.check(False, problem)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def emit(self, workload: str, names: Sequence[str]) -> int:
        """Print the human summary, then the JSON result line.

        ``names`` selects (and orders) the metrics of the JSON line; the
        summary lists every metric measured.  Returns the exit code.
        """
        for problem in self.problems:
            print(f"[check] FAILED: {problem}", file=sys.stderr)
        ratio = self.failed / self.attempted if self.attempted else 1.0
        print(f"{workload} fail_ratio = {ratio:.6g} ratio "
              f"({self.failed}/{self.attempted})")
        for name, (value, unit) in self.metrics.items():
            print(f"{workload} {name} = {value:.6g} {unit}")
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
        correct = self.failed == 0 and self.attempted > 0
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0],
                       "unit": self.metrics[name][1]}
                for name in names
            },
        }), flush=True)
        return 0 if correct else 1


def load_benchmark_spec() -> Dict:
    """``BENCHMARK.json`` at the checkout root (metric names and units)."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)
