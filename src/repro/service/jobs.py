"""The job layer: "one analysis job" separated from "one CLI invocation".

Historically the unit of work was a CLI process: ``repro analyze`` read
files, ran the pipeline, rendered, and exited.  The ``repro serve``
daemon needs the same unit *without* the process -- specified by a
request body, scheduled onto the resilience pool, cached, and rendered
into the same artifacts.  This module is that seam:

* :class:`AppSource` / :class:`JobSpec` -- a self-contained description
  of one job: which apps (each a named bundle of MiniDroid sources),
  which :class:`~repro.core.AnalysisConfig` knobs, and which fault
  policy.  Specs are plain data; they serialize to/from the JSON the
  service API accepts.
* :func:`execute_job` -- run a spec on a :class:`~repro.runner
  .CorpusRunner` (the existing worker pool + content-addressed
  cache) and assemble a :class:`JobResult`.
* :class:`JobResult` -- the job's report (byte-identical to the
  ``repro analyze --report-out`` artifact for single-app specs), SARIF,
  run stats and structured faults.

Byte-identity contract: for a single-app spec, :meth:`JobResult
.report_json` equals the file ``repro analyze FILE... --report-out``
writes, byte for byte, regardless of daemon ``--jobs`` or cache
temperature (``tests/service`` pins this over the full 27-app corpus).
Both paths build their report through :func:`single_app_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import AnalysisConfig
from ..report import (
    build_app_report,
    build_report,
    fault_app_report,
    report_to_json,
    report_to_sarif,
)
from ..resilience import FaultPolicy
from ..runner.serialize import result_data_from_dict

#: the app key single-app jobs report under -- the same constant the
#: ``repro analyze`` path uses, so the two artifacts line up byte-wise
SINGLE_APP_NAME = "app"


class JobSpecError(ValueError):
    """A request described an invalid job (bad field type, empty
    sources...)."""


@dataclass(frozen=True)
class AppSource:
    """One application: a name plus its (path, text) source files."""

    name: str
    files: Tuple[Tuple[str, str], ...]

    @classmethod
    def from_dict(cls, payload: Dict[str, Any],
                  name: Optional[str] = None) -> "AppSource":
        app_name = name if name is not None else payload.get("name")
        if not app_name or not isinstance(app_name, str):
            raise JobSpecError("every app needs a non-empty string name")
        files = payload.get("files")
        if not isinstance(files, list) or not files:
            raise JobSpecError(
                f"app {app_name!r}: 'files' must be a non-empty list of "
                f"{{path, text}} objects"
            )
        pairs: List[Tuple[str, str]] = []
        for entry in files:
            if not isinstance(entry, dict) \
                    or not isinstance(entry.get("path"), str) \
                    or not isinstance(entry.get("text"), str):
                raise JobSpecError(
                    f"app {app_name!r}: each file needs string 'path' "
                    f"and 'text' fields"
                )
            pairs.append((entry["path"], entry["text"]))
        return cls(name=app_name, files=tuple(pairs))


@dataclass(frozen=True)
class JobSpec:
    """Everything that determines one analysis job's outcome."""

    apps: Tuple[AppSource, ...]
    k: int = 2
    client: str = "anonymous"
    #: per-job deadline/retry policy (``None`` timeout = no deadline)
    timeout: Optional[float] = None
    max_retries: int = 1
    #: also render SARIF for this job
    sarif: bool = False

    def __post_init__(self) -> None:
        if not self.apps:
            raise JobSpecError("a job needs at least one app")
        if self.k < 0:
            raise JobSpecError("k must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise JobSpecError("timeout must be a positive number of seconds")
        if self.max_retries < 0:
            raise JobSpecError("max_retries must be >= 0")
        names = [app.name for app in self.apps]
        if len(set(names)) != len(names):
            raise JobSpecError("app names within a job must be unique")

    def config(self) -> AnalysisConfig:
        return AnalysisConfig(k=self.k)

    def policy(self) -> FaultPolicy:
        """Per-job fault policy: a daemon always keeps going -- one bad
        app costs a structured fault entry, never the whole job."""
        return FaultPolicy(timeout=self.timeout,
                           max_retries=self.max_retries,
                           keep_going=True)

    @classmethod
    def from_request(cls, payload: Dict[str, Any],
                     batch: bool) -> "JobSpec":
        """Build a spec from a ``POST /v1/analyze`` (or ``/v1/batch``)
        JSON body.  Raises :class:`JobSpecError` on malformed input."""
        if not isinstance(payload, dict):
            raise JobSpecError("request body must be a JSON object")
        if batch:
            entries = payload.get("apps")
            if not isinstance(entries, list) or not entries:
                raise JobSpecError(
                    "'apps' must be a non-empty list of "
                    "{name, files} objects"
                )
            apps = tuple(AppSource.from_dict(entry) for entry in entries)
        else:
            # single-app jobs report under the CLI's app key so the
            # daemon artifact is byte-identical to `repro analyze`
            apps = (AppSource.from_dict(payload, name=SINGLE_APP_NAME),)
        client = payload.get("client", "anonymous")
        if not isinstance(client, str) or not client:
            raise JobSpecError("'client' must be a non-empty string")
        timeout = payload.get("timeout")
        try:
            timeout = None if timeout is None else float(timeout)
        except (TypeError, ValueError) as exc:
            raise JobSpecError(f"bad numeric field: {exc}") from exc
        sarif = payload.get("sarif", False)
        if not isinstance(sarif, bool):
            raise JobSpecError("'sarif' must be true or false")
        return cls(
            apps=apps,
            k=_integer_field(payload, "k", 2),
            client=client,
            timeout=timeout,
            max_retries=_integer_field(payload, "max_retries", 1),
            sarif=sarif,
        )


def _integer_field(payload: Dict[str, Any], key: str, default: int) -> int:
    """``payload[key]`` as a JSON integer: ``true`` and ``2.9`` are
    rejected rather than coerced."""
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(
            f"bad numeric field {key!r}: expected an integer, got {value!r}"
        )
    return value


@dataclass
class JobResult:
    """What one executed job produced."""

    #: the assembled run report (model object; exporters hang off it)
    report: Any
    #: fan-out/cache behaviour: analyzed/cached/faulted/retries plus the
    #: cache hit/miss/store counters -- the warm-path evidence
    stats: Dict[str, int] = field(default_factory=dict)
    #: structured fault records, in input-app order
    faults: List[Dict[str, Any]] = field(default_factory=list)
    #: whether SARIF was requested for this job
    sarif: bool = False

    def report_json(self) -> str:
        """Canonical report text -- the exact bytes ``--report-out``
        writes for the same sources."""
        return report_to_json(self.report)

    def sarif_dict(self) -> Optional[Dict[str, Any]]:
        return report_to_sarif(self.report) if self.sarif else None

    def counts(self) -> Dict[str, Dict[str, int]]:
        """Per-app funnel counts (the quick-look summary in job status)."""
        return {
            name: dict(app.counts)
            for name, app in sorted(self.report.apps.items())
        }


def single_app_report(result, source: Optional[str], metrics=None):
    """The one-app :class:`~repro.report.AnalysisReport` of a single
    analysis: app keyed :data:`SINGLE_APP_NAME`, sourced at the first
    input path.  ``repro analyze``/``explain`` build their report here;
    the daemon's single-app jobs use the same app key (via
    :meth:`JobSpec.from_request`) and the same ``build_app_report``
    projection, so the two artifacts cannot drift apart byte-wise."""
    return build_report([
        build_app_report(SINGLE_APP_NAME, result, source=source,
                         metrics=metrics)
    ])


#: ``JobResult.stats`` key -> the run-snapshot counter it reports
JOB_STATS = {
    "analyzed": "runner.apps.analyzed",
    "cached": "runner.apps.cached",
    "faulted": "runner.apps.faulted",
    "retries": "runner.retries",
    "cache_hits": "runner.cache.hits",
    "cache_misses": "runner.cache.misses",
    "cache_stores": "runner.cache.stores",
}


def execute_job(spec: JobSpec, runner) -> JobResult:
    """Run one job on a :class:`~repro.runner.CorpusRunner`.

    The runner provides everything the daemon needs per job: the
    worker pool (``jobs`` fan-out within the job), the
    content-addressed cache (cross-job warm path), fault isolation under
    the spec's policy, and per-app metrics snapshots for the report.
    """
    params: Dict[str, Any] = {
        "config": spec.config(),
        "sources": {
            app.name: [list(pair) for pair in app.files]
            for app in spec.apps
        },
    }
    names = [app.name for app in spec.apps]
    payloads, metrics = runner.run("analyze", names, params)

    app_reports = []
    faults: List[Dict[str, Any]] = []
    for app, payload in zip(spec.apps, payloads):
        if "error" in payload:
            faults.append(dict(payload["error"]))
            app_reports.append(fault_app_report(payload["error"]))
            continue
        result = result_data_from_dict(payload["result"])
        app_reports.append(build_app_report(
            app.name,
            result,
            source=app.files[0][0],
            metrics=metrics.apps.get(app.name),
        ))
    report = build_report(app_reports)
    return JobResult(
        report=report,
        stats={key: metrics.run.counters.get(counter, 0)
               for key, counter in JOB_STATS.items()},
        faults=faults,
        sarif=spec.sarif,
    )
