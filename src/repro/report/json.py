"""Deterministic JSON form of an :class:`AnalysisReport`.

The report file is a *diffable artifact*: keys are sorted at every level,
warnings are ordered by the runner's content-based sort key, and only
deterministic quantities are included (counters, never wall-clock), so
two runs of the same sources produce byte-identical files regardless of
``--jobs``, cache temperature or host speed.  ``tests/report`` pins this.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from ..obs.export import canonical_json
from ..runner.serialize import warning_from_dict, warning_to_dict
from .model import (
    AnalysisReport,
    AppReport,
    build_report,
    REPORT_SCHEMA,
    warning_id,
    warning_lines,
)


def _warning_to_dict(app_name: str, warning) -> Dict[str, Any]:
    payload = warning_to_dict(warning)
    payload["id"] = warning_id(app_name, warning)
    payload["status"] = warning.status
    payload["pair_type"] = warning.pair_type()
    payload["lines"] = warning_lines(warning)
    return payload


def _app_to_dict(name: str, app: AppReport) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "counts": dict(app.counts),
        "source": app.source,
        "metrics": dict(app.metrics),
        "warnings": [_warning_to_dict(name, w) for w in app.warnings],
    }
    # Fault-tolerance keys appear only on runs that needed them, so
    # fault-free reports stay byte-identical to earlier releases.
    if app.fault is not None:
        out["fault"] = dict(app.fault)
    if app.degraded:
        out["degraded"] = [dict(entry) for entry in app.degraded]
    return out


def report_to_dict(report: AnalysisReport) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "schema": report.schema,
        "version": report.version,
        "apps": {
            name: _app_to_dict(name, app)
            for name, app in sorted(report.apps.items())
        },
    }
    # Artifact pointers appear only when the run wrote sibling files
    # (--trace-out / --events-out), keeping plain reports byte-identical.
    if report.artifacts:
        out["artifacts"] = {
            key: report.artifacts[key] for key in sorted(report.artifacts)
        }
    return out


def report_from_dict(payload: Dict[str, Any]) -> AnalysisReport:
    if payload.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"unsupported report schema {payload.get('schema')!r} "
            f"(expected {REPORT_SCHEMA})"
        )
    report = build_report([
        AppReport(
            name=name,
            counts=dict(app["counts"]),
            warnings=[warning_from_dict(w) for w in app["warnings"]],
            source=app.get("source"),
            metrics=dict(app.get("metrics", {})),
            fault=dict(app["fault"]) if app.get("fault") else None,
            degraded=[dict(e) for e in app.get("degraded", ())],
        )
        for name, app in payload.get("apps", {}).items()
    ])
    report.version = payload.get("version", report.version)
    report.artifacts = dict(payload.get("artifacts", {}))
    return report


def report_to_json(report: AnalysisReport) -> str:
    """Canonical text: sorted keys, two-space indent, trailing newline."""
    return canonical_json(report_to_dict(report))


def write_report(report: AnalysisReport, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report_to_json(report))


def load_report(path) -> Dict[str, Any]:
    """Read a report file back as its dict form (the diff's input)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
