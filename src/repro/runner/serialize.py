"""Serializable views of analysis results (the runner's wire format).

The parallel runner executes :func:`repro.harness.table1.build_row` (and
its figure/table siblings) in worker processes and persists the outcome in
the on-disk result cache, so everything the harness consumes downstream
must round-trip through plain JSON-compatible dicts.  This module provides
that layer:

* ``warning_to_dict`` / ``warning_from_dict`` -- a :class:`UafWarning`
  with all occurrences and their filter verdicts,
* :class:`ResultData` -- the serializable stand-in for
  :class:`repro.core.AnalysisResult` (the same
  :class:`~repro.core.WarningFunnel` accessors, minus the
  program/points-to objects which never cross process boundaries),
* ``row_to_dict`` / ``row_from_dict`` -- a full Table 1 row,
* ``config_fingerprint`` -- the canonical dict of an
  :class:`repro.core.AnalysisConfig` used in cache keys.

Warnings are sorted by a stable, content-based key on serialization so
parallel and serial runs produce byte-identical payloads regardless of
completion order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..core import AnalysisConfig, AnalysisResult, WarningFunnel
from ..filters.pipeline import FilterReport
from ..ir import FieldRef
from ..race.events import AccessEvent
from ..race.warnings import Occurrence, UafWarning, Witness


def warning_sort_key(warning: UafWarning):
    """Stable content-based ordering, independent of discovery order."""
    return (
        warning.fieldref.class_name,
        warning.fieldref.field_name,
        warning.use_method,
        warning.free_method,
        warning.use_uid,
        warning.free_uid,
    )


def _event_to_dict(event: AccessEvent) -> Dict[str, Any]:
    return {
        "node_id": event.node_id,
        "method_qname": event.method_qname,
        "uid": event.uid,
        "fieldref": [event.fieldref.class_name, event.fieldref.field_name],
        "kind": event.kind,
        "is_static": event.is_static,
        "base_local": event.base_local,
        "line": event.line,
    }


def _event_from_dict(data: Dict[str, Any]) -> AccessEvent:
    return AccessEvent(
        node_id=data["node_id"],
        method_qname=data["method_qname"],
        uid=data["uid"],
        fieldref=FieldRef(*data["fieldref"]),
        kind=data["kind"],
        is_static=data["is_static"],
        base_local=data["base_local"],
        line=data["line"],
    )


def _occurrence_to_dict(occ: Occurrence) -> Dict[str, Any]:
    return {
        "use": _event_to_dict(occ.use),
        "free": _event_to_dict(occ.free),
        "pair_type": occ.pair_type,
        "pruned_by": occ.pruned_by,
        "downgraded_by": occ.downgraded_by,
        "witness": occ.witness.to_dict() if occ.witness else None,
        "use_lineage": list(occ.use_lineage),
        "free_lineage": list(occ.free_lineage),
        "alias": occ.alias.to_dict() if occ.alias else None,
    }


def _occurrence_from_dict(data: Dict[str, Any]) -> Occurrence:
    return Occurrence(
        use=_event_from_dict(data["use"]),
        free=_event_from_dict(data["free"]),
        pair_type=data["pair_type"],
        pruned_by=data["pruned_by"],
        downgraded_by=data["downgraded_by"],
        witness=Witness.from_dict(data.get("witness")),
        use_lineage=list(data.get("use_lineage", ())),
        free_lineage=list(data.get("free_lineage", ())),
        alias=Witness.from_dict(data.get("alias")),
    )


def warning_to_dict(warning: UafWarning) -> Dict[str, Any]:
    return {
        "fieldref": [warning.fieldref.class_name, warning.fieldref.field_name],
        "use_uid": warning.use_uid,
        "free_uid": warning.free_uid,
        "use_method": warning.use_method,
        "free_method": warning.free_method,
        "occurrences": [_occurrence_to_dict(o) for o in warning.occurrences],
    }


def warning_from_dict(data: Dict[str, Any]) -> UafWarning:
    return UafWarning(
        fieldref=FieldRef(*data["fieldref"]),
        use_uid=data["use_uid"],
        free_uid=data["free_uid"],
        use_method=data["use_method"],
        free_method=data["free_method"],
        occurrences=[_occurrence_from_dict(o) for o in data["occurrences"]],
    )


def _report_to_dict(report: FilterReport) -> Dict[str, Any]:
    out = {
        "potential": report.potential,
        "after_sound": report.after_sound,
        "after_unsound": report.after_unsound,
        "sound_individual": dict(report.sound_individual),
        "unsound_individual": dict(report.unsound_individual),
    }
    # Emitted only when a filter actually degraded, so fault-free
    # payloads stay byte-identical to earlier releases.
    if report.degraded:
        out["degraded"] = [dict(entry) for entry in report.degraded]
    return out


def _report_from_dict(data: Dict[str, Any]) -> FilterReport:
    return FilterReport(
        potential=data["potential"],
        after_sound=data["after_sound"],
        after_unsound=data["after_unsound"],
        sound_individual=dict(data["sound_individual"]),
        unsound_individual=dict(data["unsound_individual"]),
        degraded=[dict(entry) for entry in data.get("degraded", ())],
    )


@dataclass
class ResultData(WarningFunnel):
    """Serializable stand-in for :class:`repro.core.AnalysisResult`.

    Carries the warnings (with filter verdicts), the filter report, stage
    timings and the EC/PC/T model sizes -- everything the harness renderers
    and the CSV export consume.  The heavyweight program/points-to/lockset
    objects stay in the worker that produced them.
    """

    warnings: List[UafWarning] = field(default_factory=list)
    report: FilterReport = field(
        default_factory=lambda: FilterReport(0, 0, 0)
    )
    timings: Dict[str, float] = field(default_factory=dict)
    model_counts: Dict[str, int] = field(default_factory=dict)

    def model_sizes(self) -> Dict[str, int]:
        return self.model_counts


def result_to_data(result: AnalysisResult) -> ResultData:
    """Project a full in-process result onto its serializable view."""
    return ResultData(
        warnings=sorted(result.warnings, key=warning_sort_key),
        report=result.report,
        timings=dict(result.timings),
        model_counts=result.model_sizes(),
    )


def result_data_to_dict(data: ResultData) -> Dict[str, Any]:
    return {
        "warnings": [warning_to_dict(w) for w in data.warnings],
        "report": _report_to_dict(data.report),
        "timings": dict(data.timings),
        "model_counts": dict(data.model_counts),
    }


def result_data_from_dict(payload: Dict[str, Any]) -> ResultData:
    return ResultData(
        warnings=[warning_from_dict(w) for w in payload["warnings"]],
        report=_report_from_dict(payload["report"]),
        timings=dict(payload["timings"]),
        model_counts=dict(payload["model_counts"]),
    )


def row_to_dict(row) -> Dict[str, Any]:
    """Serialize a :class:`repro.harness.table1.Table1Row`."""
    return {
        "app": row.app.name,
        "true_harmful": row.true_harmful,
        "confirmed_fields": list(row.confirmed_fields),
        "fp_breakdown": dict(row.fp_breakdown),
        "result": result_data_to_dict(row.result),
    }


def row_from_dict(payload: Dict[str, Any]):
    from ..corpus import app
    from ..harness.table1 import Table1Row

    return Table1Row(
        app=app(payload["app"]),
        result=result_data_from_dict(payload["result"]),
        true_harmful=payload["true_harmful"],
        confirmed_fields=list(payload["confirmed_fields"]),
        fp_breakdown=dict(payload["fp_breakdown"]),
    )


def config_fingerprint(config: Optional[AnalysisConfig]) -> Dict[str, Any]:
    """Canonical dict of an analysis configuration (``None`` = defaults).

    Every knob participates, so any config change -- ``k``, a detector
    option, a filter option -- invalidates cached results.
    """
    return asdict(config if config is not None else AnalysisConfig())
