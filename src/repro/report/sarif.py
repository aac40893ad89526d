"""SARIF 2.1.0 export of an :class:`AnalysisReport`.

One run object per report; one reporting rule per warning origin category
(the paper's EC-EC ... T-T pair types of section 7), so code-scanning UIs
can group and gate by category.  Surviving warnings are ``warning``-level
results; downgraded ones ship as ``note``-level results (the section-6.2
ranking interpretation: reviewable, not deleted).  Pruned warnings stay
out of SARIF -- their witnesses live in the JSON report and ``explain``.

Each result carries:

* ``locations`` -- the use site (artifact = the app source, region = the
  IR source line),
* ``relatedLocations`` -- the free site plus the callback lineage of both
  threads, root-first, so the ordering-violation scenario is readable in
  a viewer without re-running the analysis.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..obs.export import write_json
from ..race.warnings import PAIR_TYPES, UafWarning
from .model import AnalysisReport, AppReport, warning_id, warning_lines

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_RULE_DESCRIPTIONS = {
    "EC-EC": "use/free pair between two entry callbacks",
    "EC-PC": "use/free pair between an entry and a posted callback",
    "PC-PC": "use/free pair between two posted callbacks",
    "C-RT": "use/free pair between a callback and a thread it reaches",
    "C-NT": "use/free pair between a callback and an unrelated thread",
    "T-T": "use/free pair between two native threads",
}


def rule_id(pair_type: str) -> str:
    return f"uaf-{pair_type}"


def _rules() -> List[Dict[str, Any]]:
    return [
        {
            "id": rule_id(pair_type),
            "name": f"UseAfterFree{pair_type.replace('-', '')}",
            "shortDescription": {
                "text": f"Potential use-after-free ordering violation "
                        f"({_RULE_DESCRIPTIONS[pair_type]})",
            },
            "defaultConfiguration": {"level": "warning"},
        }
        for pair_type in PAIR_TYPES
    ]


def _location(uri: str, line: int, message: str) -> Dict[str, Any]:
    location: Dict[str, Any] = {
        "physicalLocation": {
            "artifactLocation": {"uri": uri},
            "region": {"startLine": max(1, int(line))},
        },
    }
    if message:
        location["message"] = {"text": message}
    return location


def _lineage_messages(side: str, lineage) -> List[str]:
    return [
        f"{side} lineage[{depth}]: {entry.get('entry', '?')}"
        for depth, entry in enumerate(lineage)
    ]


def _result(app: AppReport, warning: UafWarning) -> Dict[str, Any]:
    uri = app.source or f"{app.name}.mjava"
    lines = warning_lines(warning)
    field = f"{warning.fieldref.class_name}.{warning.fieldref.field_name}"
    shown = warning.surviving_occurrences() or warning.occurrences
    related: List[Dict[str, Any]] = [
        _location(uri, lines["free"],
                  f"the free: {warning.free_method} stores null into "
                  f"{field}"),
    ]
    if shown:
        occ = shown[0]
        for message in _lineage_messages("use", occ.use_lineage):
            related.append(_location(uri, lines["use"], message))
        for message in _lineage_messages("free", occ.free_lineage):
            related.append(_location(uri, lines["free"], message))
    pair_type = warning.pair_type()
    rules_index = PAIR_TYPES.index(pair_type)
    return {
        "ruleId": rule_id(pair_type),
        "ruleIndex": rules_index,
        "level": "warning" if warning.status == "remaining" else "note",
        "message": {
            "text": (f"Potential use-after-free on {field}: "
                     f"{warning.use_method} (line {lines['use']}) may run "
                     f"after {warning.free_method} (line {lines['free']}) "
                     f"frees it [{pair_type}, {warning.status}]"),
        },
        "locations": [
            _location(uri, lines["use"],
                      f"the use: {warning.use_method} dereferences "
                      f"{field}"),
        ],
        "relatedLocations": related,
        "partialFingerprints": {
            "nadroidWarningId": warning_id(app.name, warning),
        },
    }


def _notifications(report: AnalysisReport) -> List[Dict[str, Any]]:
    """Tool-execution notifications for faulted apps and degraded filters.

    SARIF separates *results* (findings about the code) from
    *notifications* (conditions of the analysis itself); an app whose
    analysis failed, or a filter that crashed and was skipped, is the
    latter.  Levels: an app fault is an ``error``; a crashed *sound*
    filter is a ``warning`` (the paper's precision bar no longer holds);
    a crashed unsound filter is a ``note`` (only ranking was lost).
    """
    notifications: List[Dict[str, Any]] = []
    for name, app in sorted(report.apps.items()):
        if app.fault is not None:
            fault = app.fault
            notifications.append({
                "level": "error",
                "descriptor": {"id": f"fault/{fault.get('kind', 'fault')}"},
                "message": {
                    "text": (f"analysis of app '{name}' failed at stage "
                             f"'{fault.get('stage', '?')}': "
                             f"{fault.get('message', '')}"),
                },
                "properties": {"fault": dict(fault)},
            })
        for entry in app.degraded:
            notifications.append({
                "level": "warning" if entry.get("sound") else "note",
                "descriptor": {"id": "fault/filter"},
                "message": {
                    "text": (f"app '{name}': filter '{entry.get('filter')}' "
                             f"crashed and was skipped "
                             f"({entry.get('message', '')}); warnings it "
                             f"would have pruned survive"),
                },
                "properties": {"degraded": dict(entry)},
            })
    return notifications


def report_to_sarif(report: AnalysisReport) -> Dict[str, Any]:
    results: List[Dict[str, Any]] = []
    for _, app in sorted(report.apps.items()):
        for warning in app.warnings:
            if warning.status == "pruned":
                continue
            results.append(_result(app, warning))
    run: Dict[str, Any] = {
        "tool": {
            "driver": {
                "name": "nadroid-repro",
                "version": report.version,
                "informationUri":
                    "https://doi.org/10.1145/3168829",
                "rules": _rules(),
            },
        },
        "results": results,
    }
    # The invocation object appears only when there is something to say,
    # keeping fault-free SARIF byte-identical to earlier releases.
    notifications = _notifications(report)
    if notifications:
        run["invocations"] = [{
            "executionSuccessful": not any(
                app.fault is not None for app in report.apps.values()
            ),
            "toolExecutionNotifications": notifications,
        }]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [run],
    }


def write_sarif(report: AnalysisReport, path) -> None:
    write_json(path, report_to_sarif(report))
