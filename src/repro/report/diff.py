"""Run-diff: compare two report JSONs and gate on regressions.

``repro diff OLD NEW`` classifies every warning-id present in either
report:

* **new** -- in NEW only.  A new *remaining* warning is a regression.
* **fixed** -- in OLD only.
* **changed** -- in both with a different status.  A change *to*
  ``remaining`` (a filter stopped firing) is a regression; a change away
  from it is an improvement.

plus the per-app :mod:`repro.obs` counter deltas (NEW minus OLD, summed
over apps; zero deltas are omitted, so identical reports diff to an empty
delta map).  ``--fail-on-new`` turns regressions into a non-zero exit
code -- the CI gate against ``benchmarks/golden_report.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple


@dataclass(frozen=True)
class WarningDelta:
    """One warning's change between two reports."""

    warning_id: str
    old_status: str   #: "" when the warning is new
    new_status: str   #: "" when the warning is fixed (gone)

    @property
    def is_regression(self) -> bool:
        """New-remaining, or changed-to-remaining."""
        return self.new_status == "remaining" and self.old_status != "remaining"


@dataclass
class ReportDiff:
    """Everything that changed between OLD and NEW."""

    new: List[WarningDelta] = field(default_factory=list)
    fixed: List[WarningDelta] = field(default_factory=list)
    changed: List[WarningDelta] = field(default_factory=list)
    #: summed obs counter deltas (NEW - OLD), non-zero entries only
    metric_deltas: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not (self.new or self.fixed or self.changed
                    or self.metric_deltas)

    def regressions(self) -> List[WarningDelta]:
        return [d for d in (*self.new, *self.changed) if d.is_regression]


def _statuses(report: Dict[str, Any]) -> Dict[str, str]:
    """``warning_id -> status`` from a report's dict form."""
    out: Dict[str, str] = {}
    for app in report.get("apps", {}).values():
        for warning in app.get("warnings", ()):
            out[warning["id"]] = warning["status"]
    return out


def _metric_totals(report: Dict[str, Any]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for app in report.get("apps", {}).values():
        for name, value in app.get("metrics", {}).items():
            totals[name] = totals.get(name, 0) + int(value)
    return totals


def diff_reports(old: Dict[str, Any], new: Dict[str, Any]) -> ReportDiff:
    """Compare two reports in their dict (JSON) form."""
    old_statuses = _statuses(old)
    new_statuses = _statuses(new)
    diff = ReportDiff()
    for wid in sorted(old_statuses.keys() | new_statuses.keys()):
        old_status = old_statuses.get(wid, "")
        new_status = new_statuses.get(wid, "")
        if not old_status:
            diff.new.append(WarningDelta(wid, "", new_status))
        elif not new_status:
            diff.fixed.append(WarningDelta(wid, old_status, ""))
        elif old_status != new_status:
            diff.changed.append(WarningDelta(wid, old_status, new_status))

    old_metrics = _metric_totals(old)
    new_metrics = _metric_totals(new)
    for name in sorted(old_metrics.keys() | new_metrics.keys()):
        delta = new_metrics.get(name, 0) - old_metrics.get(name, 0)
        if delta:
            diff.metric_deltas[name] = delta
    return diff


def _describe(deltas: List[WarningDelta]) -> List[str]:
    lines = []
    for delta in deltas:
        if not delta.old_status:
            change = f"new ({delta.new_status})"
        elif not delta.new_status:
            change = f"fixed (was {delta.old_status})"
        else:
            change = f"{delta.old_status} -> {delta.new_status}"
        marker = " [REGRESSION]" if delta.is_regression else ""
        lines.append(f"  {delta.warning_id}: {change}{marker}")
    return lines


def render_diff(diff: ReportDiff) -> str:
    if diff.clean:
        return "reports are identical (0 warning changes, 0 metric deltas)"
    lines: List[str] = [
        f"{len(diff.new)} new, {len(diff.fixed)} fixed, "
        f"{len(diff.changed)} changed-classification; "
        f"{len(diff.regressions())} regression(s)"
    ]
    if diff.new:
        lines.append("new warnings:")
        lines.extend(_describe(diff.new))
    if diff.fixed:
        lines.append("fixed warnings:")
        lines.extend(_describe(diff.fixed))
    if diff.changed:
        lines.append("changed classification:")
        lines.extend(_describe(diff.changed))
    if diff.metric_deltas:
        # Hotspot attribution counters are numerous (one per method /
        # context pair) and usually change together, e.g.
        # when one side predates the hotspot namespace entirely; a
        # single summary line keeps the diff readable.  They still
        # participate in `clean`, just not line-by-line.
        plain = {name: value for name, value in diff.metric_deltas.items()
                 if not name.startswith("hotspot.")}
        hotspot_count = len(diff.metric_deltas) - len(plain)
        lines.append("metric deltas (new - old):")
        lines.extend(
            f"  {name}: {value:+d}"
            for name, value in sorted(plain.items())
        )
        if hotspot_count:
            lines.append(
                f"  (+{hotspot_count} hotspot.* attribution counter "
                f"delta(s) not listed)"
            )
    else:
        lines.append("metric deltas: none")
    return "\n".join(lines)


def exit_code(diff: ReportDiff, fail_on_new: bool) -> int:
    """0 = acceptable, 1 = regressions present (only with the gate on)."""
    if fail_on_new and diff.regressions():
        return 1
    return 0
