"""Serializable metric snapshots and cross-process merging.

The corpus runner analyzes each app in its own worker process under a
fresh :class:`repro.obs.Recorder`; the recorder's snapshot travels back
(and into the result cache) as a plain dict.  :func:`merge_snapshots`
combines per-app snapshots into corpus totals.  Counters are summed --
every counter the pipeline records is an additive quantity.  Gauges are
*measurements*, not additive quantities, so they merge by policy:

* gauges matching :data:`PEAK_GAUGE_PATTERN` (``*.peak_*``, e.g.
  ``mem.app.peak_kb``) are high-water marks and merge **max-wins**;
* every other same-named gauge merges **last-write-wins** (input order),
  matching ``Recorder.set_gauge`` semantics within one process.

Span trees are concatenated in input order, so a merged snapshot is
independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List

#: gauges whose names match this pattern are high-water marks: merging
#: two snapshots keeps the max instead of the last-written value
PEAK_GAUGE_PATTERN = "*.peak_*"


@dataclass
class MetricsSnapshot:
    """One recorder's counters, gauges, and serialized span trees."""

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: span trees as ``Span.to_dict`` payloads (JSON-safe)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "spans": list(self.spans),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSnapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            spans=list(data.get("spans", ())),
        )

    def stage_seconds(self) -> Dict[str, float]:
        """Per-stage seconds: ``{stage: seconds, ..., "total": their sum}``.

        The stages are the children of each root span -- for one app's
        snapshot, the ``app:<name>`` root's lowering/modeling/detection/
        filtering.  Over a merged snapshot, each stage sums its apps.
        """
        stages: Dict[str, float] = {}
        for root in self.spans:
            for child in root.get("children", ()):
                stages[child["name"]] = stages.get(child["name"], 0.0) \
                    + (child.get("duration_s") or 0.0)
        stages["total"] = sum(stages.values())
        return stages


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Sum counters; merge gauges by policy; concatenate span trees.

    Gauge policy (see the module docstring): ``*.peak_*`` gauges are
    high-water marks and take the max across snapshots; any other
    same-named gauge is last-write-wins in input order.
    """
    merged = MetricsSnapshot()
    for snap in snapshots:
        for name, value in snap.counters.items():
            merged.counters[name] = merged.counters.get(name, 0) + value
        for name, value in snap.gauges.items():
            if fnmatchcase(name, PEAK_GAUGE_PATTERN) \
                    and name in merged.gauges:
                merged.gauges[name] = max(merged.gauges[name], value)
            else:
                merged.gauges[name] = value
        merged.spans.extend(snap.spans)
    return merged
