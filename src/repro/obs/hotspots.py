"""Hotspot attribution: who burns the time inside the points-to fixpoint.

Stage spans say *how long* detection took; hotspot metrics say *where*
inside it.  The points-to worklist solver attributes its inner loop to
named units of work under the ``hotspot.`` metric namespace: per
``(method, context)`` pair, how often the pair was popped and the
cumulative ``_process`` time (``hotspot.pointsto.pair.<key>.pops`` /
``.seconds``).  ``pointsto.pair`` is the one attribution domain.

Counts land in **counters** (deterministic: identical across ``--jobs``
settings and gated by ``bench --compare``, see
:data:`repro.harness.bench.GATED_COUNTER_PREFIXES`); times land in
**gauges** (measurements).  Both ride inside the ordinary
:class:`~repro.obs.metrics.MetricsSnapshot`, so they cross the worker
process boundary, enter the result-cache envelope, and replay on cache
hits exactly like span trees do.

:func:`collect_hotspots` turns snapshots back into a ranked table;
ranking is by the deterministic count (then name), never by time, so a
top-K table is byte-identical across runs once the time column is
normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

#: metric namespace prefix shared by every attribution counter/gauge
HOTSPOT_PREFIX = "hotspot."

#: the one attribution domain: points-to ``(method, context)`` pairs
DOMAIN = "pointsto.pair"
_DOMAIN_PREFIX = f"{HOTSPOT_PREFIX}{DOMAIN}."

#: counter suffixes that carry the deterministic count of a unit
_COUNT_METRICS = ("pops",)
#: gauge suffix that carries the cumulative seconds of a unit
_TIME_METRIC = "seconds"


@dataclass
class HotspotEntry:
    """One attributed unit of work, aggregated over snapshots."""

    domain: str   #: ``pointsto.pair``
    name: str     #: ``method@context`` key
    count: int    #: worklist pops
    seconds: float

    @property
    def sort_key(self) -> Tuple:
        """Deterministic ranking: count descending, then domain, name."""
        return (-self.count, self.domain, self.name)


def _parse(metric: str) -> Tuple[str, str, str]:
    """Split ``hotspot.pointsto.pair.<name>.<metric>``; raises ValueError."""
    if metric.startswith(_DOMAIN_PREFIX):
        name, _, suffix = metric[len(_DOMAIN_PREFIX):].rpartition(".")
        if name and suffix:
            return DOMAIN, name, suffix
    raise ValueError(f"unrecognized hotspot metric {metric!r}")


def collect_hotspots(snapshots: Iterable[Any]) -> List[HotspotEntry]:
    """Aggregate ``hotspot.*`` metrics from snapshots into ranked entries.

    Counts and seconds are *summed* across snapshots (per-app snapshots
    of one corpus run aggregate into corpus-wide attribution; the same
    pair in two apps is one row).  Unparseable ``hotspot.*`` names are
    ignored -- forward compatibility with newer emitters.
    """
    counts: Dict[Tuple[str, str], int] = {}
    seconds: Dict[Tuple[str, str], float] = {}
    for snapshot in snapshots:
        for metric, value in snapshot.counters.items():
            if not metric.startswith(HOTSPOT_PREFIX):
                continue
            try:
                domain, name, suffix = _parse(metric)
            except ValueError:
                continue
            if suffix in _COUNT_METRICS:
                key = (domain, name)
                counts[key] = counts.get(key, 0) + int(value)
        for metric, value in snapshot.gauges.items():
            if not metric.startswith(HOTSPOT_PREFIX):
                continue
            try:
                domain, name, suffix = _parse(metric)
            except ValueError:
                continue
            if suffix == _TIME_METRIC:
                key = (domain, name)
                seconds[key] = seconds.get(key, 0.0) + float(value)
    entries = [
        HotspotEntry(domain=key[0], name=key[1],
                     count=counts.get(key, 0),
                     seconds=seconds.get(key, 0.0))
        for key in set(counts) | set(seconds)
    ]
    entries.sort(key=lambda e: e.sort_key)
    return entries


def fold_hotspot_units(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Sum every ``hotspot.<domain>.<unit>.<metric>`` into one
    ``hotspot.<domain>.<metric>`` total; other names pass through.

    The live aggregate keeps only these totals: its key count is then
    bounded by the code, not by the set of methods ever analyzed.
    """
    folded: Dict[str, Any] = {}
    for metric, value in metrics.items():
        if metric.startswith(HOTSPOT_PREFIX):
            try:
                domain, _, suffix = _parse(metric)
            except ValueError:
                pass
            else:
                metric = f"{HOTSPOT_PREFIX}{domain}.{suffix}"
        folded[metric] = folded.get(metric, 0) + value
    return folded


def top_hotspots(entries: List[HotspotEntry], top: int) -> List[HotspotEntry]:
    """The first ``top`` entries."""
    return entries[:max(0, top)]


def render_hotspots(entries: List[HotspotEntry], top: int = 20) -> str:
    """The deterministic top-K hotspot table.

    Rank and the count column depend only on the analyzed input; the
    seconds column is the only measurement, so normalizing it yields a
    byte-identical table across ``--jobs`` settings.
    """
    selected = top_hotspots(entries, top)
    if not selected:
        return "no hotspot metrics recorded"
    name_width = max(4, *(len(e.name) for e in selected))
    header = (f"{'#':>3} {'domain':<16} {'name':<{name_width}} "
              f"{'count':>10} {'seconds':>10}")
    lines = [header, "-" * len(header)]
    for rank, entry in enumerate(selected, start=1):
        lines.append(
            f"{rank:>3} {entry.domain:<16} {entry.name:<{name_width}} "
            f"{entry.count:>10} {entry.seconds:>10.4f}"
        )
    total = len(entries)
    if total > len(selected):
        lines.append(f"... {total - len(selected)} more unit(s) below the "
                     f"top {len(selected)}")
    return "\n".join(lines)
