"""Exporters: human-readable trace trees and deterministic JSON.

Two formats, per the determinism contract (stdout stays byte-stable
across ``--jobs`` settings, so everything here targets stderr or files):

* :func:`render_spans` / :func:`render_metrics` -- indented text for
  ``--trace`` on stderr,
* :func:`canonical_json` / :func:`write_json` -- the one canonical JSON
  text (keys sorted at every level, two-space indent, trailing newline)
  of every JSON artifact: reports, SARIF, ``--metrics-out``,
  ``BENCH_*.json``, traces and the HTTP bodies; two exports of the same
  analysis differ only in timing values.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from .metrics import MetricsSnapshot


def _format_duration(duration) -> str:
    if duration is None:
        return "?"
    if duration >= 1.0:
        return f"{duration:.2f}s"
    return f"{duration * 1000:.2f}ms"


def render_spans(spans: Iterable[Dict[str, Any]], indent: int = 0) -> str:
    """Render serialized span trees as an indented tree, one per root."""
    lines: List[str] = []

    def visit(node: Dict[str, Any], depth: int) -> None:
        attrs = node.get("attrs", {})
        extra = "".join(
            f" {key}={value}" for key, value in sorted(attrs.items())
            if key != "profile"
        )
        lines.append(
            f"{'  ' * depth}{node['name']}  "
            f"{_format_duration(node.get('duration_s'))}{extra}"
        )
        for child in node.get("children", ()):
            visit(child, depth + 1)

    for root in spans:
        visit(root, indent)
    return "\n".join(lines)


def render_metrics(snapshot: MetricsSnapshot) -> str:
    """Counters then gauges, one ``name = value`` line each, sorted."""
    lines = [
        f"{name} = {snapshot.counters[name]}"
        for name in sorted(snapshot.counters)
    ]
    lines.extend(
        f"{name} = {snapshot.gauges[name]:.6f}"
        for name in sorted(snapshot.gauges)
    )
    return "\n".join(lines)


def describe_run(snapshot: MetricsSnapshot) -> str:
    """The runner's one-line stderr summary, derived from run metrics."""
    counters = snapshot.counters
    analyzed = counters.get("runner.apps.analyzed", 0)
    cached = counters.get("runner.apps.cached", 0)
    faulted = counters.get("runner.apps.faulted", 0)
    jobs = int(snapshot.gauges.get("runner.jobs", 1))
    wall = snapshot.gauges.get("runner.wall_seconds", 0.0)
    line = (
        f"{analyzed + cached + faulted} apps ({analyzed} analyzed, "
        f"{cached} from cache) in {wall:.2f}s "
        f"with {jobs} job{'s' if jobs != 1 else ''}"
    )
    hits = counters.get("runner.cache.hits", 0)
    misses = counters.get("runner.cache.misses", 0)
    stores = counters.get("runner.cache.stores", 0)
    if hits or misses or stores:
        line += f"; cache: {hits} hits, {misses} misses, {stores} stores"
    if faulted:
        line += f"; {faulted} faulted"
        # break the faults down by taxonomy kind, so a [fault]-bearing
        # run summarizes honestly in one line
        kinds = {
            name[len("runner.faults."):]: value
            for name, value in counters.items()
            if name.startswith("runner.faults.") and value
        }
        if kinds:
            line += " (" + ", ".join(
                f"{kind}={kinds[kind]}" for kind in sorted(kinds)
            ) + ")"
    retries = counters.get("runner.retries", 0)
    if retries:
        line += f"; {retries} retr{'ies' if retries != 1 else 'y'}"
    corrupt = counters.get("runner.cache.corrupt", 0)
    if corrupt:
        line += f"; {corrupt} corrupt cache entr" \
                f"{'ies quarantined' if corrupt != 1 else 'y quarantined'}"
    return line


def canonical_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing
    newline (list order is preserved)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, payload: Any) -> None:
    """Write any JSON-safe payload as :func:`canonical_json` text."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(payload))
