"""``repro bench``: the perf-trajectory benchmark driver.

Runs the corpus through the cached parallel runner and emits a
``BENCH_<date>.json`` whose schema is documented in
``docs/observability.md``:

* ``schema`` / ``date`` / ``jobs`` -- provenance,
* ``apps.<name>.timings`` -- per-stage seconds (lowering, modeling,
  detection, filtering, total), read off the app's span tree
  (:meth:`repro.obs.MetricsSnapshot.stage_seconds`),
* ``apps.<name>.counters`` -- the deterministic analysis metrics
  (points-to passes and fact counts, detector funnel,
  per-filter drop counts); identical across ``--jobs`` settings,
* ``apps.<name>.spans`` -- the serialized trace tree,
* ``totals`` -- timings and counters summed over all apps.

Only durations may differ between two runs over the same corpus; the
counters are pinned by ``tests/obs/test_obs.py``.

``bench --compare OLD.json`` is the perf regression gate
(``docs/performance.md``): :func:`compare_bench` diffs a fresh payload
against a committed baseline, failing on *work-counter* regressions
(pass counts, derived facts, worklist processings -- machine-independent
quantities) and on per-app wall-time regressions beyond a tolerance
(machine-dependent, so the tolerance is configurable and padded with an
absolute slack for sub-second apps).
"""

from __future__ import annotations

import datetime
import hashlib
import json
from typing import Any, Dict, List, Optional

from ..corpus import all_apps, AppSpec
from ..obs import write_json
from ..runner import CorpusRunner
from .table1 import run_table1

#: stays 1 across additive fields (``corpus`` shape metadata is
#: additive: old baselines without it remain valid compare targets)
BENCH_SCHEMA = 1

#: counters that measure *work done* -- deterministic, machine-independent,
#: and expected never to grow for the same input.  ``bench --compare``
#: fails when any of these increases over the baseline.
GATED_COUNTERS = (
    "pointsto.passes",
    "pointsto.worklist.popped",
    "pointsto.worklist.pushed",
)

#: counter-name prefixes gated the same way: every ``hotspot.*`` count
#: (per-pair worklist pops) is deterministic work attribution, so a
#: growth present in both payloads is a real regression in that unit.
#: Prefix-matched counters missing on one side (older baseline) simply
#: do not gate.
GATED_COUNTER_PREFIXES = ("hotspot.",)

#: absolute wall-time slack (seconds) added on top of the relative
#: tolerance: corpus apps analyze in fractions of a second, where
#: scheduler noise alone exceeds any sane percentage.
TIME_SLACK_S = 0.25


def default_bench_path(date: Optional[datetime.date] = None) -> str:
    date = date or datetime.date.today()
    return f"BENCH_{date.isoformat()}.json"


def corpus_shape(kind: str, names: List[str],
                 generator: Optional[Dict[str, Any]] = None,
                 seed: Optional[int] = None) -> Dict[str, Any]:
    """The corpus-shape stamp carried in every bench payload.

    ``digest`` content-addresses what was benchmarked (the sorted app
    names plus, for generated corpora, the full generator config), so
    ``bench trend`` can refuse to chart runs over different corpora.
    """
    basis: Dict[str, Any] = {"names": sorted(set(names))}
    if generator is not None:
        basis["generator"] = generator
    digest = hashlib.sha256(
        json.dumps(basis, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    shape: Dict[str, Any] = {
        "kind": kind,
        "apps": len(set(names)),
        "digest": digest,
    }
    if seed is not None:
        shape["seed"] = seed
    return shape


def _announce_phase(runner: CorpusRunner, phase: str) -> None:
    """Name the bench phase on the live telemetry endpoint, when one is
    attached (``--serve-telemetry``); a no-op otherwise."""
    telemetry = getattr(runner, "telemetry", None)
    if telemetry is not None:
        telemetry.set_phase(phase)


def run_bench(runner: CorpusRunner,
              apps: Optional[List[AppSpec]] = None,
              config=None) -> Dict[str, Any]:
    """Analyze every app and assemble the benchmark payload.

    The per-app work is the Table 1 run without validation, so bench
    shares its cache entries with ``repro corpus``."""
    specs = apps if apps is not None else all_apps()
    names = [spec.name for spec in specs]
    _announce_phase(runner, f"bench:registry:{len(names)}")
    run_table1(validate=False, apps=specs, config=config, runner=runner)
    return _bench_payload(runner, corpus_shape("registry", names))


def run_generated_bench(runner: CorpusRunner, gconfig,
                        config=None) -> Dict[str, Any]:
    """The ``bench --generated N`` stress mode: same payload schema as
    :func:`run_bench`, over a seeded generated corpus (see
    :mod:`repro.corpus.generator`) instead of the 27 registry apps."""
    from ..corpus.generator import generated_app_name

    names = [generated_app_name(gconfig.seed, index)
             for index in range(gconfig.count)]
    _announce_phase(runner, f"bench:generated:{len(names)}")
    runner.run("generated", names,
               {"config": config, "generator": gconfig.to_dict()})
    return _bench_payload(
        runner, corpus_shape("generated", names,
                             generator=gconfig.to_dict(), seed=gconfig.seed),
    )


def _bench_payload(runner: CorpusRunner,
                   corpus: Dict[str, Any]) -> Dict[str, Any]:
    """One entry per app with a metrics snapshot (a faulted app under
    ``--keep-going`` has none), its stage seconds read off its spans."""
    metrics = runner.last_metrics
    per_app = {
        name: {
            "timings": snapshot.stage_seconds(),
            "counters": dict(snapshot.counters),
            "gauges": dict(snapshot.gauges),
            "spans": list(snapshot.spans),
        }
        for name, snapshot in metrics.apps.items()
    }
    merged = metrics.totals()
    return {
        "schema": BENCH_SCHEMA,
        "date": datetime.date.today().isoformat(),
        "jobs": runner.jobs,
        "run": runner.last_stats.to_snapshot().to_dict(),
        "apps": per_app,
        "totals": {
            "timings": merged.stage_seconds(),
            "counters": merged.counters,
        },
        "corpus": corpus,
    }


def write_bench(payload: Dict[str, Any], path: str) -> None:
    """Write the payload canonically (sorted keys, so diffs are clean)."""
    write_json(path, payload)


# -- bench --compare: the perf regression gate --------------------------------


def _gated_counter_names(old_counters: Dict[str, Any],
                         new_counters: Dict[str, Any]) -> List[str]:
    """The gated counter set for one app: the fixed
    :data:`GATED_COUNTERS` plus every :data:`GATED_COUNTER_PREFIXES`
    match present in *both* payloads, in deterministic order."""
    names = list(GATED_COUNTERS)
    prefixed = {
        name for name in old_counters
        if name.startswith(GATED_COUNTER_PREFIXES) and name in new_counters
    }
    names.extend(sorted(prefixed - set(GATED_COUNTERS)))
    return names


def compare_bench(
    old: Dict[str, Any],
    new: Dict[str, Any],
    time_tolerance: float = 0.25,
    time_slack: float = TIME_SLACK_S,
) -> Dict[str, Any]:
    """Diff two bench payloads; returns a comparison with regressions.

    * **Counter regressions** (hard failures): any :data:`GATED_COUNTERS`
      entry present in both payloads for the same app whose new value
      exceeds the old one.
    * **Time regressions**: per-app ``total`` wall time beyond
      ``old * (1 + time_tolerance) + time_slack``.  Time is
      machine-dependent; callers gating in CI against a baseline from
      another machine should widen ``time_tolerance``.

    Apps present on only one side are reported but never gate.
    """
    old_apps = old.get("apps", {})
    new_apps = new.get("apps", {})
    shared = sorted(set(old_apps) & set(new_apps))
    regressions: List[Dict[str, Any]] = []
    apps: Dict[str, Any] = {}
    for name in shared:
        old_entry, new_entry = old_apps[name], new_apps[name]
        old_s = float(old_entry.get("timings", {}).get("total", 0.0))
        new_s = float(new_entry.get("timings", {}).get("total", 0.0))
        counters: Dict[str, Any] = {}
        old_counters = old_entry.get("counters", {})
        new_counters = new_entry.get("counters", {})
        for counter in _gated_counter_names(old_counters, new_counters):
            old_v = old_counters.get(counter)
            new_v = new_counters.get(counter)
            if old_v is None or new_v is None:
                continue  # not comparable (engine generations differ)
            counters[counter] = {"old": old_v, "new": new_v}
            if new_v > old_v:
                regressions.append({
                    "app": name, "kind": "counter", "name": counter,
                    "old": old_v, "new": new_v,
                })
        time_limit = old_s * (1.0 + time_tolerance) + time_slack
        time_regressed = new_s > time_limit
        if time_regressed:
            regressions.append({
                "app": name, "kind": "time", "name": "total",
                "old": old_s, "new": new_s,
            })
        apps[name] = {
            "old_s": old_s,
            "new_s": new_s,
            "delta_s": new_s - old_s,
            "delta_pct": ((new_s - old_s) / old_s * 100.0) if old_s else 0.0,
            "counters": counters,
            "time_regressed": time_regressed,
        }
    return {
        "old_date": old.get("date"),
        "new_date": new.get("date"),
        "time_tolerance": time_tolerance,
        "time_slack": time_slack,
        "apps": apps,
        "only_old": sorted(set(old_apps) - set(new_apps)),
        "only_new": sorted(set(new_apps) - set(old_apps)),
        "regressions": regressions,
    }


def has_regressions(comparison: Dict[str, Any]) -> bool:
    return bool(comparison["regressions"])


def render_compare(comparison: Dict[str, Any]) -> str:
    """The per-app wall-time delta table plus counter verdict lines."""
    lines: List[str] = []
    lines.append(
        f"bench compare: baseline {comparison['old_date']} "
        f"-> candidate {comparison['new_date']} "
        f"(time tolerance {comparison['time_tolerance'] * 100:.0f}% "
        f"+ {comparison['time_slack']:g}s)"
    )
    header = (f"{'app':<16} {'old s':>8} {'new s':>8} {'delta':>8} "
              f"{'popped':>12} {'pts passes':>10}")
    lines.append(header)
    lines.append("-" * len(header))

    def _counter_cell(entry: Dict[str, Any], name: str) -> str:
        pair = entry["counters"].get(name)
        if pair is None:
            return "-"
        if pair["old"] == pair["new"]:
            return str(pair["new"])
        return f"{pair['old']}>{pair['new']}"

    for name in sorted(comparison["apps"]):
        entry = comparison["apps"][name]
        flag = " !" if entry["time_regressed"] else ""
        lines.append(
            f"{name:<16} {entry['old_s']:>8.3f} {entry['new_s']:>8.3f} "
            f"{entry['delta_pct']:>+7.1f}% "
            f"{_counter_cell(entry, 'pointsto.worklist.popped'):>12} "
            f"{_counter_cell(entry, 'pointsto.passes'):>10}{flag}"
        )
    for name in comparison["only_old"]:
        lines.append(f"{name:<16} (only in baseline)")
    for name in comparison["only_new"]:
        lines.append(f"{name:<16} (only in candidate)")
    if comparison["regressions"]:
        lines.append("")
        for reg in comparison["regressions"]:
            if reg["kind"] == "counter":
                lines.append(
                    f"REGRESSION {reg['app']}: {reg['name']} "
                    f"{reg['old']} -> {reg['new']}"
                )
            else:
                lines.append(
                    f"REGRESSION {reg['app']}: wall time "
                    f"{reg['old']:.3f}s -> {reg['new']:.3f}s"
                )
        lines.append(f"{len(comparison['regressions'])} regression(s)")
    else:
        lines.append("")
        lines.append("no regressions")
    return "\n".join(lines)
