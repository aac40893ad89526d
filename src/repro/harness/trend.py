"""``repro bench trend``: the perf trajectory over a history of runs.

``bench --compare`` answers "did this change regress against one
baseline?"; this module answers "has the corpus been getting slower
across the last N runs?".  ``bench --history DIR`` appends every bench
payload to a history directory (one ``BENCH_<date>.json`` per run,
collision-suffixed so several runs a day coexist) and ``bench trend
DIR`` charts it:

* one row per run -- date, total wall seconds, and the corpus-wide
  totals of a few gated work counters;
* a **comparability gate** -- runs are charted only when they benchmark
  the same corpus.  Every payload's app-name digest must match, and
  when two payloads both carry explicit ``corpus`` shape metadata
  (see :func:`repro.harness.bench.corpus_shape`) their digests must
  match too; otherwise trend refuses with a one-line error naming the
  offending files;
* a **drift gate** -- monotone growth across the trailing window
  (``--window``, default 5 runs) fails the build: any gated counter
  total that only ever grows, or wall time that only ever grows *and*
  ends more than ``--time-tolerance`` above the window's start.  A
  single faster run in the window resets the alarm, so ordinary
  machine noise does not trip it.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from .bench import BENCH_SCHEMA, GATED_COUNTERS

#: counters whose corpus-wide totals appear as trend table columns
TREND_COUNTERS = (
    "pointsto.worklist.popped",
    "pointsto.passes",
)

#: relative wall-time growth across the window tolerated before
#: monotone growth counts as drift
DEFAULT_TIME_TOLERANCE = 0.25

#: trailing runs inspected by the drift gate
DEFAULT_WINDOW = 5


def app_digest(payload: Dict[str, Any]) -> str:
    """Content digest of *which apps* a payload benchmarked.

    Computed from the payload's own app names, so payloads written
    before ``corpus`` shape metadata existed still participate in the
    comparability gate.
    """
    names = sorted(payload.get("apps", {}))
    return hashlib.sha256(
        json.dumps(names).encode("utf-8")
    ).hexdigest()[:16]


def append_history(payload: Dict[str, Any], directory: str) -> str:
    """Write ``payload`` into the history directory; returns the path.

    Files are named ``BENCH_<date>.json``; a second run on the same day
    gets a ``-2``/``-3``/... suffix instead of overwriting history.
    """
    from ..obs import write_json

    os.makedirs(directory, exist_ok=True)
    date = payload.get("date") or datetime.date.today().isoformat()
    base = f"BENCH_{date}"
    path = os.path.join(directory, f"{base}.json")
    suffix = 2
    while os.path.exists(path):
        path = os.path.join(directory, f"{base}-{suffix}.json")
        suffix += 1
    write_json(path, payload)
    return path


def load_history(directory: str) -> List[Tuple[str, Dict[str, Any]]]:
    """Parse every ``BENCH_*.json`` in the directory, oldest first.

    Returns ``(filename, payload)`` pairs ordered by payload date then
    filename (so same-day runs keep their append order).  Raises
    ``ValueError`` on unreadable files or foreign schemas -- a history
    directory is a curated input, not a best-effort scan.
    """
    if not os.path.isdir(directory):
        # a missing directory is the most common first-use stumble;
        # surface it as one clean line (exit 2 at the CLI), not an
        # OSError repr or a traceback
        raise ValueError(
            f"bench trend: no such history directory {directory} "
            f"(create one with `bench --history {directory}`)"
        )
    try:
        entries = sorted(os.listdir(directory))
    except OSError as exc:
        raise ValueError(f"bench trend: cannot read {directory}: {exc}")
    history: List[Tuple[str, Dict[str, Any]]] = []
    for filename in entries:
        if not (filename.startswith("BENCH_") and filename.endswith(".json")):
            continue
        path = os.path.join(directory, filename)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ValueError(f"bench trend: cannot parse {filename}: {exc}")
        if not isinstance(payload, dict) \
                or payload.get("schema") != BENCH_SCHEMA:
            raise ValueError(
                f"bench trend: {filename} is not a schema-{BENCH_SCHEMA} "
                f"bench payload"
            )
        history.append((filename, payload))
    # Same-day runs keep append order: the unsuffixed BENCH_<date>.json
    # is shorter than its -2/-3/... siblings, so length-then-name sorts
    # base first and the numeric suffixes in sequence.
    history.sort(key=lambda item: (
        str(item[1].get("date", "")), len(item[0]), item[0]
    ))
    return history


def check_comparable(
    history: List[Tuple[str, Dict[str, Any]]]
) -> Optional[str]:
    """One-line error when two runs benchmark different corpora."""
    if len(history) < 2:
        return None
    first_name, first = history[0]
    first_digest = app_digest(first)
    first_meta = first.get("corpus")
    for name, payload in history[1:]:
        if app_digest(payload) != first_digest:
            return (
                f"bench trend: {first_name} and {name} benchmark "
                f"different corpora (app sets differ); prune the history "
                f"directory or keep per-corpus histories"
            )
        meta = payload.get("corpus")
        if first_meta and meta \
                and meta.get("digest") != first_meta.get("digest"):
            return (
                f"bench trend: {first_name} and {name} benchmark "
                f"different corpora (corpus digest "
                f"{first_meta.get('digest')} vs {meta.get('digest')}); "
                f"prune the history directory or keep per-corpus histories"
            )
    return None


def _wall_seconds(payload: Dict[str, Any]) -> float:
    return float(
        payload.get("totals", {}).get("timings", {}).get("total", 0.0)
    )


def _counter_total(payload: Dict[str, Any], counter: str) -> Optional[int]:
    value = payload.get("totals", {}).get("counters", {}).get(counter)
    return int(value) if value is not None else None


def trend_rows(
    history: List[Tuple[str, Dict[str, Any]]],
    counters: Tuple[str, ...] = TREND_COUNTERS,
) -> List[Dict[str, Any]]:
    """One dict per run: file, date, wall seconds, counter totals."""
    rows = []
    for filename, payload in history:
        rows.append({
            "file": filename,
            "date": str(payload.get("date", "?")),
            "wall_s": _wall_seconds(payload),
            "counters": {
                counter: _counter_total(payload, counter)
                for counter in counters
            },
        })
    return rows


def _monotone_nondecreasing(values: List[float]) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def detect_drift(
    history: List[Tuple[str, Dict[str, Any]]],
    window: int = DEFAULT_WINDOW,
    time_tolerance: float = DEFAULT_TIME_TOLERANCE,
) -> List[Dict[str, Any]]:
    """Monotone-growth drift over the trailing ``window`` runs.

    * a gated counter total drifts when it never decreases inside the
      window and ends above its start (work only ever grew);
    * wall time drifts under the same monotonicity condition *plus* a
      relative-growth threshold, since wall time is machine noise at
      small deltas.

    Needs at least two runs in the window; returns a list of drift
    records (empty = healthy).
    """
    tail = history[-max(2, window):]
    if len(tail) < 2:
        return []
    drifts: List[Dict[str, Any]] = []
    for counter in GATED_COUNTERS:
        values = [_counter_total(payload, counter) for _, payload in tail]
        if any(value is None for value in values):
            continue  # counter not recorded across the whole window
        if _monotone_nondecreasing(values) and values[-1] > values[0]:
            drifts.append({
                "kind": "counter", "name": counter,
                "first": values[0], "last": values[-1],
                "runs": len(values),
            })
    walls = [_wall_seconds(payload) for _, payload in tail]
    if _monotone_nondecreasing(walls) and walls[0] > 0.0 \
            and (walls[-1] - walls[0]) / walls[0] > time_tolerance:
        drifts.append({
            "kind": "time", "name": "totals.timings.total",
            "first": walls[0], "last": walls[-1],
            "runs": len(walls),
        })
    return drifts


def render_trend(
    history: List[Tuple[str, Dict[str, Any]]],
    drifts: Optional[List[Dict[str, Any]]] = None,
    counters: Tuple[str, ...] = TREND_COUNTERS,
) -> str:
    """The per-run trend table plus the drift verdict."""
    if not history:
        return "bench trend: no BENCH_*.json runs found"
    rows = trend_rows(history, counters)
    short = {counter: counter.rsplit(".", 1)[-1] for counter in counters}
    header = f"{'date':<12} {'wall s':>9} " + " ".join(
        f"{short[counter]:>12}" for counter in counters
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = " ".join(
            f"{row['counters'][counter]:>12}"
            if row["counters"][counter] is not None else f"{'-':>12}"
            for counter in counters
        )
        lines.append(f"{row['date']:<12} {row['wall_s']:>9.3f} {cells}")
    lines.append("")
    if drifts:
        for drift in drifts:
            if drift["kind"] == "counter":
                lines.append(
                    f"DRIFT {drift['name']}: {drift['first']} -> "
                    f"{drift['last']} over {drift['runs']} run(s), "
                    f"never decreasing"
                )
            else:
                lines.append(
                    f"DRIFT wall time: {drift['first']:.3f}s -> "
                    f"{drift['last']:.3f}s over {drift['runs']} run(s), "
                    f"never decreasing"
                )
        lines.append(f"{len(drifts)} drift(s)")
    else:
        lines.append(f"no drift across the last {len(rows)} run(s)")
    return "\n".join(lines)
