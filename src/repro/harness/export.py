"""CSV export, mirroring the paper artifact's ``ResultAnalysis.csv``.

The CGO'18 artifact's scripts emit one CSV with the Table 1 / Figure 5
data; this module reproduces that output format for the corpus drivers.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, TextIO

from ..race.warnings import PAIR_TYPES
from .table1 import Table1Row

CSV_COLUMNS = [
    "group", "app", "EC", "PC", "T",
    "potential_uafs", "after_sound_filters", "after_unsound_filters",
    *[f"type_{t}" for t in PAIR_TYPES],
    "true_harmful",
    "fp_path_insensitivity", "fp_points_to", "fp_not_reachable",
    "fp_missing_hb",
    "modeling_seconds", "detection_seconds", "filtering_seconds",
]


def write_result_analysis(rows: List[Table1Row],
                          stage_seconds: Dict[str, Dict[str, float]],
                          out: TextIO) -> None:
    """Write the ResultAnalysis.csv equivalent to a text stream.

    ``stage_seconds`` maps each row's app to the run's
    :meth:`repro.obs.MetricsSnapshot.stage_seconds` for it."""
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        timings = stage_seconds[row.name]
        writer.writerow([
            row.app.group,
            row.name,
            row.counts["EC"],
            row.counts["PC"],
            row.counts["T"],
            row.counts["potential"],
            row.counts["after_sound"],
            row.counts["after_unsound"],
            *[row.pair_types.get(t, 0) for t in PAIR_TYPES],
            row.true_harmful,
            row.fp_breakdown.get("path-insensitivity", 0),
            row.fp_breakdown.get("points-to", 0),
            row.fp_breakdown.get("not-reachable", 0),
            row.fp_breakdown.get("missing-hb", 0),
            f"{timings.get('modeling', 0.0):.6f}",
            f"{timings.get('detection', 0.0):.6f}",
            f"{timings.get('filtering', 0.0):.6f}",
        ])


def result_analysis_csv(rows: List[Table1Row],
                        stage_seconds: Dict[str, Dict[str, float]]) -> str:
    """The CSV as a string."""
    buffer = io.StringIO()
    write_result_analysis(rows, stage_seconds, buffer)
    return buffer.getvalue()


def save_result_analysis(rows: List[Table1Row],
                         stage_seconds: Dict[str, Dict[str, float]],
                         path: str) -> str:
    with open(path, "w", newline="") as handle:
        write_result_analysis(rows, stage_seconds, handle)
    return path
