"""Table 3 driver: comparison against the DEvA baseline (paper 8.7).

Methodology follows the paper: run DEvA on the train applications and take
every warning it marks harmful; then check (a) whether nAdroid detects the
same use/free pair -- judged against nAdroid's report with only the sound
IG/IA filters applied, matching DEvA's own definition of harmful -- and
(b) whether nAdroid's full filter chain prunes it.

Paper outcome: nAdroid detects 12 of DEvA's 13 harmful warnings (the
exception is the Browser Fragment case the prototype cannot model) and
filters 11 of the 12 as false, agreeing with only one.  Conversely DEvA
misses every cross-class and cross-thread true UAF nAdroid reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import AnalysisConfig
from ..corpus import AppSpec, train_apps
from ..deva import DevaWarning, run_deva
from ..runner import CorpusRunner
from .render import render_table
from .table1 import analyze_corpus_app


@dataclass
class Table3Row:
    app: str
    deva_warning: DevaWarning
    nadroid_detected: bool
    nadroid_filtered: bool
    filtered_by: str = ""

    @property
    def verdict(self) -> str:
        if not self.nadroid_detected:
            return "Not detected"
        if self.nadroid_filtered:
            return "Detected & Filtered"
        return "Detected & Reported"


@dataclass
class Table3Data:
    """Both directions of the comparison, from one fan-out."""

    #: every harmful DEvA warning with nAdroid's verdict
    rows: List[Table3Row] = field(default_factory=list)
    #: true UAFs nAdroid reports that DEvA's harmful set misses, per app
    #: (only apps where there are any)
    deva_missed: Dict[str, int] = field(default_factory=dict)


def table3_app_data(spec: AppSpec,
                    config: Optional[AnalysisConfig] = None) -> Dict:
    """One app's DEvA-vs-nAdroid comparison data (serializable).

    ``rows`` carries every harmful DEvA warning with nAdroid's verdict;
    ``deva_missed`` counts the true UAFs nAdroid reports on this app that
    DEvA's harmful set misses (the reverse direction of Table 3).
    """
    result = analyze_corpus_app(spec, config)
    deva_warnings = run_deva(result.program.module)
    nadroid_by_key = {w.key: w for w in result.warnings}
    rows = []
    for dw in deva_warnings:
        if not dw.harmful:
            continue
        warning = nadroid_by_key.get(dw.key)
        detected = warning is not None
        filtered = detected and not warning.survives_all
        filtered_by = ""
        if detected and filtered:
            filtered_by = ",".join(sorted(warning.pruning_filters()))
        rows.append({
            "deva": {
                "field_class": dw.field_class,
                "field_name": dw.field_name,
                "use_method": dw.use_method,
                "free_method": dw.free_method,
                "use_uid": dw.use_uid,
                "free_uid": dw.free_uid,
                "harmful": dw.harmful,
            },
            "detected": detected,
            "filtered": filtered,
            "filtered_by": filtered_by,
        })
    deva_keys = {dw.key for dw in deva_warnings if dw.harmful}
    deva_missed = sum(
        1 for w in result.remaining()
        if w.fieldref.field_name in spec.true_uaf_fields
        and w.key not in deva_keys
    )
    return {"rows": rows, "deva_missed": deva_missed}


def _rows_from_data(app_name: str, payload: Dict) -> List[Table3Row]:
    return [
        Table3Row(
            app=app_name,
            deva_warning=DevaWarning(**record["deva"]),
            nadroid_detected=record["detected"],
            nadroid_filtered=record["filtered"],
            filtered_by=record["filtered_by"],
        )
        for record in payload["rows"]
    ]


def run_table3(config: Optional[AnalysisConfig] = None,
               runner: Optional[CorpusRunner] = None) -> Table3Data:
    names = [spec.name for spec in train_apps()]
    payloads, _ = (runner or CorpusRunner()).run(
        "table3", names, {"config": config}
    )
    data = Table3Data()
    for name, payload in zip(names, payloads):
        if "error" in payload:  # faulted app under --keep-going: no data
            continue
        data.rows.extend(_rows_from_data(name, payload))
        if payload["deva_missed"]:
            data.deva_missed[name] = payload["deva_missed"]
    return data


def summarize_table3(data: Table3Data) -> Dict[str, int]:
    rows = data.rows
    return {
        "deva_harmful": len(rows),
        "nadroid_detected": sum(1 for r in rows if r.nadroid_detected),
        "nadroid_filtered": sum(1 for r in rows if r.nadroid_filtered),
        "agreed_harmful": sum(
            1 for r in rows if r.nadroid_detected and not r.nadroid_filtered
        ),
        "not_detected": sum(1 for r in rows if not r.nadroid_detected),
    }


def render_table3(data: Table3Data) -> str:
    body = [
        (
            r.app,
            r.deva_warning.field_name,
            r.deva_warning.use_method,
            r.deva_warning.free_method,
            r.verdict + (f" ({r.filtered_by})" if r.filtered_by else ""),
        )
        for r in data.rows
    ]
    table = render_table(
        ["APP", "Field", "Use Callback", "Free Callback", "nAdroid"], body
    )
    s = summarize_table3(data)
    return (
        f"{table}\n\n"
        f"DEvA harmful: {s['deva_harmful']}; nAdroid detects "
        f"{s['nadroid_detected']}, filters {s['nadroid_filtered']}, agrees on "
        f"{s['agreed_harmful']}, cannot model {s['not_detected']} "
        f"(paper: 13 / 12 / 11 / 1 / 1)\n"
        f"True UAFs nAdroid reports that DEvA misses: "
        f"{sum(data.deva_missed.values())} across {sorted(data.deva_missed)}"
    )
