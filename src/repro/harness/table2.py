"""Table 2 driver: false-negative study with injected UAF violations.

28 artificial ground-truth UAFs are planted into the 8 DroidRacer apps
(see :mod:`repro.corpus.injector`).  The driver reruns the full pipeline
on each injected variant and classifies every injection as detected,
missed by detection (the unmodeled-framework-path cases), or pruned by an
unsound filter (the may-``finish`` CHB cases).  Paper outcome: 28 total,
2 missed, 3 unsoundly pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core import analyze_app, AnalysisConfig, AnalysisResult
from ..corpus.injector import (
    all_injections,
    DETECTED,
    INJECTED_APPS,
    injected_source,
    Injection,
    injections_for,
    MISSED,
    PRUNED_UNSOUND,
)
from ..runner import CorpusRunner
from .render import render_table


@dataclass
class InjectionOutcome:
    injection: Injection
    detected: bool
    surviving: bool
    pruned_sound: bool
    pair_type: str = "-"

    @property
    def classification(self) -> str:
        if not self.detected:
            return MISSED
        if self.surviving:
            return DETECTED
        return PRUNED_UNSOUND

    @property
    def matches_paper(self) -> bool:
        return self.classification == self.injection.expectation


def _locate(result: AnalysisResult, injection: Injection):
    return [
        w for w in result.warnings
        if w.fieldref.field_name == injection.field
        and injection.use_method_hint in w.use_method
        and injection.free_method_hint in w.free_method
    ]


def _injection_by_id(injection_id: str) -> Injection:
    for injection in all_injections():
        if injection.injection_id == injection_id:
            return injection
    raise KeyError(injection_id)


def table2_app_data(app_name: str,
                    config: Optional[AnalysisConfig] = None) -> Dict:
    """Classify one app's injections (serializable outcome records)."""
    result = analyze_app(injected_source(app_name), config=config,
                         module_name=f"{app_name}-injected")
    outcomes = []
    for injection in injections_for(app_name):
        candidates = _locate(result, injection)
        detected = bool(candidates)
        outcomes.append({
            "injection_id": injection.injection_id,
            "detected": detected,
            "surviving": any(w.survives_all for w in candidates),
            "pruned_sound": detected and not any(
                w.survives_sound for w in candidates
            ),
            "pair_type": candidates[0].pair_type() if candidates else "-",
        })
    return {"outcomes": outcomes}


def _outcome_from_dict(record: Dict) -> InjectionOutcome:
    return InjectionOutcome(
        injection=_injection_by_id(record["injection_id"]),
        detected=record["detected"],
        surviving=record["surviving"],
        pruned_sound=record["pruned_sound"],
        pair_type=record["pair_type"],
    )


def run_table2(config: Optional[AnalysisConfig] = None,
               runner: Optional[CorpusRunner] = None
               ) -> List[InjectionOutcome]:
    payloads, _ = (runner or CorpusRunner()).run(
        "table2", list(INJECTED_APPS), {"config": config}
    )
    return [
        _outcome_from_dict(record)
        for payload in payloads
        if "error" not in payload  # faulted app under --keep-going
        for record in payload["outcomes"]
    ]


def summarize_table2(outcomes: List[InjectionOutcome]) -> Dict[str, int]:
    return {
        "total": len(outcomes),
        "detected": sum(1 for o in outcomes if o.classification == DETECTED),
        "missed": sum(1 for o in outcomes if o.classification == MISSED),
        "pruned_unsound": sum(
            1 for o in outcomes if o.classification == PRUNED_UNSOUND
        ),
        "matches_paper": sum(1 for o in outcomes if o.matches_paper),
    }


def render_table2(outcomes: List[InjectionOutcome]) -> str:
    rows = [
        (
            o.injection.app_name,
            o.injection.injection_id,
            o.injection.field,
            o.pair_type,
            o.classification,
            "yes" if o.matches_paper else "NO",
        )
        for o in outcomes
    ]
    table = render_table(
        ["APP", "Injection", "Field", "Type", "Outcome", "As paper"], rows
    )
    summary = summarize_table2(outcomes)
    return (
        f"{table}\n\n"
        f"Total {summary['total']}: {summary['detected']} detected, "
        f"{summary['missed']} missed by detection, "
        f"{summary['pruned_unsound']} pruned by unsound filters "
        f"(paper: 28 / 2 missed / 3 pruned)"
    )
