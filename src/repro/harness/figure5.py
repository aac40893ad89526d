"""Figure 5 driver: sound/unsound filter effectiveness over the test group.

Paper reference points (percent of warnings pruned when each filter is
applied individually over the 20 test applications):

* Figure 5(a), over all potential warnings: MHB 21%, IG 66%, IA 13%;
  combined sound filters remove 88%.
* Figure 5(b), over the survivors of the sound filters: mayHB 13%
  (PHB dominating), MA 26%, UR 29%, TT 15%; combined unsound filters
  remove 70% of the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import AnalysisConfig
from ..corpus import AppSpec, test_apps
from ..filters.sound import SOUND_FILTERS
from ..filters.unsound import MAYHB_FILTER_NAMES, UNSOUND_FILTERS
from ..runner import CorpusRunner
from .render import percent, render_table
from .table1 import analyze_corpus_app


@dataclass
class Figure5Data:
    """Aggregated individual-filter effectiveness."""

    potential: int = 0
    after_sound: int = 0
    after_unsound: int = 0
    sound_individual: Dict[str, int] = field(default_factory=dict)
    unsound_individual: Dict[str, int] = field(default_factory=dict)
    mayhb_combined: int = 0

    def sound_fraction(self, name: str) -> float:
        return (self.sound_individual.get(name, 0) / self.potential
                if self.potential else 0.0)

    def unsound_fraction(self, name: str) -> float:
        return (self.unsound_individual.get(name, 0) / self.after_sound
                if self.after_sound else 0.0)

    @property
    def sound_combined_fraction(self) -> float:
        return (1 - self.after_sound / self.potential) if self.potential else 0.0

    @property
    def unsound_combined_fraction(self) -> float:
        return (1 - self.after_unsound / self.after_sound) \
            if self.after_sound else 0.0

    @property
    def mayhb_fraction(self) -> float:
        return self.mayhb_combined / self.after_sound if self.after_sound else 0.0


def figure5_app_data(spec: AppSpec,
                     config: Optional[AnalysisConfig] = None) -> Dict:
    """One app's filter-effectiveness contribution (serializable)."""
    result = analyze_corpus_app(spec, config)
    report = result.report
    # combined mayHB bar (RHB + CHB + PHB together), read from the
    # verdicts the analysis already decided
    mayhb = [f for f in UNSOUND_FILTERS if f.name in MAYHB_FILTER_NAMES]
    survivors = [w for w in result.warnings if w.survives_sound]
    return {
        "potential": report.potential,
        "after_sound": report.after_sound,
        "after_unsound": report.after_unsound,
        "sound_individual": dict(report.sound_individual),
        "unsound_individual": dict(report.unsound_individual),
        "mayhb_combined": result.pipeline.count_pruned_group(
            survivors, mayhb, require_sound_survivor=True
        ),
    }


def run_figure5(apps: Optional[List[AppSpec]] = None,
                config: Optional[AnalysisConfig] = None,
                runner: Optional[CorpusRunner] = None) -> Figure5Data:
    """Aggregate individual filter effectiveness over the test group."""
    specs = apps if apps is not None else test_apps()
    payloads, _ = (runner or CorpusRunner()).run(
        "figure5", [spec.name for spec in specs], {"config": config}
    )
    data = Figure5Data(
        sound_individual={f.name: 0 for f in SOUND_FILTERS},
        unsound_individual={f.name: 0 for f in UNSOUND_FILTERS},
    )
    for payload in payloads:
        if "error" in payload:  # faulted app under --keep-going: no data
            continue
        data.potential += payload["potential"]
        data.after_sound += payload["after_sound"]
        data.after_unsound += payload["after_unsound"]
        for name, count in payload["sound_individual"].items():
            data.sound_individual[name] += count
        for name, count in payload["unsound_individual"].items():
            data.unsound_individual[name] += count
        data.mayhb_combined += payload["mayhb_combined"]
    return data


def render_figure5(data: Figure5Data) -> str:
    lines = ["Figure 5(a): sound filters (fraction of potential pruned)"]
    rows = [
        (name, data.sound_individual[name],
         percent(data.sound_individual[name], data.potential))
        for name in ("MHB", "IG", "IA")
    ]
    rows.append(("All (combined)", data.potential - data.after_sound,
                 percent(data.potential - data.after_sound, data.potential)))
    lines.append(render_table(["Filter", "Pruned", "Fraction"], rows))

    lines.append("")
    lines.append("Figure 5(b): unsound filters (fraction of sound survivors)")
    rows_b = [("mayHB (RHB+CHB+PHB)", data.mayhb_combined,
               percent(data.mayhb_combined, data.after_sound))]
    for name in ("MA", "UR", "TT"):
        rows_b.append(
            (name, data.unsound_individual[name],
             percent(data.unsound_individual[name], data.after_sound))
        )
    rows_b.append(
        ("All (combined)", data.after_sound - data.after_unsound,
         percent(data.after_sound - data.after_unsound, data.after_sound))
    )
    lines.append(render_table(["Filter", "Pruned", "Fraction"], rows_b))
    return "\n".join(lines)
