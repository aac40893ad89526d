"""Table 1 driver: the full nAdroid evaluation over all 27 apps.

For each corpus application the driver reports, like the paper's Table 1:
the EC/PC/T model sizes, potential UAF warnings, survivors of the sound
and unsound filters, the origin-category split of the survivors, the
number of dynamically-confirmed true harmful UAFs, and the false-positive
category breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import obs
from ..core import AnalysisConfig, analyze_module, AnalysisResult
from ..corpus import all_apps, AppSpec, FP_CATEGORIES
from ..race.warnings import PAIR_TYPES
from ..resilience import checkpoint
from ..runner import CorpusRunner, RunMetrics
from ..runner.serialize import result_to_data, ResultData, row_from_dict
from ..runtime import Simulator, validate_warning
from .render import render_table


@dataclass
class Table1Row:
    app: AppSpec
    result: ResultData
    true_harmful: int = 0
    confirmed_fields: List[str] = field(default_factory=list)
    fp_breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.app.name

    @property
    def counts(self) -> Dict[str, int]:
        return self.result.counts()

    @property
    def pair_types(self) -> Dict[str, int]:
        return self.result.by_pair_type()


def analyze_corpus_app(spec: AppSpec,
                       config: Optional[AnalysisConfig] = None) -> AnalysisResult:
    checkpoint("lowering")
    with obs.span("lowering"):
        module = spec.compile()
    return analyze_module(module, spec.manifest_for(module), config)


def build_row(spec: AppSpec, validate: bool = True,
              random_attempts: int = 40,
              config: Optional[AnalysisConfig] = None) -> Table1Row:
    result = analyze_corpus_app(spec, config)
    row = Table1Row(app=spec, result=result_to_data(result))

    if validate:
        program = result.program

        def make_sim():
            return Simulator(program.module, program.manifest)

        confirmed_keys = set()
        for warning in result.remaining():
            verdict = validate_warning(
                make_sim, warning, random_attempts=random_attempts,
                systematic_branches=15, max_decisions=800,
            )
            if verdict.confirmed:
                confirmed_keys.add(warning.key)
                row.confirmed_fields.append(warning.fieldref.field_name)
        row.true_harmful = len(confirmed_keys)
        # FP breakdown: surviving-but-unconfirmed warnings, categorized by
        # the corpus ground-truth labels.
        breakdown = {category: 0 for category in FP_CATEGORIES}
        for warning in result.remaining():
            if warning.key in confirmed_keys:
                continue
            category = spec.fp_fields.get(warning.fieldref.field_name)
            if category is not None:
                breakdown[category] += 1
        row.fp_breakdown = breakdown
    return row


def _run_table1_task(validate: bool, apps: Optional[List[AppSpec]],
                     random_attempts: int,
                     config: Optional[AnalysisConfig],
                     runner: Optional[CorpusRunner]):
    """Run the ``table1`` task over ``apps`` (default: all 27); returns
    the runner's ``(payloads, RunMetrics)``."""
    specs = apps if apps is not None else all_apps()
    return (runner or CorpusRunner()).run(
        "table1",
        [spec.name for spec in specs],
        {"validate": validate, "random_attempts": random_attempts,
         "config": config},
    )


def run_table1(validate: bool = True, apps: Optional[List[AppSpec]] = None,
               random_attempts: int = 40,
               config: Optional[AnalysisConfig] = None,
               runner: Optional[CorpusRunner] = None) -> List[Table1Row]:
    """Build every row (slow with validation; ~1 minute serially).

    The per-app analyses go through ``runner`` -- fanned out over worker
    processes and/or served from its result cache -- or, without one,
    through a serial, uncached :class:`repro.runner.CorpusRunner`.
    """
    payloads, _ = _run_table1_task(validate, apps, random_attempts,
                                   config, runner)
    # Faulted apps come back as {"error": ...} envelopes under
    # --keep-going; the table simply has no row for them (the faults
    # themselves surface through runner.last_faults and the report).
    return [row_from_dict(payload) for payload in payloads
            if "error" not in payload]


def run_table1_metrics(apps: Optional[List[AppSpec]] = None,
                       config: Optional[AnalysisConfig] = None,
                       runner: Optional[CorpusRunner] = None) -> RunMetrics:
    """The ``run_table1(validate=False)`` run for callers that read only
    its metrics (``bench``, ``timing``, ``hotspots``): the same task and
    params, so the same cache entries as ``repro corpus``, but no payload
    is decoded into rows."""
    return _run_table1_task(False, apps, 40, config, runner)[1]


def render_table1(rows: List[Table1Row]) -> str:
    headers = [
        "Group", "APP", "EC", "PC", "T",
        "Potential", "Sound", "Unsound",
        *PAIR_TYPES,
        "True", "FPs",
    ]
    body = []
    for row in rows:
        fp_total = sum(row.fp_breakdown.values())
        body.append([
            row.app.group, row.name,
            row.counts["EC"], row.counts["PC"], row.counts["T"],
            row.counts["potential"], row.counts["after_sound"],
            row.counts["after_unsound"],
            *[row.pair_types.get(t, 0) for t in PAIR_TYPES],
            row.true_harmful, fp_total,
        ])
    return render_table(headers, body)


def total_true_harmful(rows: List[Table1Row]) -> int:
    return sum(row.true_harmful for row in rows)


def fp_totals(rows: List[Table1Row]) -> Dict[str, int]:
    totals = {category: 0 for category in FP_CATEGORIES}
    for row in rows:
        for category, count in row.fp_breakdown.items():
            totals[category] += count
    return totals
