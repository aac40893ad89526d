"""Section 8.8 driver: analysis execution-time breakdown.

The paper reports modeling at 1.19%, filtering at 3.08% and static
detection dominating at 95.73% of the pipeline's wall-clock time.  The
shape to preserve: detection is the overwhelmingly dominant stage.

Beyond the paper, the driver also accounts for the *driver's* own
wall-clock (which the per-stage numbers cannot see: process fan-out,
cache lookups, aggregation) so a ``--jobs N`` run can report its
effective speedup over the summed per-stage analysis time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import AnalysisConfig
from ..corpus import AppSpec
from ..runner import CorpusRunner
from .render import render_table
from .table1 import run_table1

#: every timed pipeline stage, in execution order
STAGES = ("lowering", "modeling", "detection", "filtering")
#: the paper's section 8.8 breakdown covers the *analysis* stages only
#: (lowering is source compilation, which nAdroid inherits from Soot and
#: the paper does not count); fractions stay comparable to its numbers
ANALYSIS_STAGES = ("modeling", "detection", "filtering")


@dataclass
class TimingData:
    per_app: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: end-to-end driver wall-clock, including fan-out/cache overhead
    wall_seconds: float = 0.0
    #: how many apps were actually analyzed vs served from the cache
    analyzed: int = 0
    cached: int = 0
    jobs: int = 1

    def totals(self) -> Dict[str, float]:
        totals = {stage: 0.0 for stage in STAGES}
        for timings in self.per_app.values():
            for stage in STAGES:
                totals[stage] += timings.get(stage, 0.0)
        return totals

    def fractions(self) -> Dict[str, float]:
        totals = self.totals()
        overall = sum(totals[s] for s in ANALYSIS_STAGES) or 1.0
        return {stage: totals[stage] / overall for stage in ANALYSIS_STAGES}

    @property
    def analysis_seconds(self) -> float:
        """Summed per-stage analysis time across all apps."""
        return sum(self.totals().values())

    @property
    def speedup(self) -> float:
        """Summed analysis time over driver wall-clock (>1 when the
        fan-out or the cache pays for its overhead)."""
        return self.analysis_seconds / self.wall_seconds \
            if self.wall_seconds else 0.0

    @property
    def dominant_stage(self) -> str:
        totals = self.totals()
        return max(ANALYSIS_STAGES, key=totals.get)


def run_timing(apps: Optional[List[AppSpec]] = None,
               config: Optional[AnalysisConfig] = None,
               runner: Optional[CorpusRunner] = None) -> TimingData:
    """Time every app's analysis.  The per-app work is the Table 1 run
    without validation, so ``repro corpus`` and ``repro timing`` share
    one cache entry per app; each app's stage seconds are read off the
    span tree of its metrics snapshot."""
    runner = runner or CorpusRunner()
    start = time.perf_counter()
    run_table1(validate=False, apps=apps, config=config, runner=runner)
    stats = runner.last_stats
    return TimingData(
        per_app={name: snapshot.stage_seconds()
                 for name, snapshot in runner.last_metrics.apps.items()},
        wall_seconds=time.perf_counter() - start,
        analyzed=stats.analyzed,
        cached=stats.cached,
        jobs=stats.jobs,
    )


def render_timing(data: TimingData) -> str:
    totals = data.totals()
    fractions = data.fractions()
    rows = [
        (stage, f"{totals[stage]:.3f}s",
         f"{100 * fractions[stage]:.2f}%" if stage in fractions else "-")
        for stage in STAGES
    ]
    table = render_table(["Stage", "Total", "Share"], rows)
    return (
        f"{table}\n\n"
        f"Dominant stage: {data.dominant_stage} "
        f"(paper: detection at 95.73%, modeling 1.19%, filtering 3.08%)\n"
        f"Driver wall-clock: {data.wall_seconds:.3f}s for "
        f"{data.analysis_seconds:.3f}s of analysis "
        f"({data.speedup:.2f}x; {data.analyzed} analyzed, "
        f"{data.cached} cached, jobs={data.jobs})"
    )
