"""The nAdroid pipeline (paper Figure 2).

``analyze_app`` runs the full chain on MiniDroid sources or a pre-lowered
module:

    lowering (MiniDroid -> IR)
      -> modeling (threadification, section 4)
      -> potential ordering-violation detection (section 5)
      -> filtering (section 6)
      -> programmer-facing report (section 7)

Every stage runs inside a :mod:`repro.obs` span, and the funnel counters
(candidate pairs -> potential -> after_sound -> remaining) land on
whatever recorder the caller installed; the section 8.8 stage seconds are
read off that recorder's span tree
(:meth:`repro.obs.MetricsSnapshot.stage_seconds`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from . import obs
from .analysis.lockset import LocksetAnalysis
from .analysis.pointsto import PointsToResult, run_pointsto
from .android.manifest import Manifest
from .filters.base import FilterContext, FilterOptions
from .filters.pipeline import FilterPipeline, FilterReport
from .filters.sound import SOUND_FILTERS
from .filters.unsound import UNSOUND_FILTERS
from .ir import Module
from .lowering import lower_sources
from .resilience import checkpoint
from .race.detector import detect_uaf_warnings, DetectorOptions
from .race.warnings import PAIR_TYPES, UafWarning
from .threadify.transform import threadify, ThreadifiedProgram


@dataclass
class AnalysisConfig:
    """End-to-end configuration; defaults follow the paper."""

    k: int = 2
    detector: DetectorOptions = field(default_factory=DetectorOptions)
    filters: FilterOptions = field(default_factory=FilterOptions)


class WarningFunnel:
    """The Table 1 funnel over ``warnings`` and ``report``.

    Shared by :class:`AnalysisResult` and its serializable view
    :class:`repro.runner.ResultData`; each supplies the EC/PC/T model
    sizes through :meth:`model_sizes`.
    """

    @property
    def potential(self) -> List[UafWarning]:
        return self.warnings

    def after_sound(self) -> List[UafWarning]:
        return [w for w in self.warnings if w.survives_sound]

    def remaining(self) -> List[UafWarning]:
        return [w for w in self.warnings if w.survives_all]

    def by_pair_type(self) -> Dict[str, int]:
        """Distribution of *remaining* warnings over origin categories."""
        counts = {t: 0 for t in PAIR_TYPES}
        for warning in self.remaining():
            counts[warning.pair_type()] += 1
        return counts

    def counts(self) -> Dict[str, int]:
        return {
            **self.model_sizes(),
            "potential": self.report.potential,
            "after_sound": self.report.after_sound,
            "after_unsound": self.report.after_unsound,
        }


@dataclass
class AnalysisResult(WarningFunnel):
    """Everything the pipeline produced."""

    program: ThreadifiedProgram
    pointsto: PointsToResult
    lockset: LocksetAnalysis
    warnings: List[UafWarning]
    report: FilterReport
    #: the pipeline that filtered ``warnings``: its verdicts answer
    #: further Figure 5 questions without re-running a filter
    pipeline: Optional[FilterPipeline] = None

    def model_sizes(self) -> Dict[str, int]:
        return self.program.forest.counts()


def analyze_module(
    module: Module,
    manifest: Optional[Manifest] = None,
    config: Optional[AnalysisConfig] = None,
) -> AnalysisResult:
    """Run the pipeline on an *unsealed* lowered module."""
    config = config or AnalysisConfig()

    checkpoint("modeling")
    with obs.span("modeling"):
        program = threadify(module, manifest)

    checkpoint("detection")
    with obs.span("detection"):
        with obs.span("pointsto", k=config.k):
            pointsto = run_pointsto(program.module, k=config.k)
        with obs.span("lockset"):
            lockset = LocksetAnalysis(program.module, pointsto)
        with obs.span("detect"):
            warnings = detect_uaf_warnings(
                program, pointsto, config.detector, lockset
            )

    checkpoint("filtering")
    with obs.span("filtering"):
        ctx = FilterContext(program, pointsto, lockset, config.filters)
        unsound = () if config.filters.sound_only else UNSOUND_FILTERS
        pipeline = FilterPipeline(ctx, SOUND_FILTERS, unsound)
        report = pipeline.apply(warnings)

    obs.add("funnel.potential", report.potential)
    obs.add("funnel.after_sound", report.after_sound)
    obs.add("funnel.remaining", report.after_unsound)

    return AnalysisResult(
        program=program,
        pointsto=pointsto,
        lockset=lockset,
        warnings=warnings,
        report=report,
        pipeline=pipeline,
    )


def analyze_app(
    sources: Union[str, Iterable[Tuple[str, str]]],
    manifest: Optional[Manifest] = None,
    config: Optional[AnalysisConfig] = None,
    module_name: str = "app",
) -> AnalysisResult:
    """Compile MiniDroid sources and run the full nAdroid pipeline."""
    checkpoint("lowering")
    with obs.span("lowering"):
        module = lower_sources(sources, module_name=module_name, seal=False)
    return analyze_module(module, manifest, config)
