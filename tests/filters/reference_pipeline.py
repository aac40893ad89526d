"""Filter pipeline: apply sound then unsound filters, with bookkeeping for
the Figure 5 effectiveness study (individual and combined application)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro import obs
from repro.race.warnings import UafWarning, Witness
from repro.resilience import checkpoint, CooperativeTimeout, SimulatedWorkerLoss
from repro.filters.base import Filter, FilterContext
from repro.filters.sound import SOUND_FILTERS
from repro.filters.unsound import UNSOUND_FILTERS


@dataclass
class FilterReport:
    """Counts as the paper reports them (warnings = instruction pairs)."""

    potential: int
    after_sound: int
    after_unsound: int
    #: warnings each sound filter prunes when applied *individually*
    sound_individual: Dict[str, int] = field(default_factory=dict)
    #: warnings (surviving sound) each unsound filter prunes individually
    unsound_individual: Dict[str, int] = field(default_factory=dict)
    #: filters that crashed and were skipped for the rest of this
    #: analysis: ``{"filter", "sound", "message"}`` per degradation.
    #: Skipping is always *safe* (a skipped filter prunes nothing, so
    #: every warning it would have removed survives); skipping a sound
    #: filter additionally costs precision the paper's numbers assume,
    #: which is what :attr:`is_degraded` flags.
    degraded: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def is_degraded(self) -> bool:
        """Did a *sound* filter fault (precision below the paper's bar)?"""
        return any(entry.get("sound") for entry in self.degraded)

    @property
    def sound_reduction(self) -> float:
        return 1.0 - self.after_sound / self.potential if self.potential else 0.0

    @property
    def unsound_reduction(self) -> float:
        return (
            1.0 - self.after_unsound / self.after_sound if self.after_sound else 0.0
        )


class FilterPipeline:
    """Run the section-6 filters over a list of warnings (in place)."""

    def __init__(
        self,
        ctx: FilterContext,
        sound_filters: Sequence[Filter] = SOUND_FILTERS,
        unsound_filters: Sequence[Filter] = UNSOUND_FILTERS,
    ) -> None:
        self.ctx = ctx
        self.sound_filters = tuple(sound_filters)
        self.unsound_filters = tuple(unsound_filters)
        #: filter name -> degradation record; once a filter crashes it is
        #: skipped for the remainder of this pipeline's lifetime
        self._faulted: Dict[str, Dict[str, Any]] = {}

    # -- graceful degradation ----------------------------------------------------

    def _record_filter_fault(self, f: Filter, exc: BaseException,
                             occ=None) -> None:
        """A filter crashed: disable it, count it, leave a witness.

        Keeping the occurrence is the conservative outcome -- a skipped
        filter prunes nothing, so no warning is lost; only precision is.
        """
        if f.name in self._faulted:
            return
        message = f"{type(exc).__name__}: {exc}"
        self._faulted[f.name] = {
            "filter": f.name, "sound": bool(f.sound), "message": message,
        }
        obs.add("filters.degraded", 1)
        if occ is not None and occ.witness is None:
            occ.witness = Witness(
                kind="filter-fault",
                detail=(f"filter '{f.name}' crashed and was skipped: "
                        f"{message}"),
                data={"filter": f.name, "sound": bool(f.sound)},
            )

    def _safe_witness(self, f: Filter, occ, warning) -> Optional[Witness]:
        if f.name in self._faulted:
            return None
        try:
            checkpoint(f"filter:{f.name}")
            return f.witness(occ, warning, self.ctx)
        except (CooperativeTimeout, SimulatedWorkerLoss):
            raise  # deadline/worker-loss semantics outrank degradation
        except Exception as exc:
            self._record_filter_fault(f, exc, occ)
            return None

    def _safe_prunes(self, f: Filter, occ, warning) -> bool:
        if f.name in self._faulted:
            return False
        try:
            checkpoint(f"filter:{f.name}")
            return f.prunes(occ, warning, self.ctx)
        except (CooperativeTimeout, SimulatedWorkerLoss):
            raise
        except Exception as exc:
            self._record_filter_fault(f, exc, occ)
            return False

    # -- combined application ----------------------------------------------------

    def apply(self, warnings: List[UafWarning],
              with_individual_stats: bool = True) -> FilterReport:
        report = FilterReport(
            potential=len(warnings), after_sound=0, after_unsound=0
        )
        if with_individual_stats:
            for f in self.sound_filters:
                report.sound_individual[f.name] = self._count_pruned(
                    warnings, f, require_sound_survivor=False
                )

        pruned_by: Dict[str, int] = {}
        witnesses = 0
        for warning in warnings:
            for occ in warning.occurrences:
                for f in self.sound_filters:
                    witness = self._safe_witness(f, occ, warning)
                    if witness is not None:
                        occ.pruned_by = f.name
                        occ.witness = witness
                        witnesses += 1
                        pruned_by[f.name] = pruned_by.get(f.name, 0) + 1
                        break
        for name, count in pruned_by.items():
            obs.add(f"filters.sound.{name}.pruned_occurrences", count)

        survivors = [w for w in warnings if w.survives_sound]
        report.after_sound = len(survivors)
        if with_individual_stats:
            for f in self.unsound_filters:
                report.unsound_individual[f.name] = self._count_pruned(
                    survivors, f, require_sound_survivor=True
                )

        downgraded_by: Dict[str, int] = {}
        for warning in survivors:
            for occ in warning.occurrences:
                if not occ.surviving_sound:
                    continue
                for f in self.unsound_filters:
                    witness = self._safe_witness(f, occ, warning)
                    if witness is not None:
                        occ.downgraded_by = f.name
                        occ.witness = witness
                        witnesses += 1
                        downgraded_by[f.name] = \
                            downgraded_by.get(f.name, 0) + 1
                        break
        for name, count in downgraded_by.items():
            obs.add(f"filters.unsound.{name}.downgraded_occurrences", count)
        obs.add("report.witnesses.filter", witnesses)
        report.after_unsound = len([w for w in survivors if w.survives_all])

        obs.add("filters.potential", report.potential)
        obs.add("filters.after_sound", report.after_sound)
        obs.add("filters.after_unsound", report.after_unsound)
        obs.add("filters.dropped_sound",
                report.potential - report.after_sound)
        obs.add("filters.dropped_unsound",
                report.after_sound - report.after_unsound)
        report.degraded = [self._faulted[name]
                           for name in sorted(self._faulted)]
        return report

    # -- individual application (Figure 5) ------------------------------------------

    def _count_pruned(self, warnings: Iterable[UafWarning], f: Filter,
                      require_sound_survivor: bool) -> int:
        """How many warnings this one filter would prune on its own.

        A warning is pruned when *every* (relevant) occurrence is pruned.
        """
        count = 0
        for warning in warnings:
            occurrences = [
                occ for occ in warning.occurrences
                if not require_sound_survivor or occ.surviving_sound
            ]
            if occurrences and all(
                self._safe_prunes(f, occ, warning) for occ in occurrences
            ):
                count += 1
        return count

    def count_pruned_group(self, warnings: Iterable[UafWarning],
                           filters: Sequence[Filter],
                           require_sound_survivor: bool = False) -> int:
        """Warnings pruned when a *group* of filters is applied together
        (a warning falls when each relevant occurrence is pruned by at
        least one filter of the group) -- used for Figure 5(b)'s combined
        mayHB bar."""
        count = 0
        for warning in warnings:
            occurrences = [
                occ for occ in warning.occurrences
                if not require_sound_survivor or occ.surviving_sound
            ]
            if occurrences and all(
                any(self._safe_prunes(f, occ, warning) for f in filters)
                for occ in occurrences
            ):
                count += 1
        return count

    def overlap(self, warnings: List[UafWarning], name_a: str,
                name_b: str) -> int:
        """Warnings pruned by both named filters individually (the Figure 5
        overlap discussion)."""
        filters = {f.name: f for f in (*self.sound_filters,
                                       *self.unsound_filters)}
        fa, fb = filters[name_a], filters[name_b]
        count = 0
        for warning in warnings:
            if warning.occurrences and all(
                self._safe_prunes(fa, o, warning)
                for o in warning.occurrences
            ) and all(
                self._safe_prunes(fb, o, warning)
                for o in warning.occurrences
            ):
                count += 1
        return count
