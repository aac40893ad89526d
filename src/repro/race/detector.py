"""Potential UAF detection (paper section 5).

After threadification, nAdroid runs a modified Chord:

* only use/free pairs on the same field are considered (not general races),
* lockset analysis is ignored at detection time (locks cannot prevent
  ordering violations) -- it is applied selectively by the IG/IA filters,
* MHP analysis is disabled (replaced by the HB filters of section 6).

Two accesses race when they belong to different modeled threads and their
receiver objects may alias under the k-object-sensitive points-to
analysis; static fields alias by name.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .. import obs
from ..analysis.escape import compute_escaping
from ..analysis.mhp import may_happen_in_parallel
from ..analysis.pointsto import HeapObject, PointsToResult
from ..threadify.transform import ThreadifiedProgram
from .events import AccessEvent, collect_access_events, FREE, USE
from .warnings import classify_pair, Occurrence, UafWarning, Witness


@dataclass
class DetectorOptions:
    """Knobs for the ablation study; defaults follow the paper."""

    #: restrict candidates to escaping objects (Chord's thread-escape)
    use_escape_analysis: bool = True
    #: apply forest-structural MHP at detection time (paper: off)
    use_mhp: bool = False
    #: require a common lock to *suppress* warnings at detection time
    #: (paper: off -- locks do not prevent ordering violations)
    respect_locks: bool = False


class UafDetector:
    """Detect potential UAF warnings over a threadified program."""

    def __init__(
        self,
        program: ThreadifiedProgram,
        pointsto: PointsToResult,
        options: Optional[DetectorOptions] = None,
        lockset=None,
    ) -> None:
        self.program = program
        self.pointsto = pointsto
        self.options = options or DetectorOptions()
        self.lockset = lockset
        self._escaping: Optional[Set[HeapObject]] = None

    # -- helpers -----------------------------------------------------------------

    def _base_objects(self, event: AccessEvent) -> Set[HeapObject]:
        if event.is_static:
            return set()
        assert event.base_local is not None
        return self.pointsto.pts(event.method_qname, event.base_local)

    def _escaping_objects(self) -> Set[HeapObject]:
        if self._escaping is None:
            self._escaping = compute_escaping(self.pointsto, self.program)
        return self._escaping

    def _may_alias(self, use: AccessEvent, free: AccessEvent) -> bool:
        if use.is_static and free.is_static:
            return True  # same resolved static field
        if use.is_static != free.is_static:
            return False
        overlap = self._base_objects(use) & self._base_objects(free)
        if not overlap:
            return False
        if self.options.use_escape_analysis:
            return bool(overlap & self._escaping_objects())
        return True

    def _alias_witness(self, use: AccessEvent, free: AccessEvent) -> Witness:
        """Why the two accesses can touch the same storage (section 7's
        points-to provenance: abstract field plus allocation contexts)."""
        field = f"{use.fieldref.class_name}.{use.fieldref.field_name}"
        if use.is_static:
            return Witness(
                kind="static-field",
                detail=(f"static field {field}: both accesses resolve to "
                        "the same storage by name"),
                data={"field": field},
            )
        overlap = self._base_objects(use) & self._base_objects(free)
        objects = sorted("/".join(obj) for obj in overlap)
        return Witness(
            kind="points-to",
            detail=(f"use and free bases may alias on {field}: "
                    f"{len(objects)} shared abstract object(s) under "
                    f"{self.pointsto.k}-object-sensitivity"),
            data={"field": field, "objects": objects},
        )

    def _make_occurrence(self, use: AccessEvent,
                         free: AccessEvent) -> Occurrence:
        """One provenance-carrying occurrence: pair category, both
        poster->postee lineage chains, and the aliasing witness."""
        forest = self.program.forest
        use_node = forest.node(use.node_id)
        free_node = forest.node(free.node_id)
        return Occurrence(
            use=use,
            free=free,
            pair_type=classify_pair(forest, use_node, free_node),
            use_lineage=use_node.lineage_entries(),
            free_lineage=free_node.lineage_entries(),
            alias=self._alias_witness(use, free),
        )

    def _nodes_concurrent(self, use: AccessEvent, free: AccessEvent) -> bool:
        if use.node_id == free.node_id:
            # Callbacks on one looper are atomic; an access pair inside one
            # modeled thread is ordered by program order, not a race.
            return False
        forest = self.program.forest
        node_use = forest.node(use.node_id)
        node_free = forest.node(free.node_id)
        if self.options.use_mhp and not may_happen_in_parallel(
            forest, node_use, node_free
        ):
            return False
        if self.options.respect_locks and self.lockset is not None:
            if self.lockset.common_lock(use.uid, free.uid):
                return False
        return True

    # -- detection --------------------------------------------------------------------

    @staticmethod
    def _record_funnel(events: List[AccessEvent],
                       warnings: List[UafWarning]) -> None:
        """Top of the warning funnel: events -> same-field use/free
        candidate pairs -> potential warnings (instruction pairs)."""
        uses = sum(1 for e in events if e.kind == USE)
        frees = len(events) - uses
        by_field: Dict[Tuple[str, str], List[int]] = defaultdict(
            lambda: [0, 0]
        )
        for event in events:
            key = (event.fieldref.class_name, event.fieldref.field_name)
            by_field[key][0 if event.kind == USE else 1] += 1
        candidate_pairs = sum(u * f for u, f in by_field.values())
        obs.add("detector.events.use", uses)
        obs.add("detector.events.free", frees)
        obs.add("detector.candidate_pairs", candidate_pairs)
        obs.add("detector.potential_warnings", len(warnings))
        obs.add("detector.occurrences",
                sum(len(w.occurrences) for w in warnings))
        obs.add("report.witnesses.alias",
                sum(1 for w in warnings for o in w.occurrences
                    if o.alias is not None))
        obs.add("report.lineage.entries",
                sum(len(o.use_lineage) + len(o.free_lineage)
                    for w in warnings for o in w.occurrences))

    def detect(self) -> List[UafWarning]:
        """Chord's ``racyPair`` relation as direct joins: same-field
        use/free pairs on different modeled threads whose receivers may
        alias (``tests/race/test_chord_oracle.py`` pins the rules)."""
        events = collect_access_events(self.program)
        by_field: Dict[Tuple[str, str], Dict[str, List[AccessEvent]]] = defaultdict(
            lambda: {USE: [], FREE: []}
        )
        for event in events:
            key = (event.fieldref.class_name, event.fieldref.field_name)
            by_field[key][event.kind].append(event)

        warnings: Dict[Tuple[int, int], UafWarning] = {}
        for accesses in by_field.values():
            for use in accesses[USE]:
                for free in accesses[FREE]:
                    if not self._nodes_concurrent(use, free):
                        continue
                    if not self._may_alias(use, free):
                        continue
                    key = (use.uid, free.uid)
                    warning = warnings.get(key)
                    if warning is None:
                        warning = UafWarning(
                            fieldref=use.fieldref,
                            use_uid=use.uid,
                            free_uid=free.uid,
                            use_method=use.method_qname,
                            free_method=free.method_qname,
                        )
                        warnings[key] = warning
                    warning.occurrences.append(
                        self._make_occurrence(use, free)
                    )
        result = sorted(
            warnings.values(), key=lambda w: (w.fieldref.class_name,
                                              w.fieldref.field_name,
                                              w.use_uid, w.free_uid)
        )
        self._record_funnel(events, result)
        return result


def detect_uaf_warnings(
    program: ThreadifiedProgram,
    pointsto: PointsToResult,
    options: Optional[DetectorOptions] = None,
    lockset=None,
) -> List[UafWarning]:
    """One-call wrapper around :class:`UafDetector`."""
    return UafDetector(program, pointsto, options, lockset).detect()
