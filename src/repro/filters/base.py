"""Filter framework: context object and base class (paper section 6).

Every filter justifies its decisions: :meth:`Filter.witness` returns a
:class:`repro.race.warnings.Witness` naming *why* an occurrence is pruned
(the HB edge, the common lock, the allocation site, ...), and
:meth:`Filter.prunes` is derived from it, so a prune can never happen
without a recordable reason.  The pipeline attaches the witness to the
occurrence; reports render it as the per-occurrence decision trail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..analysis.lockset import LocksetAnalysis
from ..analysis.pointsto import PointsToResult
from ..ir import Method, Module
from ..race.warnings import Occurrence, UafWarning, Witness
from ..threadify.model import ThreadNode
from ..threadify.transform import ThreadifiedProgram
from .guards import AllocAnalysis, GuardAnalysis


@dataclass
class FilterOptions:
    """Pipeline configuration.

    ``assume_single_looper`` is the section-8.1 assumption: every component
    has exactly one looper thread, making callbacks mutually atomic.  When
    False, the IG and IA filters lose their atomicity premise for
    callback-callback pairs and fall back to requiring a common lock
    (downgrading them to unsound, as the paper notes).

    ``sound_only`` restricts the pipeline to the section-6.1 sound filters
    (MHB, IG, IA); the unsound filters of section 6.2 are skipped, so no
    occurrence is ever downgraded.  This is the paper's
    no-false-negatives configuration.
    """

    assume_single_looper: bool = True
    sound_only: bool = False


class FilterContext:
    """Shared state and per-method analysis caches for all filters."""

    def __init__(
        self,
        program: ThreadifiedProgram,
        pointsto: PointsToResult,
        lockset: LocksetAnalysis,
        options: Optional[FilterOptions] = None,
    ) -> None:
        self.program = program
        self.module: Module = program.module
        self.pointsto = pointsto
        self.lockset = lockset
        self.options = options or FilterOptions()
        self._guards: Dict[str, GuardAnalysis] = {}
        self._allocs: Dict[str, AllocAnalysis] = {}

    # -- per-method caches -------------------------------------------------------

    def _method(self, qname: str) -> Method:
        class_name, method_name = qname.rsplit(".", 1)
        method = self.module.lookup_method(class_name, method_name)
        assert method is not None
        return method

    def guards(self, method_qname: str) -> GuardAnalysis:
        if method_qname not in self._guards:
            self._guards[method_qname] = GuardAnalysis(
                self.module, self._method(method_qname)
            )
        return self._guards[method_qname]

    def allocs(self, method_qname: str) -> AllocAnalysis:
        if method_qname not in self._allocs:
            self._allocs[method_qname] = AllocAnalysis(
                self.module, self._method(method_qname)
            )
        return self._allocs[method_qname]

    # -- shared helpers ---------------------------------------------------------

    def nodes_of(self, occ: Occurrence) -> Tuple[ThreadNode, ThreadNode]:
        forest = self.program.forest
        return forest.node(occ.use.node_id), forest.node(occ.free.node_id)

    def atomic_with_respect_to(self, occ: Occurrence) -> bool:
        """Is the use's callback atomic w.r.t. the free (no interleaving)?

        True for two callbacks on the same looper (section 2.1 atomicity,
        under the single-looper assumption), or when both accesses hold a
        common lock.
        """
        return self.atomicity_witness(occ) is not None

    def atomicity_witness(self, occ: Occurrence) -> Optional[Dict[str, Any]]:
        """The reason the use is atomic w.r.t. the free, when one exists.

        ``{"kind": "same-looper", "looper": ...}`` under the
        single-looper assumption, or ``{"kind": "common-lock",
        "lock": <abstract lock object>}`` when a singleton lock is
        must-held at both accesses.
        """
        use_node, free_node = self.nodes_of(occ)
        if (
            self.options.assume_single_looper
            and self.program.forest.same_looper(use_node, free_node)
        ):
            return {"kind": "same-looper", "looper": use_node.looper}
        lock = self.lockset.common_lock_witness(occ.use.uid, occ.free.uid)
        if lock is not None:
            return {"kind": "common-lock", "lock": list(lock)}
        return None

    def component_kind(self, component: Optional[str]) -> Optional[str]:
        if component is None:
            return None
        decl = self.program.manifest.component(component)
        return decl.kind if decl is not None else None


class Filter:
    """One pruning rule.

    Subclasses implement :meth:`witness`, which must be side-effect free:
    return the :class:`Witness` justifying the prune, or ``None`` when the
    occurrence stays.  ``prunes`` is its boolean view; the pipeline
    reads only ``witness``, once per occurrence.
    """

    name: str = "base"
    sound: bool = True

    def witness(self, occ: Occurrence, warning: UafWarning,
                ctx: FilterContext) -> Optional[Witness]:
        if type(self).prunes is not Filter.prunes:
            # Legacy subclass implementing only the boolean ``prunes``
            # (e.g. user extensions): wrap its verdict generically so the
            # decision trail never loses a prune.
            if self.prunes(occ, warning, ctx):
                return Witness(kind="filter",
                               detail=f"pruned by custom filter {self.name}")
            return None
        raise NotImplementedError(
            f"{type(self).__name__} implements neither witness() nor prunes()"
        )

    def prunes(self, occ: Occurrence, warning: UafWarning,
               ctx: FilterContext) -> bool:
        return self.witness(occ, warning, ctx) is not None
