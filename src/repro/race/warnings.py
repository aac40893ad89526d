"""Warning model: instruction-level UAF pairs with per-thread occurrences.

A *warning* is a (use instruction, free instruction) pair on one field --
the unit the paper counts in Table 1.  The same instruction pair can be
exercised by several thread pairs (the same helper method may run under
several callbacks); each such (use node, free node) combination is an
*occurrence*.  Filters prune occurrences; a warning survives while at
least one occurrence survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..ir import FieldRef
from ..threadify.model import ThreadForest, ThreadKind, ThreadNode
from .events import AccessEvent

#: Table 1 origin categories (section 7).
PAIR_EC_EC = "EC-EC"
PAIR_EC_PC = "EC-PC"
PAIR_PC_PC = "PC-PC"
PAIR_C_RT = "C-RT"
PAIR_C_NT = "C-NT"
PAIR_T_T = "T-T"

PAIR_TYPES = (PAIR_EC_EC, PAIR_EC_PC, PAIR_PC_PC, PAIR_C_RT, PAIR_C_NT, PAIR_T_T)


def classify_pair(forest: ThreadForest, a: ThreadNode, b: ThreadNode) -> str:
    """Origin category of a node pair (paper section 7)."""
    if a.is_callback and b.is_callback:
        kinds = sorted(
            ("EC" if n.kind is ThreadKind.ENTRY_CALLBACK else "PC") for n in (a, b)
        )
        return f"{kinds[0]}-{kinds[1]}"
    if a.is_callback or b.is_callback:
        callback, thread = (a, b) if a.is_callback else (b, a)
        if forest.is_reachable_thread(callback, thread):
            return PAIR_C_RT
        return PAIR_C_NT
    return PAIR_T_T


@dataclass(frozen=True)
class Witness:
    """Why one analysis decision holds: the section-7 provenance unit.

    Every filter that prunes or downgrades an occurrence produces one of
    these; the detector attaches one per occurrence for the points-to
    claim that made the pair a candidate in the first place.  ``data`` is
    JSON-safe so witnesses ride through the runner's cache envelopes and
    into reports unchanged.
    """

    #: vocabulary: ``mhb-edge``, ``guard``, ``allocation``, ``resume-hb``,
    #: ``cancel-hb``, ``post-hb``, ``return-use``, ``thread-thread``,
    #: ``points-to``, ``static-field`` (see docs/reporting.md)
    kind: str
    #: one human-readable line for the decision trail
    detail: str
    #: structured payload (endpoint nodes, lock, allocation site, ...)
    data: Dict[str, Any] = field(default_factory=dict, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "detail": self.detail,
                "data": dict(self.data)}

    @staticmethod
    def from_dict(payload: Optional[Dict[str, Any]]) -> Optional["Witness"]:
        if payload is None:
            return None
        return Witness(kind=payload["kind"], detail=payload["detail"],
                       data=dict(payload.get("data", {})))


@dataclass
class Occurrence:
    """One (use node, free node) realization of a warning."""

    use: AccessEvent
    free: AccessEvent
    pair_type: str
    #: name of the sound filter that pruned this occurrence, if any
    pruned_by: Optional[str] = None
    #: name of the unsound filter that downgraded it, if any
    downgraded_by: Optional[str] = None
    #: why the pruning/downgrading filter fired (None while surviving)
    witness: Optional[Witness] = None
    #: poster->postee callback lineage of each side, root (dummy main)
    #: first -- serializable snapshot of the thread-forest paths
    use_lineage: List[Dict[str, Any]] = field(default_factory=list)
    free_lineage: List[Dict[str, Any]] = field(default_factory=list)
    #: the points-to witness that made the pair a candidate (abstract
    #: field plus the overlapping allocation contexts, or static-field)
    alias: Optional[Witness] = None

    @property
    def surviving(self) -> bool:
        return self.pruned_by is None and self.downgraded_by is None

    @property
    def surviving_sound(self) -> bool:
        return self.pruned_by is None

    @property
    def verdict(self) -> str:
        """``surviving``, ``downgraded`` or ``pruned`` (decision trail)."""
        if self.pruned_by is not None:
            return "pruned"
        if self.downgraded_by is not None:
            return "downgraded"
        return "surviving"


@dataclass
class UafWarning:
    """A potential UAF ordering violation on one field."""

    fieldref: FieldRef
    use_uid: int
    free_uid: int
    use_method: str
    free_method: str
    occurrences: List[Occurrence] = field(default_factory=list)

    @property
    def key(self) -> Tuple[int, int]:
        return (self.use_uid, self.free_uid)

    def surviving_occurrences(self) -> List[Occurrence]:
        return [o for o in self.occurrences if o.surviving]

    @property
    def survives_sound(self) -> bool:
        return any(o.surviving_sound for o in self.occurrences)

    @property
    def survives_all(self) -> bool:
        return any(o.surviving for o in self.occurrences)

    @property
    def status(self) -> str:
        """Report classification: ``remaining`` (survives every filter),
        ``downgraded`` (killed only by unsound filters) or ``pruned``."""
        if self.survives_all:
            return "remaining"
        if self.survives_sound:
            return "downgraded"
        return "pruned"

    def pair_type(self) -> str:
        """Category of the warning: taken from a surviving occurrence when
        one exists, else from the first occurrence."""
        for occ in self.occurrences:
            if occ.surviving:
                return occ.pair_type
        for occ in self.occurrences:
            if occ.surviving_sound:
                return occ.pair_type
        return self.occurrences[0].pair_type if self.occurrences else PAIR_EC_EC

    def pruning_filters(self) -> Dict[str, int]:
        """How many occurrences each filter removed (diagnostics)."""
        counts: Dict[str, int] = {}
        for occ in self.occurrences:
            name = occ.pruned_by or occ.downgraded_by
            if name:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def describe(self) -> str:
        """Programmer-facing description with callback/thread lineage
        (the section-7 aid), read off each occurrence's lineage entries,
        so it also works on a result decoded from a task payload."""
        lines = [
            f"potential UAF on {self.fieldref}:",
            f"  use : {self.use_method} (line {self._line('use')})",
            f"  free: {self.free_method} (line {self._line('free')})",
        ]
        shown = self.surviving_occurrences() or self.occurrences
        for occ in shown[:4]:
            lines.append(f"  [{occ.pair_type}]")
            for label, lineage in (("use  thread", occ.use_lineage),
                                   ("free thread", occ.free_lineage)):
                path = " -> ".join(entry["entry"] for entry in lineage)
                lines.append(f"    {label}: {path}")
        return "\n".join(lines)

    def _line(self, which: str) -> int:
        if not self.occurrences:
            return 0
        occ = self.occurrences[0]
        return occ.use.line if which == "use" else occ.free.line
