"""DEvA baseline: event-anomaly detection (Safi et al., ESEC/FSE 2015).

The paper compares against DEvA (sections 2.3, 8.7) and attributes to it
three limitations, all reproduced here deliberately:

1. **No happens-before reasoning** -- every pair of distinct event
   callbacks is considered unordered, so MHB-protected pairs (e.g. uses
   against ``onDestroy`` frees) are reported as harmful (Table 3's false
   positives).
2. **Unsound if-guard / intra-allocation filters** -- DEvA assumes every
   method executes atomically, so a guard or allocation suppresses a
   warning regardless of any concurrent free (a false-negative source for
   looper-vs-thread pairs like Figure 1(c)).
3. **Intra-class scope** -- read/write sets are computed per class
   (including its inner classes); racy accesses spanning unrelated classes
   (e.g. an Activity and a separate Runnable class) are invisible
   (the false-negative source for Figures 1(a)/(b) when the callback
   lives in another top-level class).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..android.callbacks import (
    ACTIVITY_ENTRY_CALLBACKS,
    APPLICATION_LIFECYCLE,
    PC_CATEGORY_BY_CALLBACK,
    SERVICE_LIFECYCLE,
)
from ..android.framework import is_framework_class
from ..filters.guards import AllocAnalysis, GuardAnalysis, use_is_benign
from ..ir import GetField, Method, Module, PutField
from ..threadify.transform import DUMMY_MAIN_CLASS, REGISTRY_CLASS

#: every method name DEvA treats as an event handler
EVENT_HANDLER_NAMES = frozenset(
    ACTIVITY_ENTRY_CALLBACKS
    | SERVICE_LIFECYCLE
    | APPLICATION_LIFECYCLE
    | set(PC_CATEGORY_BY_CALLBACK)
    | {"doInBackground"}
)

_SYNTHETIC = {REGISTRY_CLASS, DUMMY_MAIN_CLASS}


@dataclass(frozen=True)
class DevaWarning:
    """One DEvA event anomaly (a use/free pair within one class group)."""

    field_class: str
    field_name: str
    use_method: str
    free_method: str
    use_uid: int
    free_uid: int
    #: False when DEvA's (unsound) IG/IA check suppressed it
    harmful: bool

    @property
    def key(self) -> Tuple[int, int]:
        return (self.use_uid, self.free_uid)


class DevaAnalyzer:
    """Run the baseline on a module (framework/synthetic classes skipped)."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._guards: Dict[str, GuardAnalysis] = {}
        self._allocs: Dict[str, AllocAnalysis] = {}

    # -- class grouping (intra-class scope) ------------------------------------

    def _group_root(self, class_name: str) -> str:
        return class_name.split("$", 1)[0]

    def _class_groups(self) -> Dict[str, List[str]]:
        groups: Dict[str, List[str]] = {}
        for name in self.module.classes:
            if is_framework_class(name) or name in _SYNTHETIC:
                continue
            groups.setdefault(self._group_root(name), []).append(name)
        return groups

    def _event_handlers(self, group: List[str]) -> List[Method]:
        handlers = []
        for class_name in group:
            cls = self.module.lookup_class(class_name)
            if cls is None:
                continue
            for method in cls.methods.values():
                if method.name in EVENT_HANDLER_NAMES and method.cfg.blocks:
                    handlers.append(method)
        return handlers

    # -- unsound IG/IA ----------------------------------------------------------

    def _protected(self, method: Method, use_uid: int, base: str,
                   field_class: str, field_name: str) -> bool:
        qname = method.qualified_name
        if qname not in self._guards:
            self._guards[qname] = GuardAnalysis(self.module, method)
            self._allocs[qname] = AllocAnalysis(self.module, method)
        if self._guards[qname].use_protected(use_uid, base, field_class,
                                             field_name):
            return True  # atomicity assumed unconditionally: unsound
        if self._allocs[qname].allocated_at(
            use_uid, base, field_class, field_name, allow_calls=True
        ):
            return True
        # reads feeding only a null comparison ARE the if-guard itself
        return use_is_benign(self.module, method, use_uid)

    # -- detection -----------------------------------------------------------------

    def analyze(self) -> List[DevaWarning]:
        warnings: List[DevaWarning] = []
        for root, group in sorted(self._class_groups().items()):
            group_set = set(group)
            handlers = self._event_handlers(group)
            uses: List[Tuple[Method, GetField]] = []
            frees: List[Tuple[Method, PutField]] = []
            for method in handlers:
                for instr in method.instructions():
                    if isinstance(instr, GetField) \
                            and not instr.fieldref.field_name.startswith("$"):
                        uses.append((method, instr))
                    elif isinstance(instr, PutField) and instr.is_free() \
                            and not instr.fieldref.field_name.startswith("$"):
                        frees.append((method, instr))

            for use_method, use in uses:
                use_field = self.module.resolve_field(
                    use.fieldref.class_name, use.fieldref.field_name
                ) or use.fieldref
                # intra-class restriction: the field must belong to this
                # class group
                if self._group_root(use_field.class_name) not in {
                    self._group_root(g) for g in group_set
                }:
                    continue
                for free_method, free in frees:
                    if free_method.qualified_name == use_method.qualified_name:
                        continue
                    free_field = self.module.resolve_field(
                        free.fieldref.class_name, free.fieldref.field_name
                    ) or free.fieldref
                    if (use_field.class_name, use_field.field_name) != (
                        free_field.class_name, free_field.field_name,
                    ):
                        continue
                    protected = self._protected(
                        use_method, use.uid, use.base.name,
                        use_field.class_name, use_field.field_name,
                    )
                    warnings.append(
                        DevaWarning(
                            field_class=use_field.class_name,
                            field_name=use_field.field_name,
                            use_method=use_method.qualified_name,
                            free_method=free_method.qualified_name,
                            use_uid=use.uid,
                            free_uid=free.uid,
                            harmful=not protected,
                        )
                    )
        return warnings


def run_deva(module: Module) -> List[DevaWarning]:
    """One-call wrapper returning every DEvA warning."""
    return DevaAnalyzer(module).analyze()
