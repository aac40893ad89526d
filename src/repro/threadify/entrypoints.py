"""Entry-callback discovery (paper section 4.1).

Entry callbacks (ECs) are externally invoked by the Android runtime:
component lifecycle callbacks, Activity-level UI/system callbacks, and
statically-registered receiver callbacks.  Imperatively registered
listener callbacks (``setOnClickListener`` et al.) are also ECs -- the
paper models them as children of the dummy main -- but they are discovered
from registration sites by the threadifier, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..android.callbacks import (
    ACTIVITY_ENTRY_CALLBACKS,
    APPLICATION_LIFECYCLE,
    CallbackCategory,
    categorize_entry_callback,
    SERVICE_LIFECYCLE,
)
from ..android.framework import declared_callbacks
from ..android.manifest import Manifest
from ..ir import Module


@dataclass(frozen=True)
class EntryCallback:
    """One discovered entry callback."""

    receiver_class: str
    method_name: str
    category: CallbackCategory
    component: str


_KIND_CALLBACKS = {
    "activity": ACTIVITY_ENTRY_CALLBACKS,
    "service": SERVICE_LIFECYCLE,
    "receiver": frozenset({"onReceive"}),
    "application": APPLICATION_LIFECYCLE,
}


def discover_entry_callbacks(
    module: Module, manifest: Manifest
) -> List[EntryCallback]:
    """Find every component entry callback declared by the application.

    A method qualifies when its name is in the curated callback set for
    the component kind.  The sets are curated (FlowDroid-style), so a
    UI/system callback implemented on a component counts even without an
    imperative registration site -- mirroring declarative registration in
    layout XML (paper section 4.1).
    """
    result: List[EntryCallback] = []
    for decl in manifest.components.values():
        if module.lookup_class(decl.name) is None:
            continue
        for method_name in declared_callbacks(module, decl.name,
                                              _KIND_CALLBACKS[decl.kind]):
            result.append(
                EntryCallback(
                    receiver_class=decl.name,
                    method_name=method_name,
                    category=categorize_entry_callback(method_name, decl.kind),
                    component=decl.name,
                )
            )
    return result
