"""Sound filters (paper section 6.1): MHB, If-Guard, Intra-Allocation.

Each filter returns a :class:`repro.race.warnings.Witness` naming the
evidence for its prune -- the specific MHB edge (source contract plus
endpoint callbacks), the guard fact and its atomicity premise, or the
allocation fact and store sites -- so every decision is explainable in
the section-7 report.
"""

from __future__ import annotations

from typing import Optional

from ..android.callbacks import CallbackCategory, SYSTEM_CALLBACKS, UI_CALLBACKS
from ..android.lifecycle import (
    activity_mhb,
    ASYNCTASK_MHB,
    FRAGMENT_MHB,
    ORDERED_BROADCAST_MHB,
    SERVICE_CONNECTION_MHB,
    SERVICE_MHB,
)
from ..race.warnings import Occurrence, UafWarning, Witness
from .base import Filter, FilterContext

_NON_LIFECYCLE_CALLBACKS = UI_CALLBACKS | SYSTEM_CALLBACKS


def _mhb_witness(edge: str, use_node, free_node, **extra) -> Witness:
    """An MHB edge witness: which contract orders which two callbacks."""
    data = {
        "edge": edge,
        "use_callback": f"{use_node.receiver_class}.{use_node.method_name}",
        "free_callback": f"{free_node.receiver_class}.{free_node.method_name}",
        "use_node": use_node.node_id,
        "free_node": free_node.node_id,
        **extra,
    }
    return Witness(
        kind="mhb-edge",
        detail=(f"{edge}: {use_node.method_name} must happen before "
                f"{free_node.method_name}"),
        data=data,
    )


class MustHappenBeforeFilter(Filter):
    """MHB (section 6.1.1): prune when the use must precede the free.

    Five statically sound MHB sources: the Service connection contract,
    the AsyncTask contract, the Fragment transaction lifecycle, the
    ordered-broadcast delivery order, and the Activity/Service lifecycle
    automaton (onCreate before everything, everything before onDestroy --
    and nothing else, because of the lifecycle back edges).
    """

    name = "MHB"
    sound = True

    def witness(self, occ: Occurrence, warning: UafWarning,
                ctx: FilterContext) -> Optional[Witness]:
        use_node, free_node = ctx.nodes_of(occ)
        use_cb = use_node.method_name
        free_cb = free_node.method_name

        # MHB-Service (connection contract).
        if (
            use_node.category is CallbackCategory.SERVICE_CONN
            and free_node.category is CallbackCategory.SERVICE_CONN
            and use_node.group_key is not None
            and use_node.group_key == free_node.group_key
            and (use_cb, free_cb) in SERVICE_CONNECTION_MHB
        ):
            return _mhb_witness("MHB-Service", use_node, free_node,
                                group=use_node.group_key)

        # MHB-AsyncTask.
        if (
            use_node.group_key is not None
            and use_node.group_key == free_node.group_key
            and use_node.group_key.startswith("task:")
            and (use_cb, free_cb) in ASYNCTASK_MHB
        ):
            return _mhb_witness("MHB-AsyncTask", use_node, free_node,
                                group=use_node.group_key)

        # MHB-Fragment: both callbacks belong to the same committed fragment.
        if (
            use_node.group_key is not None
            and use_node.group_key == free_node.group_key
            and use_node.group_key.startswith("frag:")
            and (use_cb, free_cb) in FRAGMENT_MHB
        ):
            return _mhb_witness("MHB-Fragment", use_node, free_node,
                                group=use_node.group_key)

        # MHB-OrderedBroadcast: a dynamically registered receiver handles
        # an ordered broadcast before the result receiver runs.
        if (
            use_node.category is CallbackCategory.RECEIVER
            and free_node.category is CallbackCategory.RECEIVER_RESULT
            and (use_cb, free_cb) in ORDERED_BROADCAST_MHB
        ):
            return _mhb_witness("MHB-OrderedBroadcast", use_node, free_node)

        # MHB-Lifecycle: both callbacks belong to the same component.
        if (
            use_node.component is not None
            and use_node.component == free_node.component
            and use_node.is_callback
            and free_node.is_callback
        ):
            kind = ctx.component_kind(use_node.component)
            if kind in ("activity", "application"):
                if activity_mhb(use_cb, free_cb, _NON_LIFECYCLE_CALLBACKS):
                    return _mhb_witness("MHB-Lifecycle", use_node, free_node,
                                        component=use_node.component,
                                        component_kind=kind)
            elif kind == "service":
                if (use_cb, free_cb) in SERVICE_MHB:
                    return _mhb_witness("MHB-Lifecycle", use_node, free_node,
                                        component=use_node.component,
                                        component_kind=kind)
        return None


class IfGuardFilter(Filter):
    """IG (section 6.1.2): a null check protecting the use is decisive when
    the check-to-use window is atomic with respect to the free -- i.e. both
    are callbacks on the same looper, or a common lock is held."""

    name = "IG"
    sound = True

    def witness(self, occ: Occurrence, warning: UafWarning,
                ctx: FilterContext) -> Optional[Witness]:
        use = occ.use
        if use.base_local is None:
            return None  # static-field guards are not tracked
        method = ctx._method(use.method_qname)
        from .guards import use_is_pure_check

        field = f"{use.fieldref.class_name}.{use.fieldref.field_name}"
        if use_is_pure_check(ctx.module, method, use.uid):
            # the read *is* the guard: its value only feeds null
            # comparisons and can never be dereferenced
            return Witness(
                kind="guard",
                detail=(f"read of {field} at line {use.line} is itself a "
                        "null check; its value is never dereferenced"),
                data={"guard": "pure-check", "field": field,
                      "use_line": use.line},
            )
        guards = ctx.guards(use.method_qname)
        if not guards.use_protected(
            use.uid, use.base_local,
            use.fieldref.class_name, use.fieldref.field_name,
        ):
            return None
        atomicity = ctx.atomicity_witness(occ)
        if atomicity is None:
            return None
        return Witness(
            kind="guard",
            detail=(f"use of {field} at line {use.line} sits behind a "
                    f"null check, atomic via {atomicity['kind']}"),
            data={"guard": "null-check", "field": field,
                  "use_line": use.line, "atomicity": atomicity},
        )


class IntraAllocationFilter(Filter):
    """IA (section 6.1.3): an allocation (`new`) stored into the field
    before the use, within the same atomic callback, makes the free
    unobservable.  Getter-produced values are deliberately *not* accepted
    here (that is the unsound MA filter)."""

    name = "IA"
    sound = True
    #: Whether a getter-call result counts as a stored allocation.
    allow_calls = False

    def holds(self, source: str) -> str:
        """How the witness describes what the field holds."""
        return "must hold a fresh `new`"

    def witness(self, occ: Occurrence, warning: UafWarning,
                ctx: FilterContext) -> Optional[Witness]:
        use = occ.use
        if use.base_local is None:
            return None
        allocs = ctx.allocs(use.method_qname)
        found = allocs.allocation_witness(
            use.uid, use.base_local,
            use.fieldref.class_name, use.fieldref.field_name,
            allow_calls=self.allow_calls,
        )
        if found is None:
            return None
        atomicity = ctx.atomicity_witness(occ)
        if atomicity is None:
            return None
        source, sites = found
        field = f"{use.fieldref.class_name}.{use.fieldref.field_name}"
        lines = ", ".join(str(s["line"]) for s in sites) or "?"
        return Witness(
            kind="allocation",
            detail=(f"{field} {self.holds(source)} stored at "
                    f"line(s) {lines} before the use at line {use.line}"),
            data={"source": source, "field": field, "use_line": use.line,
                  "store_sites": sites, "atomicity": atomicity},
        )


SOUND_FILTERS = (MustHappenBeforeFilter(), IfGuardFilter(), IntraAllocationFilter())
