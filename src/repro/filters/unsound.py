"""Unsound filters (paper section 6.2): RHB, CHB, PHB, MA, UR, TT.

These encode likely-true may-happens-before relations and common Android
idioms learned from the training applications.  They are applied after the
sound filters; pruned warnings are *downgraded* rather than deleted, so a
soundness-demanding user can still review them (section 6.2's ranking
interpretation).
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..android.api import ApiKind, CANCEL_KINDS
from ..android.callbacks import CallbackCategory
from ..ir import Const, Local, PutField
from ..race.warnings import Occurrence, UafWarning, Witness
from ..threadify.model import ThreadNode
from ..threadify.resolve import resolve_local_classes
from .base import Filter, FilterContext
from .guards import use_is_benign
from .sound import IntraAllocationFilter

_UI_LIKE = (CallbackCategory.UI, CallbackCategory.SYSTEM)


class ResumeHappensBeforeFilter(Filter):
    """RHB (6.2.1): a UI callback's use is assumed safe against onPause's
    free when onResume (may-)reallocates the field -- the "restore
    invariants on resume" idiom of Figure 4(d)."""

    name = "RHB"
    sound = False

    def witness(self, occ: Occurrence, warning: UafWarning,
                ctx: FilterContext) -> Optional[Witness]:
        use_node, free_node = ctx.nodes_of(occ)
        if free_node.method_name != "onPause":
            return None
        if use_node.category not in _UI_LIKE:
            return None
        component = free_node.component
        if component is None or use_node.component != component:
            return None
        on_resume = ctx.module.resolve_method(component, "onResume")
        if on_resume is None or not on_resume.cfg.blocks:
            return None
        field = occ.use.fieldref
        for instr in on_resume.instructions():
            if not isinstance(instr, PutField):
                continue
            resolved = ctx.module.resolve_field(
                instr.fieldref.class_name, instr.fieldref.field_name
            ) or instr.fieldref
            if (resolved.class_name, resolved.field_name) != (
                field.class_name, field.field_name,
            ):
                continue
            if not (isinstance(instr.value, Const) and instr.value.is_null()):
                # may-allocation on some path: assume safe
                qname = on_resume.qualified_name
                return Witness(
                    kind="resume-hb",
                    detail=(f"{qname} (line {instr.line}) may reallocate "
                            f"{field.class_name}.{field.field_name} before "
                            "the UI callback re-fires"),
                    data={"edge": "Resume-HB",
                          "reallocation_method": qname,
                          "reallocation_line": instr.line,
                          "component": component},
                )
        return None


class CancelHappensBeforeFilter(Filter):
    """CHB (6.2.1): when the free's callback (may-)invokes a cancellation
    API that stops the use's callback from ever running afterwards, the
    free-then-use order cannot occur (Figure 4(e))."""

    name = "CHB"
    sound = False

    def _cancel_sites_in_region(self, ctx: FilterContext,
                                node: ThreadNode) -> List:
        region = ctx.program.regions.get(node.node_id, set())
        return [
            site for _, site in sorted(ctx.program.api_sites.items())
            if site.spec.kind in CANCEL_KINDS
            and site.qualified_caller in region
        ]

    @staticmethod
    def _witness_for(kind: ApiKind, sites, use_node: ThreadNode,
                     stops: str) -> Witness:
        site = next(s for s in sites if s.spec.kind is kind)
        callback = f"{use_node.receiver_class}.{use_node.method_name}"
        return Witness(
            kind="cancel-hb",
            detail=(f"{kind.name.lower()} call in "
                    f"{site.qualified_caller} (line {site.invoke.line}) "
                    f"stops {stops}, so {callback} cannot run afterwards"),
            data={"edge": "Cancel-HB", "api": kind.name,
                  "cancel_site": site.qualified_caller,
                  "cancel_line": site.invoke.line,
                  "cancelled_callback": callback},
        )

    def witness(self, occ: Occurrence, warning: UafWarning,
                ctx: FilterContext) -> Optional[Witness]:
        use_node, free_node = ctx.nodes_of(occ)
        if not use_node.is_callback:
            return None  # cancellation cannot stop a running native thread
        sites = self._cancel_sites_in_region(ctx, free_node)
        kinds = {site.spec.kind for site in sites}
        if not kinds:
            return None
        category = use_node.category
        finish_cancellable = category in _UI_LIKE or (
            category is CallbackCategory.LIFECYCLE
            # after finish() the activity only walks the teardown path;
            # the (re)start-side callbacks can no longer fire
            and use_node.method_name in (
                "onCreate", "onStart", "onRestart", "onResume",
            )
        )
        if ApiKind.CANCEL_FINISH in kinds and finish_cancellable:
            # finish() stops UI/system callbacks of the same activity.
            if (
                use_node.component is not None
                and use_node.component == free_node.component
            ):
                return self._witness_for(
                    ApiKind.CANCEL_FINISH, sites, use_node,
                    f"the {use_node.component} activity's callbacks",
                )
        if ApiKind.CANCEL_UNBIND in kinds \
                and category is CallbackCategory.SERVICE_CONN:
            return self._witness_for(ApiKind.CANCEL_UNBIND, sites, use_node,
                                     "the service connection")
        if ApiKind.CANCEL_UNREGISTER in kinds and category in (
            CallbackCategory.RECEIVER, CallbackCategory.UI,
            CallbackCategory.SYSTEM,
        ):
            if category is CallbackCategory.RECEIVER:
                return self._witness_for(
                    ApiKind.CANCEL_UNREGISTER, sites, use_node,
                    "the broadcast receiver",
                )
            # removeUpdates / unregisterListener: match the listener class.
            if self._unregisters_class(ctx, free_node, use_node.receiver_class):
                return self._witness_for(
                    ApiKind.CANCEL_UNREGISTER, sites, use_node,
                    f"the {use_node.receiver_class} listener",
                )
        if ApiKind.CANCEL_REMOVE_POSTS in kinds and category in (
            CallbackCategory.POSTED_RUNNABLE, CallbackCategory.HANDLER_MESSAGE,
        ):
            return self._witness_for(
                ApiKind.CANCEL_REMOVE_POSTS, sites, use_node,
                "pending posts on the handler",
            )
        if ApiKind.CANCEL_ASYNCTASK in kinds and category in (
            CallbackCategory.ASYNC_PRE, CallbackCategory.ASYNC_PROGRESS,
            CallbackCategory.ASYNC_POST,
        ):
            return self._witness_for(
                ApiKind.CANCEL_ASYNCTASK, sites, use_node,
                "the AsyncTask's remaining callbacks",
            )
        return None

    def _unregisters_class(self, ctx: FilterContext, free_node: ThreadNode,
                           listener_class: str) -> bool:
        region = ctx.program.regions.get(free_node.node_id, set())
        from ..analysis.callgraph import instantiated_classes

        rta = instantiated_classes(ctx.module)
        for site in ctx.program.api_sites.values():
            if site.spec.kind is not ApiKind.CANCEL_UNREGISTER:
                continue
            if site.qualified_caller not in region:
                continue
            if site.spec.callback_arg is None:
                return True
            arg = site.invoke.args[site.spec.callback_arg]
            if not isinstance(arg, Local):
                continue
            classes = resolve_local_classes(ctx.module, site.method, arg, rta)
            if not classes or listener_class in classes:
                return True
        return False


class PostHappensBeforeFilter(Filter):
    """PHB (6.2.1): a poster and its postee on the same looper are ordered
    (the callback completes before its posted event runs), so a pair along
    a post chain is not a race -- unsound when one UI callback instance
    re-fires (Figure 4(f))."""

    name = "PHB"
    sound = False

    def witness(self, occ: Occurrence, warning: UafWarning,
                ctx: FilterContext) -> Optional[Witness]:
        use_node, free_node = ctx.nodes_of(occ)
        if not ctx.program.forest.same_looper(use_node, free_node):
            return None
        if free_node in use_node.ancestors():
            poster, postee = free_node, use_node
        elif use_node in free_node.ancestors():
            poster, postee = use_node, free_node
        else:
            return None
        return Witness(
            kind="post-hb",
            detail=(f"{poster.receiver_class}.{poster.method_name} posts "
                    f"{postee.receiver_class}.{postee.method_name} on the "
                    f"{use_node.looper!r} looper: the poster completes "
                    "before its postee runs"),
            data={"edge": "Post-HB",
                  "poster": f"{poster.receiver_class}.{poster.method_name}",
                  "postee": f"{postee.receiver_class}.{postee.method_name}",
                  "poster_node": poster.node_id,
                  "postee_node": postee.node_id,
                  "post_site": postee.post_site,
                  "looper": use_node.looper},
        )


class MaybeAllocationFilter(IntraAllocationFilter):
    """MA (6.2.2): like IA, but accepts getter-call results on the
    assumption that custom getters never return null (Figure 4(a))."""

    name = "MA"
    sound = False
    allow_calls = True

    def holds(self, source: str) -> str:
        if source == "new":
            return "holds a fresh `new`"
        return "holds a getter result (assumed non-null)"


class UsedForReturnFilter(Filter):
    """UR (6.2.3): prune uses whose value is only returned, passed as an
    argument, or null-compared -- never locally dereferenced."""

    name = "UR"
    sound = False

    def witness(self, occ: Occurrence, warning: UafWarning,
                ctx: FilterContext) -> Optional[Witness]:
        use = occ.use
        class_name, method_name = use.method_qname.rsplit(".", 1)
        method = ctx.module.lookup_method(class_name, method_name)
        if method is None:
            return None
        if not use_is_benign(ctx.module, method, use.uid):
            return None
        field = f"{use.fieldref.class_name}.{use.fieldref.field_name}"
        return Witness(
            kind="return-use",
            detail=(f"value read from {field} at line {use.line} in "
                    f"{use.method_qname} is only returned, passed as an "
                    "argument or null-compared -- never dereferenced"),
            data={"field": field, "use_method": use.method_qname,
                  "use_line": use.line, "use_uid": use.uid},
        )


class ThreadThreadFilter(Filter):
    """TT (6.2.4): races purely between native threads are the classic,
    well-studied kind; nAdroid focuses on pairs involving a looper."""

    name = "TT"
    sound = False

    def witness(self, occ: Occurrence, warning: UafWarning,
                ctx: FilterContext) -> Optional[Witness]:
        use_node, free_node = ctx.nodes_of(occ)
        if not (use_node.is_native and free_node.is_native):
            return None
        return Witness(
            kind="thread-thread",
            detail=(f"both sides run on native threads "
                    f"({use_node.receiver_class}.{use_node.method_name} vs "
                    f"{free_node.receiver_class}.{free_node.method_name}); "
                    "no looper is involved"),
            data={"use_thread":
                  f"{use_node.receiver_class}.{use_node.method_name}",
                  "free_thread":
                  f"{free_node.receiver_class}.{free_node.method_name}",
                  "use_node": use_node.node_id,
                  "free_node": free_node.node_id},
        )


UNSOUND_FILTERS = (
    ResumeHappensBeforeFilter(),
    CancelHappensBeforeFilter(),
    PostHappensBeforeFilter(),
    MaybeAllocationFilter(),
    UsedForReturnFilter(),
    ThreadThreadFilter(),
)

#: The paper groups RHB+CHB+PHB as "mayHB" in Figure 5(b).
MAYHB_FILTER_NAMES = ("RHB", "CHB", "PHB")
