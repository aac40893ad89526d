"""Threadification: transform + thread-forest construction (paper section 4).

The transform mirrors what nAdroid does with Soot.  Everything it knows
about the framework's registration contract comes from ``API_TABLE`` and
one channel table (``_channels``):

1. **Registry synthesis.**  A synthetic ``$Registry`` class gets one static
   field per callback channel of the channel table: posted runnables,
   executor tasks, threads, handlers, AsyncTasks, service connections,
   receivers, fragments and ordered-broadcast result receivers (these two
   only in apps that use those APIs), and one per listener interface that
   a ``REGISTER_LISTENER`` stub takes.
2. **Stub rewriting.**  Every registering ``API_TABLE`` row's framework
   stub gets a body that stores its callback object (the receiver, or the
   row's ``callback_arg`` parameter) into the channel of the row's kind,
   so callback receivers flow through the heap exactly once.  The
   rewritten stubs depend only on whether the app uses fragments and
   ordered broadcasts, so each of the four variants is built and sealed
   once per process and swapped in for the module's shared framework
   prelude.
3. **Dummy main.**  A synthetic ``DummyMain.main`` allocates every
   component, invokes its entry callbacks, and drains every registry
   channel by invoking the callbacks the channel table lists for it --
   giving downstream analyses a single entry point (like FlowDroid's dummy
   main), with flow-insensitive points-to closing the loop for callbacks
   registered inside callbacks.
4. **Forest construction.**  Entry callbacks become children of the dummy
   main; posted callbacks and threads become children of their
   poster/spawner, discovered by a region fixpoint over the CHA call graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from ..android.api import API_TABLE, ApiKind, ApiSpec, CANCEL_KINDS, lookup_api
from ..android.callbacks import CallbackCategory, PC_CATEGORY_BY_CALLBACK
from ..android.framework import (
    app_override,
    framework_module,
    is_framework_class,
    provided_fields,
    shared_framework,
)
from ..android.manifest import infer_manifest, Manifest
from ..ir import (
    BOOLEAN,
    ClassDef,
    ClassType,
    Const,
    ControlFlowGraph,
    Field,
    FieldRef,
    Invoke,
    IRBuilder,
    Local,
    Method,
    MethodRef,
    Module,
    Operand,
    Type,
)
from ..analysis.callgraph import build_cha_callgraph, CallGraph, instantiated_classes
from .entrypoints import discover_entry_callbacks
from .model import ThreadForest, ThreadKind, ThreadNode
from .resolve import resolve_local_classes, resolve_thread_tasks

REGISTRY_CLASS = "$Registry"
DUMMY_MAIN_CLASS = "DummyMain"

#: ``$Registry`` channel -> (declared type, callbacks the dummy main drains
#: from it), in drain order.  The listener channels follow (``_channels``).
_FIXED_CHANNELS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "$runnables": ("Runnable", ("run",)),
    "$tasks": ("Runnable", ("run",)),
    "$threads": ("Thread", ("run",)),
    "$handlers": ("Handler", ("handleMessage",)),
    "$asynctasks": ("AsyncTask", ("onPreExecute", "doInBackground",
                                  "onProgressUpdate", "onPostExecute",
                                  "onCancelled")),
    "$connections": ("ServiceConnection", ("onServiceConnected",
                                           "onServiceDisconnected")),
    "$receivers": ("BroadcastReceiver", ("onReceive",)),
    "$fragments": ("Fragment", ("onAttach", "onCreate", "onStart",
                                "onResume", "onPause", "onStop",
                                "onDestroy", "onDetach")),
    "$ordered_receivers": ("BroadcastReceiver", ("onReceive",)),
}

#: The channel a registering stub of each kind stores into.  A
#: ``SPAWN_THREAD`` stub stores its receiver (a ``Thread``) into
#: ``$threads`` and its argument (a task) into ``$tasks``; a
#: ``REGISTER_LISTENER`` stub stores into its listener type's channel.
_KIND_CHANNELS: Dict[ApiKind, str] = {
    ApiKind.POST_RUNNABLE: "$runnables",
    ApiKind.SEND_MESSAGE: "$handlers",
    ApiKind.ASYNCTASK_EXECUTE: "$asynctasks",
    ApiKind.ASYNCTASK_PUBLISH: "$asynctasks",
    ApiKind.BIND_SERVICE: "$connections",
    ApiKind.REGISTER_RECEIVER: "$receivers",
    ApiKind.REGISTER_FRAGMENT: "$fragments",
    ApiKind.SEND_ORDERED_BROADCAST: "$ordered_receivers",
}

#: Kinds whose channel (and stub rewrites) exist only in apps that call an
#: API of that kind, so apps that never touch fragments or ordered
#: broadcasts produce the same facts and forests as before those APIs
#: were modeled.
_ON_DEMAND_KINDS = (ApiKind.REGISTER_FRAGMENT, ApiKind.SEND_ORDERED_BROADCAST)

#: Posted-callback kinds -> (category, group-key prefix) of the children a
#: site creates for each callback its class implements.  A ``None``
#: category is looked up per callback in ``PC_CATEGORY_BY_CALLBACK``.
_POSTED_KINDS: Dict[ApiKind, Tuple[Optional[CallbackCategory], Optional[str]]] = {
    ApiKind.POST_RUNNABLE: (None, None),
    ApiKind.SEND_MESSAGE: (None, None),
    ApiKind.REGISTER_RECEIVER: (None, None),
    ApiKind.SEND_ORDERED_BROADCAST: (CallbackCategory.RECEIVER_RESULT, None),
    ApiKind.REGISTER_FRAGMENT: (CallbackCategory.FRAGMENT, "frag"),
    ApiKind.BIND_SERVICE: (CallbackCategory.SERVICE_CONN, "conn"),
}


def _stub_channel(spec: ApiSpec, stub: Method) -> str:
    """The ``$Registry`` channel a registering stub stores into."""
    if spec.kind is ApiKind.REGISTER_LISTENER:
        return f"$listener_{stub.params[spec.callback_arg].type.name}"
    if spec.kind is ApiKind.SPAWN_THREAD:
        return "$threads" if spec.callback_arg is None else "$tasks"
    return _KIND_CHANNELS[spec.kind]


@lru_cache(maxsize=None)
def _channels() -> Dict[str, Tuple[str, Tuple[str, ...]]]:
    """The channel table: the fixed channels, then one channel per listener
    interface a ``REGISTER_LISTENER`` stub takes, draining every method of
    that interface.  Computed once per process."""
    framework = shared_framework()
    channels = dict(_FIXED_CHANNELS)
    for (class_name, method_name), spec in API_TABLE.items():
        if spec.kind is ApiKind.REGISTER_LISTENER:
            name = _stub_channel(
                spec, framework.lookup_method(class_name, method_name))
            iface = name[len("$listener_"):]
            channels[name] = (iface, tuple(framework.classes[iface].methods))
    return channels


@dataclass
class ApiSite:
    """One concurrency-relevant call site in application code."""

    uid: int
    method: Method
    invoke: Invoke
    spec: ApiSpec

    @property
    def qualified_caller(self) -> str:
        return self.method.qualified_name


@dataclass
class ThreadifiedProgram:
    """Result of threadification: the transformed module plus metadata."""

    module: Module
    forest: ThreadForest
    manifest: Manifest
    callgraph: CallGraph
    #: node_id -> qualified names of methods the node's thread executes
    regions: Dict[int, Set[str]] = field(default_factory=dict)
    api_sites: Dict[int, ApiSite] = field(default_factory=dict)
    synthetic_classes: Set[str] = field(default_factory=set)

    def is_app_class(self, name: str) -> bool:
        return (
            not is_framework_class(name)
            and name not in self.synthetic_classes
            and name in self.module.classes
        )


# ----------------------------------------------------------------------
# Framework stub rewriting
# ----------------------------------------------------------------------


def rewrite_framework_stubs(module: Module, fragments: bool,
                            ordered: bool) -> None:
    """Replace the body of every registering ``API_TABLE`` row's framework
    stub in ``module`` with a store of its callback object into the row's
    ``$Registry`` channel.

    ``fragments`` and ``ordered`` add the fragment-transaction and
    ordered-broadcast rewrites, whose registry channels exist only when
    the application uses those APIs.
    """
    def empty_stub(class_name: str, method_name: str) -> IRBuilder:
        method = module.lookup_method(class_name, method_name)
        assert method is not None, \
            f"missing framework stub {class_name}.{method_name}"
        method.cfg = ControlFlowGraph()
        return IRBuilder(method)

    skipped = set(CANCEL_KINDS)
    if not fragments:
        skipped.add(ApiKind.REGISTER_FRAGMENT)
    if not ordered:
        skipped.add(ApiKind.SEND_ORDERED_BROADCAST)
    for (class_name, method_name), spec in API_TABLE.items():
        if spec.kind in skipped:
            continue
        builder = empty_stub(class_name, method_name)
        stub = builder.method
        callback = ("this" if spec.callback_arg is None
                    else stub.params[spec.callback_arg].name)
        builder.put_static(FieldRef(REGISTRY_CLASS,
                                    _stub_channel(spec, stub)),
                           Local(callback))
        if spec.kind is ApiKind.REGISTER_FRAGMENT:
            # Preserve the chaining return value of the original stub.
            builder.ret(builder.new("FragmentTransaction"))
        builder.finish()

    # `new Thread(r)` keeps its task, which the $threads drain runs.
    builder = empty_stub("Thread", "<init>")
    builder.put_field(Local("this"), FieldRef("Thread", "$task"),
                      Local(builder.method.params[0].name))
    builder.finish()


@lru_cache(maxsize=None)
def threadified_framework(fragments: bool, ordered: bool) -> Module:
    """The shared framework prelude with its stubs rewritten: one sealed
    variant per process per rewrite choice, numbered exactly as the
    rewritten stubs of a private framework would be."""
    return framework_module(
        lambda module: rewrite_framework_stubs(module, fragments, ordered))


def build_shared_frameworks() -> None:
    """Build every framework prelude variant now (before forking workers,
    which then inherit them instead of each building its own)."""
    shared_framework()
    for fragments in (False, True):
        for ordered in (False, True):
            threadified_framework(fragments, ordered)


class Threadifier:
    """Run the threadification transform on an *unsealed* module."""

    def __init__(self, module: Module, manifest: Optional[Manifest] = None) -> None:
        if module.sealed:
            raise ValueError(
                "threadification must run on an unsealed module "
                "(compile with seal=False)"
            )
        self.module = module
        self.manifest = manifest
        self.synthetic: Set[str] = set()
        #: ApiKinds that actually occur at application call sites.
        self._present_kinds: Set[ApiKind] = set()
        #: The registry channels of this app, in drain order.
        self._channels: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        self._skip_cache: Optional[Set[str]] = None

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def run(self) -> ThreadifiedProgram:
        calls = self._scan_call_sites()
        self._present_kinds = {spec.kind for _, _, spec in calls}
        absent = {_KIND_CHANNELS[kind] for kind in _ON_DEMAND_KINDS
                  if kind not in self._present_kinds}
        self._channels = {name: channel
                          for name, channel in _channels().items()
                          if name not in absent}
        if self.manifest is None:
            self.manifest = infer_manifest(self.module)
            self._drop_dynamic_receivers(self.manifest, calls)
        entry_callbacks = discover_entry_callbacks(self.module, self.manifest)

        self._synthesize_registry()
        self._rewrite_framework_stubs()
        self._synthesize_dummy_main(entry_callbacks)
        self.module.seal()

        rta = instantiated_classes(self.module)
        callgraph = build_cha_callgraph(self.module, rta)
        program = ThreadifiedProgram(
            module=self.module,
            forest=ThreadForest(),
            manifest=self.manifest,
            callgraph=callgraph,
            api_sites={instr.uid: ApiSite(instr.uid, method, instr, spec)
                       for method, instr, spec in calls},
            synthetic_classes=set(self.synthetic),
        )
        self._build_forest(program, entry_callbacks, rta)
        return program

    # ------------------------------------------------------------------
    # Call sites and manifest adjustment
    # ------------------------------------------------------------------

    def _scan_call_sites(self) -> List[Tuple[Method, Invoke, ApiSpec]]:
        """Every application call site of an ``API_TABLE`` method.  The
        scan runs before synthesis, and sealing later numbers these same
        instructions, so it also yields the program's API sites."""
        calls: List[Tuple[Method, Invoke, ApiSpec]] = []
        for method in self.module.own_methods():
            if is_framework_class(method.class_name):
                continue
            for instr in method.instructions():
                if not isinstance(instr, Invoke):
                    continue
                spec = lookup_api(
                    self.module, instr.methodref.class_name,
                    instr.methodref.method_name,
                )
                if spec is not None:
                    calls.append((method, instr, spec))
        return calls

    def _drop_dynamic_receivers(
        self, manifest: Manifest, calls: List[Tuple[Method, Invoke, ApiSpec]]
    ) -> None:
        """Inferred manifests list every receiver subclass; receivers that
        are registered dynamically -- or passed to ``sendOrderedBroadcast``
        as the result receiver -- are posted callbacks, not components."""
        registrations = [
            (method, instr.args[spec.callback_arg])
            for method, instr, spec in calls
            if spec.kind in (ApiKind.REGISTER_RECEIVER,
                             ApiKind.SEND_ORDERED_BROADCAST)
        ]
        if not registrations:
            return
        dynamic: Set[str] = set()
        rta = instantiated_classes(self.module)
        for method, arg in registrations:
            if isinstance(arg, Local):
                dynamic |= resolve_local_classes(self.module, method, arg, rta)
        for name in dynamic:
            decl = manifest.components.get(name)
            if decl is not None and decl.kind == "receiver":
                del manifest.components[name]

    # ------------------------------------------------------------------
    # Synthesis
    # ------------------------------------------------------------------

    def _synthesize_registry(self) -> None:
        registry = ClassDef(REGISTRY_CLASS, super_name="Object")
        for name, (type_name, _) in self._channels.items():
            registry.add_field(
                Field(name, ClassType(type_name), is_static=True)
            )
        self.module.add_class(registry)
        self.synthetic.add(REGISTRY_CLASS)

    def _rewrite_framework_stubs(self) -> None:
        """Give the posting/registration stubs their registry bodies.

        A module whose framework is the shared prelude swaps it for the
        pre-built variant with those bodies; a module that owns private
        framework classes has them rewritten in place.
        """
        fragments = ApiKind.REGISTER_FRAGMENT in self._present_kinds
        ordered = ApiKind.SEND_ORDERED_BROADCAST in self._present_kinds
        if self.module.prelude is not None:
            self.module.set_prelude(threadified_framework(fragments, ordered))
        else:
            rewrite_framework_stubs(self.module, fragments, ordered)

    @staticmethod
    def _default_arg(type_: Type) -> Operand:
        if type_ == BOOLEAN:
            return Const(False)
        if not type_.is_reference():
            return Const(0)
        return Const(None)

    def _invoke_callback(
        self, builder: IRBuilder, base: Local, declared_class: str, method_name: str
    ) -> None:
        resolved = self.module.resolve_method(declared_class, method_name)
        if resolved is None:
            return
        args = [self._default_arg(p.type) for p in resolved.params]
        ref = MethodRef(declared_class, method_name, resolved.arity)
        builder.invoke("virtual", base, ref, args, None)

    def _synthesize_dummy_main(self, entry_callbacks) -> None:
        dummy = ClassDef(DUMMY_MAIN_CLASS, super_name="Object")
        main = Method(DUMMY_MAIN_CLASS, "main", is_static=True)
        dummy.add_method(main)
        self.module.add_class(dummy)
        self.synthetic.add(DUMMY_MAIN_CLASS)
        builder = IRBuilder(main)

        # Static initializers first.
        for cls in list(self.module.classes.values()):
            if is_framework_class(cls.name) or cls.name in self.synthetic:
                continue
            if "<clinit>" in cls.methods:
                builder.invoke(
                    "static", None, MethodRef(cls.name, "<clinit>", 0), []
                )

        # Allocate each component and fire its entry callbacks.
        component_locals: Dict[str, Local] = {}
        for decl in self.manifest.components.values():
            cls = self.module.lookup_class(decl.name)
            if cls is None or cls.is_interface:
                continue
            obj = builder.new(decl.name, target=f"$cmp_{decl.name}")
            component_locals[decl.name] = obj
            ctor = self.module.resolve_method(decl.name, "<init>")
            if ctor is not None and ctor.arity == 0:
                builder.invoke(
                    "special", obj, MethodRef(ctor.class_name, "<init>", 0), []
                )
            for ref, concrete in provided_fields(self.module, decl.name):
                builder.put_field(obj, ref, builder.new(concrete))
        for ec in entry_callbacks:
            base = component_locals.get(ec.receiver_class)
            if base is None:
                continue
            self._invoke_callback(builder, base, ec.receiver_class, ec.method_name)

        # Drain the registry channels.
        for name, (type_name, callbacks) in self._channels.items():
            drained = builder.get_static(FieldRef(REGISTRY_CLASS, name),
                                         target=f"$drain_{name[1:]}")
            for callback in callbacks:
                self._invoke_callback(builder, drained, type_name, callback)
            if name == "$threads":
                task = builder.get_field(drained, FieldRef("Thread", "$task"),
                                         target="$drain_thread_task")
                self._invoke_callback(builder, task, "Runnable", "run")
        builder.finish()

    # ------------------------------------------------------------------
    # Forest construction
    # ------------------------------------------------------------------

    def _callback_operand(self, site: ApiSite) -> Optional[Local]:
        if site.spec.callback_arg is None:
            return site.invoke.base
        arg = site.invoke.args[site.spec.callback_arg]
        return arg if isinstance(arg, Local) else None

    def _region_skip_set(self, program: ThreadifiedProgram) -> Set[str]:
        if self._skip_cache is None:
            self._skip_cache = {
                qname
                for qname in program.callgraph.methods
                if qname.split(".")[0] in self.synthetic
                or is_framework_class(qname.split(".")[0])
            }
        return self._skip_cache

    def _node_region(self, program: ThreadifiedProgram, node: ThreadNode) -> Set[str]:
        if node.kind is ThreadKind.DUMMY_MAIN:
            return set()
        entry = self.module.resolve_method(node.receiver_class, node.method_name)
        if entry is None:
            return set()
        return program.callgraph.reachable_from(
            {entry.qualified_name}, skip=self._region_skip_set(program)
        )

    def _build_forest(self, program: ThreadifiedProgram, entry_callbacks,
                      rta: Set[str]) -> None:
        forest = program.forest

        for ec in entry_callbacks:
            node = forest.add_entry_callback(
                ec.receiver_class, ec.method_name, ec.category, ec.component
            )
            program.regions[node.node_id] = self._node_region(program, node)

        # Listener registrations create ECs (children of the dummy main).
        # Callbacks already discovered through the component scan (e.g. an
        # Activity registering itself as a listener) are not duplicated.
        seen_listeners: Set[Tuple[str, str]] = {
            node.entry for node in forest.entry_callbacks()
        }
        for site in program.api_sites.values():
            if site.spec.kind is not ApiKind.REGISTER_LISTENER:
                continue
            operand = self._callback_operand(site)
            if operand is None:
                continue
            classes = resolve_local_classes(self.module, site.method, operand, rta)
            for cls_name in sorted(classes):
                for callback in site.spec.callbacks:
                    if not app_override(self.module, cls_name, callback):
                        continue
                    if (cls_name, callback) in seen_listeners:
                        continue
                    seen_listeners.add((cls_name, callback))
                    node = forest.add_entry_callback(
                        cls_name, callback, CallbackCategory.UI,
                        component=self._owning_component(cls_name),
                    )
                    program.regions[node.node_id] = self._node_region(program, node)

        # Posted callbacks and threads: fixpoint over regions.
        work: List[ThreadNode] = list(forest)
        while work:
            node = work.pop()
            region = program.regions.get(node.node_id, set())
            for site in program.api_sites.values():
                if site.qualified_caller not in region:
                    continue
                for child in self._children_for_site(program, node, site, rta):
                    work.append(child)

    def _owning_component(self, class_name: str) -> Optional[str]:
        """The component whose code lexically contains a class, following
        the $outer chain of anonymous classes."""
        name = class_name
        hops = 0
        while hops < 16:
            if self.manifest is not None and name in self.manifest.components:
                return name
            base = name.split("$", 1)[0] if "$" in name else None
            if base is None or base == name:
                return None
            name = base
            hops += 1
        return None

    def _add_child(
        self,
        program: ThreadifiedProgram,
        parent: ThreadNode,
        kind: ThreadKind,
        receiver_class: str,
        method_name: str,
        site: ApiSite,
        category: Optional[CallbackCategory] = None,
        group_key: Optional[str] = None,
    ) -> Optional[ThreadNode]:
        key = (receiver_class, method_name, site.uid)
        for ancestor in [parent, *parent.ancestors()]:
            if (ancestor.receiver_class, ancestor.method_name,
                    ancestor.post_site) == key:
                return None  # cycle: a callback re-posting itself
        for child in program.forest.children(parent):
            if (child.receiver_class, child.method_name, child.post_site) == key:
                return None  # already modeled
        if kind is ThreadKind.POSTED_CALLBACK:
            node = program.forest.add_posted_callback(
                parent, receiver_class, method_name,
                category or PC_CATEGORY_BY_CALLBACK.get(
                    method_name, CallbackCategory.POSTED_RUNNABLE),
                post_site=site.uid,
                component=self._owning_component(receiver_class),
                group_key=group_key,
            )
        else:
            node = program.forest.add_native_thread(
                parent, receiver_class, method_name,
                post_site=site.uid, kind=kind, group_key=group_key,
            )
        program.regions[node.node_id] = self._node_region(program, node)
        return node

    def _children_for_site(
        self,
        program: ThreadifiedProgram,
        parent: ThreadNode,
        site: ApiSite,
        rta: Set[str],
    ) -> List[ThreadNode]:
        kind = site.spec.kind
        created: List[ThreadNode] = []
        if kind not in _POSTED_KINDS and kind not in (
                ApiKind.SPAWN_THREAD, ApiKind.ASYNCTASK_EXECUTE):
            return created
        operand = self._callback_operand(site)
        if operand is None:
            return created
        classes = resolve_local_classes(self.module, site.method, operand, rta)

        def add(anchor: ThreadNode, thread_kind: ThreadKind, cls_name: str,
                callback: str, **kwargs) -> Optional[ThreadNode]:
            child = self._add_child(program, anchor, thread_kind, cls_name,
                                    callback, site, **kwargs)
            if child is not None:
                created.append(child)
            return child

        if kind in _POSTED_KINDS:
            category, prefix = _POSTED_KINDS[kind]
            for cls_name in sorted(classes):
                group = None if prefix is None else f"{prefix}:{cls_name}"
                for callback in site.spec.callbacks:
                    if app_override(self.module, cls_name, callback):
                        add(parent, ThreadKind.POSTED_CALLBACK, cls_name,
                            callback, category=category, group_key=group)

        elif kind is ApiKind.SPAWN_THREAD:
            for cls_name in sorted(classes):
                if cls_name == "Thread":
                    # `new Thread(r).start()`: the task's run() is the body.
                    tasks = resolve_thread_tasks(
                        self.module, site.method, operand, rta
                    )
                    for task_cls in sorted(tasks):
                        if app_override(self.module, task_cls, "run"):
                            add(parent, ThreadKind.NATIVE_THREAD, task_cls,
                                "run")
                elif app_override(self.module, cls_name, "run"):
                    add(parent, ThreadKind.NATIVE_THREAD, cls_name, "run")

        else:  # ApiKind.ASYNCTASK_EXECUTE
            for cls_name in sorted(classes):
                group = f"task:{cls_name}"
                bg: Optional[ThreadNode] = None
                if app_override(self.module, cls_name, "doInBackground"):
                    bg = add(parent, ThreadKind.ASYNC_BACKGROUND, cls_name,
                             "doInBackground", group_key=group)
                # The looper-side callbacks are modeled as children of the
                # AsyncTask thread (paper Figure 3(e)).
                anchor = bg if bg is not None else parent
                for callback in ("onPreExecute", "onProgressUpdate",
                                 "onPostExecute", "onCancelled"):
                    if app_override(self.module, cls_name, callback):
                        add(anchor, ThreadKind.POSTED_CALLBACK, cls_name,
                            callback, group_key=group)
        return created


def threadify(module: Module, manifest: Optional[Manifest] = None) -> ThreadifiedProgram:
    """One-call wrapper: run threadification on an unsealed module."""
    return Threadifier(module, manifest).run()
