"""Threadification: transform + thread-forest construction (paper section 4).

The transform mirrors what nAdroid does with Soot:

1. **Registry synthesis.**  A synthetic ``$Registry`` class gets one static
   field per callback channel (posted runnables, handlers, threads,
   AsyncTasks, service connections, receivers, and one per listener
   interface).
2. **Stub rewriting.**  Framework posting/registration methods get bodies
   that store their callback object into the matching registry field, so
   callback receivers flow through the heap exactly once.  The rewritten
   stubs depend only on whether the app uses fragments and ordered
   broadcasts, so each of the four variants is built and sealed once per
   process and swapped in for the module's shared framework prelude.
3. **Dummy main.**  A synthetic ``DummyMain.main`` allocates every
   component, invokes its entry callbacks, and drains every registry field
   by invoking the registered callbacks -- giving downstream analyses a
   single entry point (like FlowDroid's dummy main), with flow-insensitive
   points-to closing the loop for callbacks registered inside callbacks.
4. **Forest construction.**  Entry callbacks become children of the dummy
   main; posted callbacks and threads become children of their
   poster/spawner, discovered by a region fixpoint over the CHA call graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from ..android.api import ApiKind, ApiSpec, lookup_api
from ..android.callbacks import (
    CallbackCategory,
    FRAGMENT_LIFECYCLE,
    PC_CATEGORY_BY_CALLBACK,
)
from ..android.framework import (
    framework_module,
    is_framework_class,
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

#: Listener interfaces that get their own registry slot.
_LISTENER_INTERFACES = (
    "OnClickListener",
    "OnLongClickListener",
    "OnTouchListener",
    "OnItemClickListener",
    "LocationListener",
    "SensorEventListener",
    "OnCompletionListener",
    "OnSharedPreferenceChangeListener",
)


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


def _store_registry(field_name: str):
    def build(builder: IRBuilder, method: Method) -> None:
        ref = FieldRef(REGISTRY_CLASS, field_name)
        builder.put_static(ref, Local(method.params[0].name))
    return build


def _store_registry_this(field_name: str):
    def build(builder: IRBuilder, method: Method) -> None:
        builder.put_static(FieldRef(REGISTRY_CLASS, field_name), Local("this"))
    return build


def rewrite_framework_stubs(module: Module, fragments: bool,
                            ordered: bool) -> None:
    """Replace the bodies of the framework posting/registration stubs in
    ``module`` with stores into the matching ``$Registry`` field.

    ``fragments`` and ``ordered`` add the fragment-transaction and
    ordered-broadcast rewrites, whose registry channels exist only when
    the application uses those APIs.
    """
    def reg(class_name: str, method_name: str, build) -> None:
        method = module.lookup_method(class_name, method_name)
        assert method is not None, \
            f"missing framework stub {class_name}.{method_name}"
        method.cfg = ControlFlowGraph()
        builder = IRBuilder(method)
        build(builder, method)
        builder.finish()

    reg("Handler", "post", _store_registry("$runnables"))
    reg("Handler", "postDelayed", _store_registry("$runnables"))
    reg("View", "post", _store_registry("$runnables"))
    reg("View", "postDelayed", _store_registry("$runnables"))
    reg("Activity", "runOnUiThread", _store_registry("$runnables"))
    reg("Handler", "sendMessage", _store_registry_this("$handlers"))
    reg("Handler", "sendMessageDelayed", _store_registry_this("$handlers"))
    reg("Handler", "sendEmptyMessage", _store_registry_this("$handlers"))
    reg("Thread", "start", _store_registry_this("$threads"))
    reg("ExecutorService", "execute", _store_registry("$tasks"))
    reg("ExecutorService", "submit", _store_registry("$tasks"))
    reg("Timer", "schedule", _store_registry("$tasks"))
    reg("AsyncTask", "execute", _store_registry_this("$asynctasks"))
    reg("AsyncTask", "publishProgress", _store_registry_this("$asynctasks"))
    reg("Context", "registerReceiver", _store_registry("$receivers"))

    def bind_service(builder: IRBuilder, method: Method) -> None:
        builder.put_static(
            FieldRef(REGISTRY_CLASS, "$connections"),
            Local(method.params[1].name),
        )
    reg("Context", "bindService", bind_service)

    if fragments:
        def commit_fragment(builder: IRBuilder, method: Method) -> None:
            builder.put_static(
                FieldRef(REGISTRY_CLASS, "$fragments"),
                Local(method.params[1].name),
            )
            # Preserve the chaining return value of the original stub.
            builder.ret(builder.new("FragmentTransaction"))
        reg("FragmentTransaction", "add", commit_fragment)
        reg("FragmentTransaction", "replace", commit_fragment)

    if ordered:
        def ordered_broadcast(builder: IRBuilder, method: Method) -> None:
            builder.put_static(
                FieldRef(REGISTRY_CLASS, "$ordered_receivers"),
                Local(method.params[1].name),
            )
        reg("Context", "sendOrderedBroadcast", ordered_broadcast)

    def thread_init(builder: IRBuilder, method: Method) -> None:
        builder.put_field(
            Local("this"), FieldRef("Thread", "$task"),
            Local(method.params[0].name),
        )
    reg("Thread", "<init>", thread_init)

    listener_registrations = [
        ("View", "setOnClickListener", "OnClickListener"),
        ("View", "setOnLongClickListener", "OnLongClickListener"),
        ("View", "setOnTouchListener", "OnTouchListener"),
        ("ListView", "setOnItemClickListener", "OnItemClickListener"),
        ("MediaPlayer", "setOnCompletionListener", "OnCompletionListener"),
        ("SharedPreferences", "registerOnSharedPreferenceChangeListener",
         "OnSharedPreferenceChangeListener"),
    ]
    for class_name, method_name, iface in listener_registrations:
        reg(class_name, method_name, _store_registry(f"$listener_{iface}"))

    def location_updates(builder: IRBuilder, method: Method) -> None:
        builder.put_static(
            FieldRef(REGISTRY_CLASS, "$listener_LocationListener"),
            Local(method.params[3].name),
        )
    reg("LocationManager", "requestLocationUpdates", location_updates)

    def sensor_listener(builder: IRBuilder, method: Method) -> None:
        builder.put_static(
            FieldRef(REGISTRY_CLASS, "$listener_SensorEventListener"),
            Local(method.params[0].name),
        )
    reg("SensorManager", "registerListener", sensor_listener)


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
        #: ApiKinds that actually occur at application call sites; registry
        #: channels for the newer APIs (fragments, ordered broadcasts) are
        #: synthesized only on demand so apps that never touch them produce
        #: byte-identical facts and forests to earlier versions.
        self._present_kinds: Set[ApiKind] = set()

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def run(self) -> ThreadifiedProgram:
        self._present_kinds = self._scan_api_kinds()
        if self.manifest is None:
            self.manifest = infer_manifest(self.module)
            self._drop_dynamic_receivers(self.manifest)
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
            synthetic_classes=set(self.synthetic),
        )
        self._collect_api_sites(program)
        self._build_forest(program, entry_callbacks, rta)
        return program

    # ------------------------------------------------------------------
    # Manifest adjustment
    # ------------------------------------------------------------------

    def _scan_api_kinds(self) -> Set[ApiKind]:
        """ApiKinds referenced by any application call site."""
        kinds: Set[ApiKind] = set()
        for method in self.module.own_methods():
            if is_framework_class(method.class_name):
                continue
            if method.class_name in self.synthetic:
                continue
            for instr in method.instructions():
                if not isinstance(instr, Invoke):
                    continue
                spec = lookup_api(
                    self.module, instr.methodref.class_name,
                    instr.methodref.method_name,
                )
                if spec is not None:
                    kinds.add(spec.kind)
        return kinds

    def _drop_dynamic_receivers(self, manifest: Manifest) -> None:
        """Inferred manifests list every receiver subclass; receivers that
        are registered dynamically -- or passed to ``sendOrderedBroadcast``
        as the result receiver -- are posted callbacks, not components."""
        dynamic: Set[str] = set()
        rta = instantiated_classes(self.module)
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
                if spec is None or spec.kind not in (
                    ApiKind.REGISTER_RECEIVER, ApiKind.SEND_ORDERED_BROADCAST,
                ):
                    continue
                arg = instr.args[spec.callback_arg]
                if isinstance(arg, Local):
                    dynamic |= resolve_local_classes(
                        self.module, method, arg, rta,
                    )
        for name in dynamic:
            decl = manifest.components.get(name)
            if decl is not None and decl.kind == "receiver":
                del manifest.components[name]

    # ------------------------------------------------------------------
    # Synthesis
    # ------------------------------------------------------------------

    def _registry_fields(self) -> List[Tuple[str, str]]:
        fields = [
            ("$runnables", "Runnable"),
            ("$tasks", "Runnable"),
            ("$threads", "Thread"),
            ("$handlers", "Handler"),
            ("$asynctasks", "AsyncTask"),
            ("$connections", "ServiceConnection"),
            ("$receivers", "BroadcastReceiver"),
        ]
        fields.extend(
            (f"$listener_{iface}", iface) for iface in _LISTENER_INTERFACES
        )
        if ApiKind.REGISTER_FRAGMENT in self._present_kinds:
            fields.append(("$fragments", "Fragment"))
        if ApiKind.SEND_ORDERED_BROADCAST in self._present_kinds:
            fields.append(("$ordered_receivers", "BroadcastReceiver"))
        return fields

    def _synthesize_registry(self) -> None:
        registry = ClassDef(REGISTRY_CLASS, super_name="Object")
        for name, type_name in self._registry_fields():
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

    def _seed_framework_fields(self, builder: IRBuilder, obj: Local,
                               class_name: str) -> None:
        """Environment injection: fields of *framework* type on a component
        (``Handler handler;``, ``ExecutorService pool;``) are provided by
        the Android runtime; seed them with fresh framework objects so the
        points-to analysis can dispatch calls through them.  Application-
        class fields are never seeded -- their values must flow from real
        application code."""
        from ..android.framework import concrete_return_class

        seen: Set[str] = set()
        for owner in [class_name, *self.module.superclasses(class_name)]:
            cls = self.module.lookup_class(owner)
            if cls is None or is_framework_class(owner):
                break
            for field_obj in cls.fields.values():
                if field_obj.name in seen or field_obj.is_static:
                    continue
                seen.add(field_obj.name)
                if not field_obj.type.is_reference():
                    continue
                if not is_framework_class(field_obj.type.name):
                    continue
                concrete = concrete_return_class(field_obj.type.name)
                if concrete is None:
                    continue
                seeded = builder.new(concrete)
                builder.put_field(
                    obj, FieldRef(owner, field_obj.name), seeded
                )

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
            self._seed_framework_fields(builder, obj, decl.name)
        for ec in entry_callbacks:
            base = component_locals.get(ec.receiver_class)
            if base is None:
                continue
            self._invoke_callback(builder, base, ec.receiver_class, ec.method_name)

        # Drain the registries.
        def load(field_name: str, type_name: str) -> Local:
            ref = FieldRef(REGISTRY_CLASS, field_name)
            return builder.get_static(ref, target=f"$drain_{field_name[1:]}")

        runnable = load("$runnables", "Runnable")
        self._invoke_callback(builder, runnable, "Runnable", "run")
        task = load("$tasks", "Runnable")
        self._invoke_callback(builder, task, "Runnable", "run")
        thread = load("$threads", "Thread")
        self._invoke_callback(builder, thread, "Thread", "run")
        inner = builder.get_field(thread, FieldRef("Thread", "$task"),
                                  target="$drain_thread_task")
        self._invoke_callback(builder, inner, "Runnable", "run")
        handler = load("$handlers", "Handler")
        self._invoke_callback(builder, handler, "Handler", "handleMessage")
        atask = load("$asynctasks", "AsyncTask")
        for callback in ("onPreExecute", "doInBackground",
                         "onProgressUpdate", "onPostExecute", "onCancelled"):
            self._invoke_callback(builder, atask, "AsyncTask", callback)
        conn = load("$connections", "ServiceConnection")
        self._invoke_callback(builder, conn, "ServiceConnection",
                              "onServiceConnected")
        self._invoke_callback(builder, conn, "ServiceConnection",
                              "onServiceDisconnected")
        receiver = load("$receivers", "BroadcastReceiver")
        self._invoke_callback(builder, receiver, "BroadcastReceiver", "onReceive")
        if ApiKind.REGISTER_FRAGMENT in self._present_kinds:
            fragment = load("$fragments", "Fragment")
            for callback in ("onAttach", "onCreate", "onStart", "onResume",
                             "onPause", "onStop", "onDestroy", "onDetach"):
                self._invoke_callback(builder, fragment, "Fragment", callback)
        if ApiKind.SEND_ORDERED_BROADCAST in self._present_kinds:
            ordered = load("$ordered_receivers", "BroadcastReceiver")
            self._invoke_callback(builder, ordered, "BroadcastReceiver",
                                  "onReceive")
        for iface in _LISTENER_INTERFACES:
            listener = load(f"$listener_{iface}", iface)
            iface_cls = self.module.lookup_class(iface)
            if iface_cls is None:
                continue
            for method_name in iface_cls.methods:
                self._invoke_callback(builder, listener, iface, method_name)
        builder.finish()

    # ------------------------------------------------------------------
    # Forest construction
    # ------------------------------------------------------------------

    def _collect_api_sites(self, program: ThreadifiedProgram) -> None:
        for method in self.module.own_methods():
            if is_framework_class(method.class_name):
                continue
            if method.class_name in self.synthetic:
                continue
            for instr in method.instructions():
                if not isinstance(instr, Invoke):
                    continue
                spec = lookup_api(
                    self.module, instr.methodref.class_name,
                    instr.methodref.method_name,
                )
                if spec is not None:
                    program.api_sites[instr.uid] = ApiSite(
                        instr.uid, method, instr, spec
                    )

    def _callback_operand(self, site: ApiSite) -> Optional[Local]:
        if site.spec.callback_arg is None:
            return site.invoke.base
        arg = site.invoke.args[site.spec.callback_arg]
        return arg if isinstance(arg, Local) else None

    def _region_skip_set(self, program: ThreadifiedProgram) -> Set[str]:
        if not hasattr(self, "_skip_cache"):
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

    def _app_implements(self, class_name: str, method_name: str) -> bool:
        """Does the class (or an app superclass) actually implement this
        callback, rather than inheriting the empty framework stub?"""
        resolved = self.module.resolve_method(class_name, method_name)
        return resolved is not None and not is_framework_class(resolved.class_name)

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
                    if not self._app_implements(cls_name, callback):
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
        operand = self._callback_operand(site)
        if operand is None:
            return created
        classes = resolve_local_classes(self.module, site.method, operand, rta)

        if kind in (ApiKind.POST_RUNNABLE, ApiKind.SEND_MESSAGE,
                    ApiKind.REGISTER_RECEIVER):
            for cls_name in sorted(classes):
                for callback in site.spec.callbacks:
                    if not self._app_implements(cls_name, callback):
                        continue
                    child = self._add_child(
                        program, parent, ThreadKind.POSTED_CALLBACK,
                        cls_name, callback, site,
                    )
                    if child is not None:
                        created.append(child)

        elif kind is ApiKind.SEND_ORDERED_BROADCAST:
            for cls_name in sorted(classes):
                if not self._app_implements(cls_name, "onReceive"):
                    continue
                child = self._add_child(
                    program, parent, ThreadKind.POSTED_CALLBACK,
                    cls_name, "onReceive", site,
                    category=CallbackCategory.RECEIVER_RESULT,
                )
                if child is not None:
                    created.append(child)

        elif kind is ApiKind.REGISTER_FRAGMENT:
            for cls_name in sorted(classes):
                for callback in site.spec.callbacks:
                    if callback not in FRAGMENT_LIFECYCLE:
                        continue
                    if not self._app_implements(cls_name, callback):
                        continue
                    child = self._add_child(
                        program, parent, ThreadKind.POSTED_CALLBACK,
                        cls_name, callback, site,
                        category=CallbackCategory.FRAGMENT,
                        group_key=f"frag:{cls_name}",
                    )
                    if child is not None:
                        created.append(child)

        elif kind is ApiKind.BIND_SERVICE:
            for cls_name in sorted(classes):
                for callback in site.spec.callbacks:
                    if not self._app_implements(cls_name, callback):
                        continue
                    child = self._add_child(
                        program, parent, ThreadKind.POSTED_CALLBACK,
                        cls_name, callback, site,
                        category=CallbackCategory.SERVICE_CONN,
                        group_key=f"conn:{cls_name}",
                    )
                    if child is not None:
                        created.append(child)

        elif kind is ApiKind.SPAWN_THREAD:
            for cls_name in sorted(classes):
                if cls_name == "Thread":
                    # `new Thread(r).start()`: the task's run() is the body.
                    tasks = resolve_thread_tasks(
                        self.module, site.method, operand, rta
                    )
                    for task_cls in sorted(tasks):
                        if not self._app_implements(task_cls, "run"):
                            continue
                        child = self._add_child(
                            program, parent, ThreadKind.NATIVE_THREAD,
                            task_cls, "run", site,
                        )
                        if child is not None:
                            created.append(child)
                elif self._app_implements(cls_name, "run"):
                    child = self._add_child(
                        program, parent, ThreadKind.NATIVE_THREAD,
                        cls_name, "run", site,
                    )
                    if child is not None:
                        created.append(child)

        elif kind is ApiKind.ASYNCTASK_EXECUTE:
            for cls_name in sorted(classes):
                group = f"task:{cls_name}"
                bg: Optional[ThreadNode] = None
                if self._app_implements(cls_name, "doInBackground"):
                    bg = self._add_child(
                        program, parent, ThreadKind.ASYNC_BACKGROUND,
                        cls_name, "doInBackground", site, group_key=group,
                    )
                    if bg is not None:
                        created.append(bg)
                # The looper-side callbacks are modeled as children of the
                # AsyncTask thread (paper Figure 3(e)).
                anchor = bg if bg is not None else parent
                for callback in ("onPreExecute", "onProgressUpdate",
                                 "onPostExecute", "onCancelled"):
                    if not self._app_implements(cls_name, callback):
                        continue
                    child = self._add_child(
                        program, anchor, ThreadKind.POSTED_CALLBACK,
                        cls_name, callback, site,
                        group_key=group,
                    )
                    if child is not None:
                        created.append(child)
        return created


def threadify(module: Module, manifest: Optional[Manifest] = None) -> ThreadifiedProgram:
    """One-call wrapper: run threadification on an unsealed module."""
    return Threadifier(module, manifest).run()
