"""Executable semantics of the Android framework API (the intrinsic table).

Each intrinsic implements one framework method for the simulator: posting
to the main looper, spawning threads, registering callbacks, cancelling
work, driving AsyncTasks, or just returning a plausible environment
object.  The table derives from :mod:`repro.android.api`: each
``API_TABLE`` row runs the handler of its kind on the row's callback
object and callbacks, so the static and dynamic views of the framework
agree by construction.  Calls outside the API table are hand-written.
Rows of a kind without a handler are the named allowlist of
``tests/runtime/test_intrinsic_table.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from ..android.api import API_TABLE, ApiKind, ApiSpec, lookup_in_supertypes
from ..android.framework import app_override, is_framework_class, shared_framework
from ..ir import BOOLEAN, FieldRef, Module
from .values import ObjRef

Intrinsic = Callable  # (sim, thread, receiver, args, instr) -> Value


class IntrinsicTable:
    """Dispatch table keyed by (framework class, method name)."""

    def __init__(self) -> None:
        self._table = _intrinsics()

    def lookup(self, class_name: str, method_name: str,
               module: Module) -> Optional[Intrinsic]:
        return lookup_in_supertypes(self._table, module, class_name,
                                    method_name)

    @staticmethod
    def overrides(resolved_method) -> bool:
        """Intrinsics replace framework-declared bodies only; application
        overrides win."""
        return is_framework_class(resolved_method.class_name)


_THREAD_TASK = FieldRef("Thread", "$task")


def _kind_handlers() -> Dict[ApiKind, Callable]:
    """One handler per simulated API kind, called with the row's callback
    object as ``target`` (the receiver when the row names no argument)
    whenever that object is not null.  ``REGISTER_FRAGMENT`` and
    ``SEND_ORDERED_BROADCAST`` have none: they are not simulated."""
    handlers: Dict[ApiKind, Callable] = {}

    def handles(*kinds: ApiKind):
        def wrap(fn: Callable) -> Callable:
            handlers.update(dict.fromkeys(kinds, fn))
            return fn
        return wrap

    @handles(ApiKind.POST_RUNNABLE)
    def _post(sim, thread, receiver, target, args, spec):
        for callback in spec.callbacks:
            sim.world.post(target, callback, poster=receiver)

    @handles(ApiKind.SEND_MESSAGE)
    def _send_message(sim, thread, receiver, target, args, spec):
        message = args[0] if args and isinstance(args[0], ObjRef) else None
        for callback in spec.callbacks:
            sim.world.post(target, callback, args=[message], poster=receiver)

    @handles(ApiKind.ASYNCTASK_PUBLISH)
    def _publish(sim, thread, receiver, target, args, spec):
        if not sim.world.is_cancelled(target):
            _post(sim, thread, receiver, target, args, spec)

    @handles(ApiKind.SPAWN_THREAD)
    def _spawn(sim, thread, receiver, target, args, spec):
        # Thread.start runs the thread's own run() or else the task it was
        # constructed with; executors and timers run their argument
        prefix = "pool" if spec.callback_arg is not None else "thread"
        if prefix == "thread" and \
                app_override(sim.module, target.class_name, "run") is None:
            target = sim.heap.get_field(receiver, _THREAD_TASK)
        if isinstance(target, ObjRef):
            for callback in spec.callbacks:
                sim.spawn_thread(target, callback,
                                 name=f"{prefix}:{target.class_name}")

    @handles(ApiKind.ASYNCTASK_EXECUTE)
    def _execute(sim, thread, receiver, target, args, spec):
        sim.world.start_asynctask(sim, thread, target)
        return target

    @handles(ApiKind.REGISTER_RECEIVER, ApiKind.REGISTER_LISTENER)
    def _register(sim, thread, receiver, target, args, spec):
        sim.world.register(target, spec.callbacks, anchor=receiver)

    @handles(ApiKind.CANCEL_REMOVE_POSTS)
    def _remove_posts(sim, thread, receiver, target, args, spec):
        # with a callback argument, drop that object's posts; without
        # one, drop everything the receiver posted
        if spec.callback_arg is None:
            sim.world.remove_posts(lambda task: task.poster == receiver)
        else:
            sim.world.remove_posts(lambda task: task.receiver == target)

    @handles(ApiKind.BIND_SERVICE)
    def _bind(sim, thread, receiver, target, args, spec):
        sim.world.bind_connection(target)

    @handles(ApiKind.CANCEL_UNBIND)
    def _unbind(sim, thread, receiver, target, args, spec):
        sim.world.unbind_connection(target)

    @handles(ApiKind.CANCEL_UNREGISTER)
    def _unregister(sim, thread, receiver, target, args, spec):
        sim.world.unregister(target, spec.callbacks)

    @handles(ApiKind.CANCEL_FINISH)
    def _finish(sim, thread, receiver, target, args, spec):
        sim.world.finish_activity(target)

    @handles(ApiKind.CANCEL_ASYNCTASK)
    def _cancel_task(sim, thread, receiver, target, args, spec):
        sim.world.cancelled_tasks.add(target.oid)

    return handlers


def _row_intrinsic(handler, spec: ApiSpec, returns_true: bool) -> Intrinsic:
    """The intrinsic of one ``API_TABLE`` row.  A boolean framework call
    reports success (``true``); any other returns what its handler
    returns (the task, for ``AsyncTask.execute``)."""
    def intrinsic(sim, thread, receiver, args, instr):
        target = receiver if spec.callback_arg is None \
            else args[spec.callback_arg]
        result = None
        if isinstance(target, ObjRef):
            result = handler(sim, thread, receiver, target, args, spec)
        return True if returns_true else result
    return intrinsic


@lru_cache(maxsize=None)
def _intrinsics() -> Dict[Tuple[str, str], Intrinsic]:
    """The whole table, built once per process: the hand-written
    intrinsics plus one per simulated ``API_TABLE`` row."""
    table = _hand_written()
    handlers = _kind_handlers()
    framework = shared_framework()
    for key, spec in API_TABLE.items():
        if spec.kind in handlers:
            boolean = framework.resolve_method(*key).return_type == BOOLEAN
            table[key] = _row_intrinsic(handlers[spec.kind], spec, boolean)
    return table


def _hand_written() -> Dict[Tuple[str, str], Intrinsic]:
    """Intrinsics for the framework calls outside the API table."""
    table: Dict[Tuple[str, str], Intrinsic] = {}

    def reg(class_name: str, method_name: str):
        def wrap(fn: Intrinsic) -> Intrinsic:
            table[(class_name, method_name)] = fn
            return fn
        return wrap

    @reg("Thread", "<init>")
    def _thread_init(sim, thread, receiver, args, instr):
        sim.heap.put_field(receiver, _THREAD_TASK, args[0])

    @reg("Thread", "sleep")
    @reg("Thread", "join")
    @reg("Thread", "interrupt")
    @reg("ExecutorService", "shutdown")
    @reg("Context", "startService")
    @reg("Context", "stopService")
    @reg("Context", "startActivity")
    @reg("Context", "sendBroadcast")
    def _noop(sim, thread, receiver, args, instr):
        return None

    @reg("Thread", "isAlive")
    def _thread_is_alive(sim, thread, receiver, args, instr):
        return False

    @reg("AsyncTask", "isCancelled")
    def _async_is_cancelled(sim, thread, receiver, args, instr):
        return sim.world.is_cancelled(receiver)

    @reg("Activity", "isFinishing")
    def _is_finishing(sim, thread, receiver, args, instr):
        return sim.world.is_finished(receiver)

    @reg("Context", "getSystemService")
    def _get_system_service(sim, thread, receiver, args, instr):
        mapping = {
            "location": "LocationManager",
            "sensor": "SensorManager",
            "power": "PowerManager",
            "notification": "NotificationManager",
        }
        return sim.heap.alloc(mapping.get(args[0] or "", "Object"))

    @reg("Activity", "findViewById")
    def _find_view(sim, thread, receiver, args, instr):
        view = sim.heap.alloc("View")
        sim.world.view_owner[view.oid] = receiver
        return view

    @reg("View", "setEnabled")
    def _set_enabled(sim, thread, receiver, args, instr):
        sim.world.set_anchor_enabled(receiver, bool(args[0]))

    @reg("View", "setVisibility")
    def _set_visibility(sim, thread, receiver, args, instr):
        # Android: 0 = VISIBLE; 4 = INVISIBLE; 8 = GONE
        sim.world.set_anchor_enabled(receiver, args[0] == 0)

    @reg("View", "isEnabled")
    def _is_enabled(sim, thread, receiver, args, instr):
        return receiver.oid not in sim.world.disabled_anchors

    # ContentObserver is deliberately outside the API table (see
    # repro.android.framework): only the runtime delivers onChange.
    @reg("ContentResolver", "registerContentObserver")
    def _register_observer(sim, thread, receiver, args, instr):
        target = args[1]
        if isinstance(target, ObjRef):
            sim.world.register(target, ("onChange",))

    @reg("ContentResolver", "unregisterContentObserver")
    def _unregister_observer(sim, thread, receiver, args, instr):
        target = args[0]
        if isinstance(target, ObjRef):
            sim.world.unregister(target, ("onChange",))

    # -- small leaf APIs ------------------------------------------------------------

    @reg("Object", "equals")
    def _equals(sim, thread, receiver, args, instr):
        return receiver == args[0]

    @reg("Object", "hashCode")
    def _hash_code(sim, thread, receiver, args, instr):
        return receiver.oid if isinstance(receiver, ObjRef) else 0

    @reg("Object", "toString")
    def _to_string(sim, thread, receiver, args, instr):
        return str(receiver)

    @reg("System", "currentTimeMillis")
    def _current_time(sim, thread, receiver, args, instr):
        sim.clock += 1
        return sim.clock

    @reg("StringUtils", "isEmpty")
    def _is_empty(sim, thread, receiver, args, instr):
        return args[0] is None or args[0] == ""

    @reg("StringUtils", "equals")
    def _str_equals(sim, thread, receiver, args, instr):
        return args[0] == args[1]

    @reg("StringUtils", "valueOf")
    def _value_of(sim, thread, receiver, args, instr):
        return str(args[0])

    return table
