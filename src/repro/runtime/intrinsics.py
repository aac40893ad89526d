"""Executable semantics of the Android framework API (the intrinsic table).

Each intrinsic implements one framework method for the simulator: posting
to the main looper, spawning threads, registering callbacks, cancelling
work, driving AsyncTasks, or just returning a plausible environment
object.  The table mirrors :mod:`repro.android.api` -- the static and
dynamic views of the framework must agree, and tests assert they do.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..android.framework import is_framework_class
from ..ir import FieldRef, Module
from .values import ObjRef

Intrinsic = Callable  # (sim, thread, receiver, args, instr) -> Value


class IntrinsicTable:
    """Dispatch table keyed by (framework class, method name)."""

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, str], Intrinsic] = {}
        _register_all(self._table)

    def lookup(self, class_name: str, method_name: str,
               module: Module) -> Optional[Intrinsic]:
        for name in [class_name, *sorted(module.supertypes(class_name))]:
            handler = self._table.get((name, method_name))
            if handler is not None:
                return handler
        return None

    @staticmethod
    def overrides(resolved_method) -> bool:
        """Intrinsics replace framework-declared bodies only; application
        overrides win."""
        return is_framework_class(resolved_method.class_name)


# ---------------------------------------------------------------------------
# Registration helpers
# ---------------------------------------------------------------------------


def _register_all(table: Dict[Tuple[str, str], Intrinsic]) -> None:
    def reg(class_name: str, method_name: str):
        def wrap(fn: Intrinsic) -> Intrinsic:
            table[(class_name, method_name)] = fn
            return fn
        return wrap

    # -- posting to the main looper ------------------------------------------

    @reg("Handler", "post")
    @reg("Handler", "postDelayed")
    @reg("View", "post")
    @reg("View", "postDelayed")
    @reg("Activity", "runOnUiThread")
    def _post(sim, thread, receiver, args, instr):
        runnable = args[0]
        if isinstance(runnable, ObjRef):
            sim.world.post(runnable, "run", poster=receiver)
        return True

    @reg("Handler", "sendMessage")
    @reg("Handler", "sendMessageDelayed")
    @reg("Handler", "sendEmptyMessage")
    def _send_message(sim, thread, receiver, args, instr):
        message = args[0] if args and isinstance(args[0], ObjRef) else None
        sim.world.post(receiver, "handleMessage", args=[message],
                       poster=receiver)
        return True

    @reg("Handler", "removeCallbacks")
    @reg("View", "removeCallbacks")
    def _remove_callbacks(sim, thread, receiver, args, instr):
        target = args[0]
        sim.world.remove_posts(lambda t: t.receiver == target)
        return True

    @reg("Handler", "removeCallbacksAndMessages")
    @reg("Handler", "removeMessages")
    def _remove_all(sim, thread, receiver, args, instr):
        sim.world.remove_posts(lambda t: t.poster == receiver)
        return None

    # -- threads ------------------------------------------------------------------

    @reg("Thread", "<init>")
    def _thread_init(sim, thread, receiver, args, instr):
        sim.heap.put_field(receiver, FieldRef("Thread", "$task"), args[0])
        return None

    @reg("Thread", "start")
    def _thread_start(sim, thread, receiver, args, instr):
        target = receiver
        resolved = sim.module.resolve_method(receiver.class_name, "run")
        if resolved is None or is_framework_class(resolved.class_name):
            task = sim.heap.get_field(receiver, FieldRef("Thread", "$task"))
            if isinstance(task, ObjRef):
                target = task
            else:
                return None
        sim.spawn_thread(target, "run", name=f"thread:{target.class_name}")
        return None

    @reg("Thread", "sleep")
    @reg("Thread", "join")
    @reg("Thread", "interrupt")
    def _thread_noop(sim, thread, receiver, args, instr):
        return None

    @reg("Thread", "isAlive")
    def _thread_is_alive(sim, thread, receiver, args, instr):
        return False

    @reg("ExecutorService", "execute")
    @reg("ExecutorService", "submit")
    @reg("Timer", "schedule")
    def _executor_execute(sim, thread, receiver, args, instr):
        task = args[0]
        if isinstance(task, ObjRef):
            sim.spawn_thread(task, "run", name=f"pool:{task.class_name}")
        return None

    @reg("Timer", "cancel")
    @reg("ExecutorService", "shutdown")
    def _executor_noop(sim, thread, receiver, args, instr):
        return None

    # -- AsyncTask -------------------------------------------------------------------

    @reg("AsyncTask", "execute")
    def _async_execute(sim, thread, receiver, args, instr):
        sim.world.start_asynctask(sim, thread, receiver)
        return receiver

    @reg("AsyncTask", "publishProgress")
    def _async_publish(sim, thread, receiver, args, instr):
        if not sim.world.is_cancelled(receiver):
            sim.world.post(receiver, "onProgressUpdate", poster=receiver)
        return None

    @reg("AsyncTask", "cancel")
    def _async_cancel(sim, thread, receiver, args, instr):
        sim.world.cancelled_tasks.add(receiver.oid)
        return True

    @reg("AsyncTask", "isCancelled")
    def _async_is_cancelled(sim, thread, receiver, args, instr):
        return sim.world.is_cancelled(receiver)

    # -- components and cancellation ----------------------------------------------------

    @reg("Activity", "finish")
    def _finish(sim, thread, receiver, args, instr):
        sim.world.finish_activity(receiver)
        return None

    @reg("Activity", "isFinishing")
    def _is_finishing(sim, thread, receiver, args, instr):
        return sim.world.is_finished(receiver)

    @reg("Context", "bindService")
    def _bind_service(sim, thread, receiver, args, instr):
        conn = args[1]
        if isinstance(conn, ObjRef):
            sim.world.bind_connection(conn)
        return True

    @reg("Context", "unbindService")
    def _unbind_service(sim, thread, receiver, args, instr):
        conn = args[0]
        if isinstance(conn, ObjRef):
            sim.world.unbind_connection(conn)
        return None

    @reg("Context", "registerReceiver")
    def _register_receiver(sim, thread, receiver, args, instr):
        target = args[0]
        if isinstance(target, ObjRef):
            sim.world.register(target, ("onReceive",))
        return None

    @reg("Context", "unregisterReceiver")
    def _unregister_receiver(sim, thread, receiver, args, instr):
        target = args[0]
        if isinstance(target, ObjRef):
            sim.world.unregister(target)
        return None

    @reg("Context", "startService")
    @reg("Context", "stopService")
    @reg("Context", "startActivity")
    @reg("Context", "sendBroadcast")
    def _component_noop(sim, thread, receiver, args, instr):
        return None

    @reg("Context", "getSystemService")
    def _get_system_service(sim, thread, receiver, args, instr):
        mapping = {
            "location": "LocationManager",
            "sensor": "SensorManager",
            "power": "PowerManager",
            "notification": "NotificationManager",
        }
        return sim.heap.alloc(mapping.get(args[0] or "", "Object"))

    # -- listener registration -----------------------------------------------------------

    listener_regs = [
        ("View", "setOnClickListener", ("onClick",)),
        ("View", "setOnLongClickListener", ("onLongClick",)),
        ("View", "setOnTouchListener", ("onTouch",)),
        ("ListView", "setOnItemClickListener", ("onItemClick",)),
        ("MediaPlayer", "setOnCompletionListener", ("onCompletion",)),
        ("SharedPreferences", "registerOnSharedPreferenceChangeListener",
         ("onSharedPreferenceChanged",)),
    ]
    for cls_name, mname, callbacks in listener_regs:
        def _make(callbacks=callbacks):
            def _register_listener(sim, thread, receiver, args, instr):
                target = args[0]
                if isinstance(target, ObjRef):
                    sim.world.register(target, callbacks, anchor=receiver)
                return None
            return _register_listener
        table[(cls_name, mname)] = _make()

    @reg("Activity", "findViewById")
    def _find_view(sim, thread, receiver, args, instr):
        view = sim.heap.alloc("View")
        sim.world.view_owner[view.oid] = receiver
        return view

    @reg("View", "setEnabled")
    def _set_enabled(sim, thread, receiver, args, instr):
        sim.world.set_anchor_enabled(receiver, bool(args[0]))
        return None

    @reg("View", "setVisibility")
    def _set_visibility(sim, thread, receiver, args, instr):
        # Android: 0 = VISIBLE; 4 = INVISIBLE; 8 = GONE
        sim.world.set_anchor_enabled(receiver, args[0] == 0)
        return None

    @reg("View", "isEnabled")
    def _is_enabled(sim, thread, receiver, args, instr):
        return receiver.oid not in sim.world.disabled_anchors

    @reg("ContentResolver", "registerContentObserver")
    def _register_observer(sim, thread, receiver, args, instr):
        target = args[1]
        if isinstance(target, ObjRef):
            sim.world.register(target, ("onChange",))
        return None

    @reg("ContentResolver", "unregisterContentObserver")
    def _unregister_observer(sim, thread, receiver, args, instr):
        target = args[0]
        if isinstance(target, ObjRef):
            sim.world.unregister(target)
        return None

    @reg("LocationManager", "requestLocationUpdates")
    def _request_location(sim, thread, receiver, args, instr):
        target = args[3]
        if isinstance(target, ObjRef):
            sim.world.register(target, (
                "onLocationChanged", "onStatusChanged",
                "onProviderEnabled", "onProviderDisabled",
            ))
        return None

    @reg("LocationManager", "removeUpdates")
    @reg("SensorManager", "unregisterListener")
    def _remove_listener(sim, thread, receiver, args, instr):
        target = args[0]
        if isinstance(target, ObjRef):
            sim.world.unregister(target)
        return None

    @reg("SensorManager", "registerListener")
    def _register_sensor(sim, thread, receiver, args, instr):
        target = args[0]
        if isinstance(target, ObjRef):
            sim.world.register(target, ("onSensorChanged", "onAccuracyChanged"))
        return True

    # -- small leaf APIs ------------------------------------------------------------------

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
