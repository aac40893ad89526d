"""The Android event-loop simulator.

Drives a sealed module (normally the threadified one, so instruction uids
match the static analysis) under an explicit schedule:

* the **main looper thread** dispatches one posted event or one external
  (lifecycle / UI / system) event at a time, running each callback to
  completion (atomicity, section 2.1);
* **native threads** (Thread/executor/AsyncTask backgrounds) interleave
  with everything at instruction granularity;
* **external events** are generated lawfully: lifecycle callbacks follow
  the Activity automaton (including the back edges), listeners fire only
  while registered, service connections respect the bind contract, and
  ``finish()`` suppresses further UI events -- so any NullPointerException
  the simulator produces corresponds to a feasible Android execution.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..android.callbacks import SYSTEM_CALLBACKS, UI_CALLBACKS
from ..android.framework import (
    app_override, declared_callbacks, is_framework_class, provided_fields,
)
from ..android.lifecycle import ACTIVE_STATES, ACTIVITY_TRANSITIONS
from ..android.manifest import Manifest
from ..ir import Module
from .errors import SimulationError, ThrownException
from .interpreter import BLOCKED, DONE, Frame, Interpreter, OK, RAISED, ThreadState
from .intrinsics import IntrinsicTable
from .values import Heap, ObjRef, Value

MAIN_THREAD = 0


@dataclass
class PostedTask:
    """An event sitting in the main looper's queue."""

    receiver: ObjRef
    method_name: str
    args: List[Value] = field(default_factory=list)
    poster: Optional[Value] = None


@dataclass
class ConnectionState:
    conn: ObjRef
    connected: bool = False
    disconnected: bool = False
    active: bool = True


class AndroidWorld:
    """Framework-side state: queues, registrations, component lifecycles."""

    def __init__(self) -> None:
        self.main_queue: List[PostedTask] = []
        #: listener object -> callbacks it may receive while registered
        self.listeners: Dict[ObjRef, Tuple[str, ...]] = {}
        #: (listener object, callback) -> the object it was registered on;
        #: only a View anchor gates the callback (for enable/disable)
        self.listener_anchor: Dict[Tuple[ObjRef, str], ObjRef] = {}
        #: oids of disabled/hidden views: their listeners do not fire
        self.disabled_anchors: Set[int] = set()
        #: view oid -> owning activity (clicks only arrive while resumed)
        self.view_owner: Dict[int, ObjRef] = {}
        self.connections: List[ConnectionState] = []
        #: activity object -> current lifecycle state name
        self.activity_state: Dict[ObjRef, str] = {}
        self.finished: Set[int] = set()
        self.cancelled_tasks: Set[int] = set()
        #: fire counts per external event key (bounds repeat events)
        self.fire_counts: Dict[str, int] = {}

    # -- queue -----------------------------------------------------------------

    def post(self, receiver: ObjRef, method_name: str,
             args: Optional[List[Value]] = None,
             poster: Optional[Value] = None) -> None:
        self.main_queue.append(
            PostedTask(receiver, method_name, list(args or []), poster)
        )

    def remove_posts(self, predicate: Callable[[PostedTask], bool]) -> None:
        self.main_queue = [t for t in self.main_queue if not predicate(t)]

    # -- registrations -----------------------------------------------------------

    def register(self, obj: ObjRef, callbacks: Sequence[str],
                 anchor: Optional[ObjRef] = None) -> None:
        existing = self.listeners.get(obj, ())
        merged = tuple(dict.fromkeys((*existing, *callbacks)))
        self.listeners[obj] = merged
        if anchor is not None:
            for callback in callbacks:
                self.listener_anchor[(obj, callback)] = anchor

    def unregister(self, obj: ObjRef, callbacks: Sequence[str]) -> None:
        """Stop ``callbacks`` on ``obj``; its other registrations stay."""
        kept = tuple(callback for callback in self.listeners.get(obj, ())
                     if callback not in callbacks)
        if kept:
            self.listeners[obj] = kept
        else:
            self.listeners.pop(obj, None)
        for callback in callbacks:
            self.listener_anchor.pop((obj, callback), None)

    def set_anchor_enabled(self, anchor: ObjRef, enabled: bool) -> None:
        """View.setEnabled/setVisibility semantics: listeners attached to a
        disabled or hidden view stop firing -- the 'one event disables
        another' interactions behind the Missing-HB FP category (8.5)."""
        if enabled:
            self.disabled_anchors.discard(anchor.oid)
        else:
            self.disabled_anchors.add(anchor.oid)

    def anchor_enabled(self, obj: ObjRef, callback: str) -> bool:
        anchor = self.listener_anchor.get((obj, callback))
        if anchor is None:
            return True
        if anchor.oid in self.disabled_anchors:
            return False
        owner = self.view_owner.get(anchor.oid)
        if owner is not None:
            # UI events reach a view only while its activity is resumed
            if self.is_finished(owner):
                return False
            return self.activity_state.get(owner) == "onResume"
        return True

    def bind_connection(self, conn: ObjRef) -> None:
        self.connections.append(ConnectionState(conn))

    def unbind_connection(self, conn: ObjRef) -> None:
        for state in self.connections:
            if state.conn == conn:
                state.active = False

    # -- components ------------------------------------------------------------------

    def finish_activity(self, activity: ObjRef) -> None:
        self.finished.add(activity.oid)

    def is_finished(self, activity: ObjRef) -> bool:
        return activity.oid in self.finished

    def is_cancelled(self, task: ObjRef) -> bool:
        return task.oid in self.cancelled_tasks

    def start_asynctask(self, sim: "Simulator", thread: ThreadState,
                        task: ObjRef) -> None:
        """AsyncTask.execute: onPreExecute synchronously on the caller,
        then doInBackground on a fresh thread (started only after
        onPreExecute returns), then onPostExecute posted to the looper."""
        pre = app_override(sim.module, task.class_name, "onPreExecute")
        gate: Optional[Tuple[int, Frame]] = None
        if pre is not None and pre.cfg.blocks:
            frame = sim.interpreter.make_frame(pre, task, [])
            thread.frames.append(frame)
            gate = (thread.thread_id, frame)
        bg = app_override(sim.module, task.class_name, "doInBackground")
        if bg is not None and bg.cfg.blocks:
            worker = sim.spawn_thread(task, "doInBackground",
                                      name=f"async:{task.class_name}")
            worker.waiting_on_frame = gate
            sim.async_completions[worker.thread_id] = task


class Simulator:
    """One simulated execution of an application module."""

    def __init__(self, module: Module, manifest: Manifest,
                 max_steps: int = 50_000,
                 max_event_repeat: int = 2) -> None:
        if not module.sealed:
            raise SimulationError("simulator requires a sealed module")
        self.module = module
        self.manifest = manifest
        self.max_steps = max_steps
        self.max_event_repeat = max_event_repeat
        self.heap = Heap()
        self.world = AndroidWorld()
        self.exceptions: List[ThrownException] = []
        self.clock = 0
        self.total_steps = 0
        self.trace: List[str] = []
        #: instruction uids to watch; executed ones land in hit_watchpoints
        self.watchpoints: Set[int] = set()
        self.hit_watchpoints: Set[int] = set()
        self.intrinsics = IntrinsicTable()
        self.interpreter = Interpreter(self.module, self.heap, self.intrinsics)
        self.threads: Dict[int, ThreadState] = {
            MAIN_THREAD: ThreadState(MAIN_THREAD, "main", is_looper=True)
        }
        self._next_thread_id = 1
        self.async_completions: Dict[int, ObjRef] = {}
        self.components: Dict[str, ObjRef] = {}
        #: per activity class, the UI and system callbacks it declares
        self.ui_callbacks: Dict[str, List[str]] = {}
        self._boot()

    # -- boot -------------------------------------------------------------------------

    def _run_synchronously(self, receiver: Optional[ObjRef], class_name: str,
                           method_name: str, args: List[Value]) -> None:
        """Run a method to completion on the main thread (boot only)."""
        method = self.module.resolve_method(class_name, method_name)
        if method is None or not method.cfg.blocks:
            return
        main = self.threads[MAIN_THREAD]
        base_depth = len(main.frames)
        main.frames.append(self.interpreter.make_frame(method, receiver, args))
        guard = 0
        while len(main.frames) > base_depth and main.exception is None:
            self.interpreter.step(main, self)
            guard += 1
            if guard > self.max_steps:
                raise SimulationError(f"boot of {class_name}.{method_name} diverged")
        main.exception = None  # boot exceptions are not app behavior

    def _boot(self) -> None:
        for cls in self.module.classes.values():
            if "<clinit>" in cls.methods and not is_framework_class(cls.name):
                self._run_synchronously(None, cls.name, "<clinit>", [])
        for decl in self.manifest.components.values():
            if not decl.reachable:
                continue
            cls = self.module.lookup_class(decl.name)
            if cls is None or cls.is_interface:
                continue
            obj = self.heap.alloc(decl.name)
            self.components[decl.name] = obj
            # environment injection, as in the threadifier's dummy main
            for ref, concrete in provided_fields(self.module, decl.name):
                seeded = self.heap.alloc(concrete)
                if self.module.is_subtype(concrete, "View"):
                    self.world.view_owner[seeded.oid] = obj
                self.heap.put_field(obj, ref, seeded)
            ctor = self.module.lookup_method(decl.name, "<init>")
            if ctor is not None and ctor.arity == 0:
                self._run_synchronously(obj, decl.name, "<init>", [])
            if decl.kind == "activity":
                self.world.activity_state[obj] = "<launch>"
                self.ui_callbacks[decl.name] = declared_callbacks(
                    self.module, decl.name, UI_CALLBACKS | SYSTEM_CALLBACKS)
            elif decl.kind in ("receiver", "service", "application"):
                # components whose callbacks are externally deliverable
                callbacks = ("onReceive",) if decl.kind == "receiver" else ()
                if callbacks:
                    self.world.register(obj, callbacks)

    # -- threads -------------------------------------------------------------------------

    def spawn_thread(self, receiver: ObjRef, method_name: str,
                     name: str) -> ThreadState:
        method = self.module.resolve_method(receiver.class_name, method_name)
        if method is None:
            raise SimulationError(
                f"cannot spawn thread on {receiver.class_name}.{method_name}"
            )
        thread = ThreadState(self._next_thread_id, name)
        self._next_thread_id += 1
        thread.frames.append(self.interpreter.make_frame(method, receiver, []))
        self.threads[thread.thread_id] = thread
        return thread

    def _thread_runnable(self, thread: ThreadState) -> bool:
        if thread.exception is not None or thread.idle:
            return False
        if thread.waiting_on_frame is not None:
            tid, frame = thread.waiting_on_frame
            owner = self.threads.get(tid)
            if owner is not None and frame in owner.frames:
                return False
            thread.waiting_on_frame = None
        if thread.blocked_on_monitor is not None:
            owner = self.heap.monitors.get(thread.blocked_on_monitor)
            if owner is not None and owner[0] != thread.thread_id:
                return False
        return True

    # -- external events --------------------------------------------------------------------

    def _activity_events(self, obj: ObjRef, state: str) -> List[Tuple[str, str]]:
        """(event key, callback) pairs currently deliverable to an activity."""
        events: List[Tuple[str, str]] = []
        finished = self.world.is_finished(obj)
        for succ in ACTIVITY_TRANSITIONS.get(state, ()):
            if finished and succ in ("onResume", "onRestart"):
                continue  # finish(): fast-forward to destruction only
            # the transition happens even without an override
            events.append((f"{obj.class_name}#{succ}", succ))
        if state in ACTIVE_STATES and not finished:
            for callback in self.ui_callbacks[obj.class_name]:
                events.append((f"{obj.class_name}#{callback}", callback))
        return events

    def external_events(self) -> List[Tuple[str, ObjRef, str]]:
        """All deliverable (key, receiver, callback) external events."""
        events: List[Tuple[str, ObjRef, str]] = []

        def allowed(key: str) -> bool:
            return self.world.fire_counts.get(key, 0) < self.max_event_repeat

        for obj, state in self.world.activity_state.items():
            for key, callback in self._activity_events(obj, state):
                if allowed(key):
                    events.append((key, obj, callback))
        for obj, callbacks in self.world.listeners.items():
            for callback in callbacks:
                if not self.world.anchor_enabled(obj, callback) or \
                        not app_override(self.module, obj.class_name, callback):
                    continue
                key = f"{obj.class_name}@{obj.oid}#{callback}"
                if allowed(key):
                    events.append((key, obj, callback))
        for conn_state in self.world.connections:
            if not conn_state.active:
                continue
            if not conn_state.connected:
                key = f"conn@{conn_state.conn.oid}#onServiceConnected"
                if allowed(key):
                    events.append((key, conn_state.conn, "onServiceConnected"))
            elif not conn_state.disconnected:
                key = f"conn@{conn_state.conn.oid}#onServiceDisconnected"
                if allowed(key):
                    events.append((key, conn_state.conn, "onServiceDisconnected"))
        return events

    # -- choices -------------------------------------------------------------------------------

    def choices(self) -> List[Tuple]:
        result: List[Tuple] = []
        main = self.threads[MAIN_THREAD]
        for thread in self.threads.values():
            if self._thread_runnable(thread):
                result.append(("step", thread.thread_id))
        if main.idle and main.exception is None:
            if self.world.main_queue:
                result.append(("dispatch",))
            for key, _obj, _callback in self.external_events():
                result.append(("event", key))
        return result

    def apply(self, choice: Tuple) -> None:
        self.total_steps += 1
        if self.total_steps > self.max_steps:
            raise SimulationError("schedule exceeded step budget")
        kind = choice[0]
        if kind == "step":
            thread = self.threads[choice[1]]
            if self.watchpoints and thread.frames:
                current = thread.top().current_instruction()
                if current is not None and current.uid in self.watchpoints:
                    self.hit_watchpoints.add(current.uid)
            status = self.interpreter.step(thread, self)
            if status == DONE and choice[1] in self.async_completions:
                task = self.async_completions.pop(choice[1])
                if self.world.is_cancelled(task):
                    if app_override(self.module, task.class_name,
                                    "onCancelled"):
                        self.world.post(task, "onCancelled", poster=task)
                elif app_override(self.module, task.class_name,
                                  "onPostExecute"):
                    self.world.post(task, "onPostExecute", poster=task)
        elif kind == "dispatch":
            task = self.world.main_queue.pop(0)
            self._dispatch(task.receiver, task.method_name, task.args)
            self.trace.append(f"dispatch {task.receiver.class_name}."
                              f"{task.method_name}")
        elif kind == "event":
            key = choice[1]
            for event_key, obj, callback in self.external_events():
                if event_key == key:
                    self.world.fire_counts[key] = (
                        self.world.fire_counts.get(key, 0) + 1
                    )
                    self._fire_external(obj, callback)
                    self.trace.append(f"event {key}")
                    return
            raise SimulationError(f"event {key} is not currently enabled")
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown choice {choice!r}")

    def _fire_external(self, obj: ObjRef, callback: str) -> None:
        if obj in self.world.activity_state:
            current = self.world.activity_state[obj]
            if callback in ACTIVITY_TRANSITIONS.get(current, ()):
                self.world.activity_state[obj] = callback
        for state in self.world.connections:
            if state.conn == obj:
                if callback == "onServiceConnected":
                    state.connected = True
                elif callback == "onServiceDisconnected":
                    state.disconnected = True
                    state.active = False
        self._dispatch(obj, callback, [])

    def _dispatch(self, receiver: ObjRef, method_name: str,
                  args: List[Value]) -> None:
        method = app_override(self.module, receiver.class_name, method_name)
        main = self.threads[MAIN_THREAD]
        if method is None or not method.cfg.blocks:
            return
        main.exception = None
        main.frames.append(self.interpreter.make_frame(method, receiver, args))

    def fork(self) -> "Simulator":
        """An independent copy of this execution.  The mutable state (heap,
        threads, queues, trace) is copied; the sealed module, the methods
        of the live frames and the intrinsic table are shared, since
        nothing writes to them."""
        shared = [self.module, self.manifest, self.intrinsics,
                  *(frame.method for thread in self.threads.values()
                    for frame in thread.frames)]
        return copy.deepcopy(self, {id(obj): obj for obj in shared})

    # -- convenience runners ---------------------------------------------------------------------

    @property
    def npe_events(self) -> List[ThrownException]:
        return [e for e in self.exceptions if e.is_npe]

    def run(self, scheduler, max_decisions: int = 5000) -> "Simulator":
        """Drive the simulation with a scheduler until quiescence."""
        for _ in range(max_decisions):
            options = self.choices()
            if not options:
                break
            choice = scheduler.choose(self, options)
            if choice is None:
                break
            self.apply(choice)
        return self


class FifoScheduler:
    """Deterministic: keep stepping the lowest-id runnable thread, then
    dispatch posted events, then fire external events in listing order."""

    def choose(self, sim: Simulator, options: List[Tuple]) -> Optional[Tuple]:
        steps = [c for c in options if c[0] == "step"]
        if steps:
            return min(steps, key=lambda c: c[1])
        for kind in ("dispatch", "event"):
            for choice in options:
                if choice[0] == kind:
                    return choice
        return options[0] if options else None


class RandomScheduler:
    """Seeded random walk over the schedule space."""

    def __init__(self, seed: int) -> None:
        import random

        self._rng = random.Random(seed)

    def choose(self, sim: Simulator, options: List[Tuple]) -> Optional[Tuple]:
        if not options:
            return None
        return self._rng.choice(options)


class ScriptedScheduler:
    """Replay an explicit decision list; fall back to FIFO when exhausted.

    Each script entry is matched against the available options: an exact
    choice tuple, or a string matched against event keys / ``"dispatch"``.
    """

    def __init__(self, script: Sequence) -> None:
        self.script = list(script)
        self._fallback = FifoScheduler()

    def choose(self, sim: Simulator, options: List[Tuple]) -> Optional[Tuple]:
        if self.script:
            want = self.script[0]
            for choice in options:
                if choice == want or (
                    isinstance(want, str)
                    and (choice[0] == want
                         or (choice[0] == "event" and want in choice[1]))
                ):
                    self.script.pop(0)
                    return choice
            # the scripted choice is not enabled yet: make progress first
            steps = [c for c in options if c[0] == "step"]
            if steps:
                return min(steps, key=lambda c: c[1])
            self.script.pop(0)  # cannot satisfy: drop it
            return None if not options else options[0]
        return self._fallback.choose(sim, options)
