"""Instruction-level interpreter for the MiniDroid IR.

The interpreter executes one instruction per :meth:`step` call so the
scheduler can interleave threads at instruction granularity -- the
precision needed to reproduce cross-thread UAF windows like Figure 1(c)
(a background free racing a check/use sequence).

Framework methods execute as *intrinsics* (see
:mod:`repro.runtime.intrinsics`); application methods execute their IR
bodies.  Exceptions (NullPointerException from null dereferences, plus
explicit ``throw``) terminate the raising thread and are recorded on the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir import (
    Assign,
    BinaryOp,
    Const,
    GetField,
    GetStatic,
    Goto,
    If,
    Instruction,
    Invoke,
    Local,
    Method,
    MonitorEnter,
    MonitorExit,
    New,
    Operand,
    PutField,
    PutStatic,
    Return,
    Throw,
    UnaryOp,
)
from .errors import SimulationError, ThrownException
from .values import default_value, Heap, ObjRef, Value

OK = "ok"
BLOCKED = "blocked"
DONE = "done"
RAISED = "exception"


@dataclass
class Frame:
    """One activation record."""

    method: Method
    locals: Dict[str, Value]
    block_label: str
    index: int = 0
    #: caller local that receives this frame's return value
    result_target: Optional[str] = None

    def current_instruction(self) -> Optional[Instruction]:
        block = self.method.cfg.blocks.get(self.block_label)
        if block is None or self.index >= len(block.instructions):
            return None
        return block.instructions[self.index]


@dataclass
class ThreadState:
    """One simulated thread: a frame stack plus scheduling status."""

    thread_id: int
    name: str
    is_looper: bool = False
    frames: List[Frame] = field(default_factory=list)
    blocked_on_monitor: Optional[int] = None
    #: (thread id, frame) that must pop before this thread may start
    waiting_on_frame: Optional[tuple] = None
    exception: Optional[ThrownException] = None
    steps: int = 0

    @property
    def done(self) -> bool:
        return not self.frames and self.exception is None

    @property
    def idle(self) -> bool:
        return not self.frames

    def top(self) -> Frame:
        return self.frames[-1]


class Interpreter:
    """Shared execution engine; one per simulator."""

    def __init__(self, module, heap: Heap, intrinsics) -> None:
        self.module = module
        self.heap = heap
        self.intrinsics = intrinsics  #: IntrinsicTable
        self._string_counter = 0

    # -- frame helpers ----------------------------------------------------------

    def make_frame(self, method: Method, receiver: Optional[Value],
                   args: List[Value], result_target: Optional[str] = None) -> Frame:
        locals_: Dict[str, Value] = {}
        if not method.is_static:
            locals_["this"] = receiver
        for param, arg in zip(method.params, args):
            locals_[param.name] = arg
        # Missing arguments (framework-invoked callbacks) default per type.
        for param in method.params[len(args):]:
            locals_[param.name] = default_value(param.type)
        return Frame(
            method=method,
            locals=locals_,
            block_label=method.cfg.entry_label,
            result_target=result_target,
        )

    def _value(self, frame: Frame, operand: Operand) -> Value:
        if isinstance(operand, Const):
            return operand.value
        return frame.locals.get(operand.name)

    def _raise(self, sim, thread: ThreadState, name: str, instr: Instruction,
               detail: str = "") -> str:
        exc = ThrownException(
            name=name,
            uid=instr.uid,
            method_qname=thread.top().method.qualified_name,
            thread_id=thread.thread_id,
            detail=detail,
        )
        thread.frames.clear()
        sim.exceptions.append(exc)
        # The exception is recorded on the simulator; the looper keeps
        # dispatching so one crash does not mask other warnings' windows
        # (the validator instruments one warning at a time, like the
        # paper's manual perturbation).
        thread.exception = None
        return RAISED

    # -- one step ---------------------------------------------------------------------

    def step(self, thread: ThreadState, sim) -> str:
        """Execute one instruction of the thread's top frame."""
        if not thread.frames:
            return DONE
        frame = thread.top()
        instr = frame.current_instruction()
        if instr is None:
            # fell off a block without terminator: treat as return (the
            # builder normally prevents this)
            return self._do_return(thread, None)

        thread.steps += 1
        if isinstance(instr, Assign):
            frame.locals[instr.target] = self._value(frame, instr.source)
        elif isinstance(instr, New):
            frame.locals[instr.target] = self.heap.alloc(instr.class_name)
        elif isinstance(instr, BinaryOp):
            try:
                frame.locals[instr.target] = self._binary(
                    instr.op,
                    self._value(frame, instr.lhs),
                    self._value(frame, instr.rhs),
                )
            except ZeroDivisionError:
                return self._raise(sim, thread, "ArithmeticException", instr)
        elif isinstance(instr, UnaryOp):
            operand = self._value(frame, instr.operand)
            frame.locals[instr.target] = (
                (not operand) if instr.op == "!" else -(operand or 0)
            )
        elif isinstance(instr, GetField):
            base = self._value(frame, instr.base)
            if not isinstance(base, ObjRef):
                return self._raise(
                    sim, thread, "NullPointerException", instr,
                    f"read of {instr.fieldref} on null",
                )
            ref = self.module.resolve_field(
                base.class_name, instr.fieldref.field_name
            ) or instr.fieldref
            frame.locals[instr.target] = self.heap.get_field(base, ref)
        elif isinstance(instr, PutField):
            base = self._value(frame, instr.base)
            if not isinstance(base, ObjRef):
                return self._raise(
                    sim, thread, "NullPointerException", instr,
                    f"write of {instr.fieldref} on null",
                )
            ref = self.module.resolve_field(
                base.class_name, instr.fieldref.field_name
            ) or instr.fieldref
            self.heap.put_field(base, ref, self._value(frame, instr.value))
        elif isinstance(instr, GetStatic):
            ref = self.module.resolve_field(
                instr.fieldref.class_name, instr.fieldref.field_name
            ) or instr.fieldref
            frame.locals[instr.target] = self.heap.get_static(ref)
        elif isinstance(instr, PutStatic):
            ref = self.module.resolve_field(
                instr.fieldref.class_name, instr.fieldref.field_name
            ) or instr.fieldref
            self.heap.put_static(ref, self._value(frame, instr.value))
        elif isinstance(instr, MonitorEnter):
            lock = self._value(frame, instr.lock)
            if not isinstance(lock, ObjRef):
                return self._raise(sim, thread, "NullPointerException", instr,
                                   "monitorenter on null")
            owner = self.heap.monitors.get(lock.oid)
            if owner is not None and owner[0] != thread.thread_id:
                thread.blocked_on_monitor = lock.oid
                thread.steps -= 1
                return BLOCKED
            count = owner[1] + 1 if owner else 1
            self.heap.monitors[lock.oid] = (thread.thread_id, count)
            thread.blocked_on_monitor = None
        elif isinstance(instr, MonitorExit):
            lock = self._value(frame, instr.lock)
            if isinstance(lock, ObjRef):
                owner = self.heap.monitors.get(lock.oid)
                if owner and owner[0] == thread.thread_id:
                    if owner[1] <= 1:
                        del self.heap.monitors[lock.oid]
                    else:
                        self.heap.monitors[lock.oid] = (owner[0], owner[1] - 1)
        elif isinstance(instr, Invoke):
            return self._do_invoke(thread, frame, instr, sim)
        elif isinstance(instr, Goto):
            frame.block_label = instr.label
            frame.index = 0
            return OK
        elif isinstance(instr, If):
            cond = self._value(frame, instr.cond)
            frame.block_label = instr.then_label if cond else instr.else_label
            frame.index = 0
            return OK
        elif isinstance(instr, Return):
            return self._do_return(thread, self._value(frame, instr.value)
                                   if instr.value is not None else None)
        elif isinstance(instr, Throw):
            return self._raise(sim, thread, instr.exception, instr,
                               "explicit throw")
        else:  # pragma: no cover - exhaustive
            raise SimulationError(f"cannot interpret {instr!r}")

        frame.index += 1
        return OK

    # -- helpers -------------------------------------------------------------------------

    @staticmethod
    def _binary(op: str, lhs: Value, rhs: Value) -> Value:
        if op == "+":
            if isinstance(lhs, str) or isinstance(rhs, str):
                fmt = lambda v: "null" if v is None else (
                    ("true" if v else "false") if isinstance(v, bool) else str(v))
                return fmt(lhs) + fmt(rhs)
            return (lhs or 0) + (rhs or 0)
        if op == "-":
            return (lhs or 0) - (rhs or 0)
        if op == "*":
            return (lhs or 0) * (rhs or 0)
        if op == "/":
            return (lhs or 0) // (rhs or 1 if rhs is None else rhs)
        if op == "%":
            return (lhs or 0) % (rhs or 1 if rhs is None else rhs)
        if op == "==":
            return lhs == rhs
        if op == "!=":
            return lhs != rhs
        if op == "<":
            return (lhs or 0) < (rhs or 0)
        if op == "<=":
            return (lhs or 0) <= (rhs or 0)
        if op == ">":
            return (lhs or 0) > (rhs or 0)
        if op == ">=":
            return (lhs or 0) >= (rhs or 0)
        raise SimulationError(f"unknown binary op {op}")

    def _do_return(self, thread: ThreadState, value: Value) -> str:
        frame = thread.frames.pop()
        if thread.frames and frame.result_target is not None:
            thread.top().locals[frame.result_target] = value
        if thread.frames:
            thread.top().index += 1  # resume after the call
            return OK
        return DONE

    def _do_invoke(self, thread: ThreadState, frame: Frame, instr: Invoke,
                   sim) -> str:
        args = [self._value(frame, a) for a in instr.args]
        receiver: Optional[Value] = None
        if instr.kind != "static":
            assert instr.base is not None
            receiver = self._value(frame, instr.base)
            if not isinstance(receiver, ObjRef):
                return self._raise(
                    sim, thread, "NullPointerException", instr,
                    f"call {instr.methodref.method_name} on null",
                )

        ref = instr.methodref
        if instr.kind == "static":
            resolved = self.module.resolve_method(ref.class_name, ref.method_name)
        elif instr.kind == "special":
            resolved = self.module.resolve_method(ref.class_name, ref.method_name)
        else:
            assert isinstance(receiver, ObjRef)
            resolved = self.module.resolve_method(
                receiver.class_name, ref.method_name
            ) or self.module.resolve_method(ref.class_name, ref.method_name)

        # Intrinsics take precedence for framework-declared behavior.
        handler = self.intrinsics.lookup(
            receiver.class_name if isinstance(receiver, ObjRef)
            else ref.class_name,
            ref.method_name,
            self.module,
        )
        if handler is not None and (
            resolved is None or self.intrinsics.overrides(resolved)
        ):
            result = handler(sim, thread, receiver, args, instr)
            if thread.exception is not None:
                return RAISED
            if instr.target is not None:
                frame.locals[instr.target] = result
            # the intrinsic may have pushed frames (synchronous callback);
            # if so, do not advance past the call yet -- the pushed frame's
            # return advances us.
            if thread.frames and thread.top() is frame:
                frame.index += 1
            return OK

        if resolved is None or not resolved.cfg.blocks:
            # Unknown or abstract method: return a default.
            if instr.target is not None and resolved is not None:
                frame.locals[instr.target] = default_value(resolved.return_type)
            elif instr.target is not None:
                frame.locals[instr.target] = None
            frame.index += 1
            return OK

        new_frame = self.make_frame(resolved, receiver, args, instr.target)
        thread.frames.append(new_frame)
        return OK
