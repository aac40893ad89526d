"""Imperative construction helper for IR methods.

The lowering pass and the threadifier both need to emit IR; the builder
keeps track of the current block, generates fresh temporaries and labels,
and guarantees that every emitted block ends in a terminator.
"""

from __future__ import annotations

from typing import List, Optional

from .cfg import BasicBlock
from .instructions import (
    Assign,
    BinaryOp,
    FieldRef,
    GetField,
    GetStatic,
    Goto,
    If,
    Instruction,
    Invoke,
    Local,
    MethodRef,
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
from .module import Method


class IRBuilder:
    """Emit instructions into a :class:`Method`, one block at a time."""

    def __init__(self, method: Method) -> None:
        self.method = method
        self._temp_counter = 0
        self._label_counter = 0
        self._current: Optional[BasicBlock] = None
        self.position_at_new_block(method.cfg.entry_label)

    # -- block management ----------------------------------------------------

    def fresh_label(self, hint: str = "bb") -> str:
        self._label_counter += 1
        return f"{hint}{self._label_counter}"

    def fresh_temp(self, hint: str = "t") -> str:
        self._temp_counter += 1
        return f"${hint}{self._temp_counter}"

    def position_at_new_block(self, label: Optional[str] = None) -> BasicBlock:
        block = self.method.cfg.new_block(label or self.fresh_label())
        self._current = block
        return block

    @property
    def current_block(self) -> BasicBlock:
        assert self._current is not None
        return self._current

    @property
    def terminated(self) -> bool:
        return self.current_block.terminator is not None

    def emit(self, instr: Instruction, line: int = 0) -> Instruction:
        if self.terminated:
            # Unreachable code after return/goto: park it in a fresh block so
            # the CFG stays well-formed (the verifier flags it as unreachable).
            self.position_at_new_block(self.fresh_label("dead"))
        if line:
            instr.line = line
        self.current_block.instructions.append(instr)
        return instr

    # -- instruction helpers ---------------------------------------------------

    def assign(self, target: str, source: Operand, line: int = 0) -> Instruction:
        return self.emit(Assign(target, source), line)

    def binary(self, op: str, lhs: Operand, rhs: Operand, line: int = 0) -> Local:
        temp = self.fresh_temp()
        self.emit(BinaryOp(temp, op, lhs, rhs), line)
        return Local(temp)

    def unary(self, op: str, operand: Operand, line: int = 0) -> Local:
        temp = self.fresh_temp()
        self.emit(UnaryOp(temp, op, operand), line)
        return Local(temp)

    def new(self, class_name: str, target: Optional[str] = None, line: int = 0) -> Local:
        target = target or self.fresh_temp("obj")
        self.emit(New(target, class_name), line)
        return Local(target)

    def get_field(
        self, base: Local, fieldref: FieldRef, target: Optional[str] = None, line: int = 0
    ) -> Local:
        target = target or self.fresh_temp()
        self.emit(GetField(target, base, fieldref), line)
        return Local(target)

    def put_field(self, base: Local, fieldref: FieldRef, value: Operand, line: int = 0) -> None:
        self.emit(PutField(base, fieldref, value), line)

    def get_static(self, fieldref: FieldRef, target: Optional[str] = None, line: int = 0) -> Local:
        target = target or self.fresh_temp()
        self.emit(GetStatic(target, fieldref), line)
        return Local(target)

    def put_static(self, fieldref: FieldRef, value: Operand, line: int = 0) -> None:
        self.emit(PutStatic(fieldref, value), line)

    def invoke(
        self,
        kind: str,
        base: Optional[Local],
        methodref: MethodRef,
        args: Optional[List[Operand]] = None,
        target: Optional[str] = None,
        line: int = 0,
    ) -> Optional[Local]:
        self.emit(Invoke(target, kind, base, methodref, list(args or [])), line)
        return Local(target) if target else None

    def monitor_enter(self, lock: Local, line: int = 0) -> None:
        self.emit(MonitorEnter(lock), line)

    def monitor_exit(self, lock: Local, line: int = 0) -> None:
        self.emit(MonitorExit(lock), line)

    # -- terminators -------------------------------------------------------------

    def goto(self, label: str, line: int = 0) -> None:
        if not self.terminated:
            self.emit(Goto(label), line)

    def branch(self, cond: Operand, then_label: str, else_label: str, line: int = 0) -> None:
        if not self.terminated:
            self.emit(If(cond, then_label, else_label), line)

    def ret(self, value: Optional[Operand] = None, line: int = 0) -> None:
        if not self.terminated:
            self.emit(Return(value), line)

    def throw(self, exception: str, value: Optional[Operand] = None, line: int = 0) -> None:
        if not self.terminated:
            self.emit(Throw(exception, value), line)

    def finish(self) -> Method:
        """Terminate any fall-through block with a bare return."""
        for block in self.method.cfg.block_order():
            if block.terminator is None:
                block.instructions.append(Return(None))
        return self.method
