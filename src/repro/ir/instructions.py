"""Instruction set of the MiniDroid IR.

The IR is three-address code over named locals.  Instructions live inside
basic blocks (see :mod:`repro.ir.cfg`); the last instruction of every block
is a terminator (:class:`Goto`, :class:`If`, :class:`Return` or
:class:`Throw`).

Race detection cares about a small vocabulary (paper section 5):

* ``GetField``  -- a *use* of a field,
* ``PutField``  with a null operand -- a *free* of a field,
* ``Invoke``    -- call edges, callback registrations, event posts,
* ``New``       -- allocation sites for the k-object-sensitive analysis,
* ``MonitorEnter``/``MonitorExit`` -- lock regions for the lockset analysis.

Every instruction carries a ``uid`` assigned when its method is sealed into
a module; the uid is globally unique and stable, so analyses and reports can
refer to program points by value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple, Union

from .types import Type


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Local:
    """A reference to a method-local variable (including ``this``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A literal operand.  ``value is None`` encodes the ``null`` literal."""

    value: Union[int, bool, str, None]

    def is_null(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        if self.value is None:
            return "null"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)


Operand = Union[Local, Const]


class FieldRef(NamedTuple):
    """A symbolic reference to ``class_name.field_name``.

    The race analysis resolves field references against the class hierarchy
    so that a field inherited from a superclass has one identity.  A
    ``NamedTuple``, so points-to hashes it in C; no container mixes
    ``FieldRef``s with plain ``(class, field)`` tuples, which compare equal.
    """

    class_name: str
    field_name: str

    def __str__(self) -> str:
        return f"{self.class_name}.{self.field_name}"


@dataclass(frozen=True)
class MethodRef:
    """A symbolic reference to a method signature on a class."""

    class_name: str
    method_name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.class_name}.{self.method_name}/{self.arity}"


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass
class Instruction:
    """Base class: every instruction knows its source line and its uid."""

    line: int = field(default=0, kw_only=True)
    uid: int = field(default=-1, kw_only=True)

    def operands(self) -> Tuple[Operand, ...]:
        """Operands read by this instruction (for liveness/dataflow)."""
        return ()

    def target_local(self) -> Optional[str]:
        """Name of the local written by this instruction, if any."""
        return None

    def is_terminator(self) -> bool:
        return False


@dataclass
class Assign(Instruction):
    """``target = source`` (copy or constant load)."""

    target: str
    source: Operand

    def operands(self) -> Tuple[Operand, ...]:
        return (self.source,)

    def target_local(self) -> Optional[str]:
        return self.target

    def __str__(self) -> str:
        return f"{self.target} = {self.source}"


@dataclass
class BinaryOp(Instruction):
    """``target = lhs <op> rhs`` with op in {+,-,*,/,%,==,!=,<,<=,>,>=,&&,||}."""

    target: str
    op: str
    lhs: Operand
    rhs: Operand

    def operands(self) -> Tuple[Operand, ...]:
        return (self.lhs, self.rhs)

    def target_local(self) -> Optional[str]:
        return self.target

    def __str__(self) -> str:
        return f"{self.target} = {self.lhs} {self.op} {self.rhs}"


@dataclass
class UnaryOp(Instruction):
    """``target = <op> operand`` with op in {!, -}."""

    target: str
    op: str
    operand: Operand

    def operands(self) -> Tuple[Operand, ...]:
        return (self.operand,)

    def target_local(self) -> Optional[str]:
        return self.target

    def __str__(self) -> str:
        return f"{self.target} = {self.op}{self.operand}"


@dataclass
class New(Instruction):
    """``target = new ClassName()`` -- an allocation site.

    ``site`` is filled in when the module is sealed; it names the allocation
    site for the points-to analysis (``Class.method#n``).
    """

    target: str
    class_name: str
    site: str = ""

    def target_local(self) -> Optional[str]:
        return self.target

    def __str__(self) -> str:
        return f"{self.target} = new {self.class_name}  [{self.site}]"


@dataclass
class GetField(Instruction):
    """``target = base.field`` -- a *use* in the UAF vocabulary."""

    target: str
    base: Local
    fieldref: FieldRef

    def operands(self) -> Tuple[Operand, ...]:
        return (self.base,)

    def target_local(self) -> Optional[str]:
        return self.target

    def __str__(self) -> str:
        return f"{self.target} = {self.base}.{self.fieldref.field_name}"


@dataclass
class PutField(Instruction):
    """``base.field = value`` -- a *free* when ``value`` is the null const."""

    base: Local
    fieldref: FieldRef
    value: Operand

    def is_free(self) -> bool:
        return isinstance(self.value, Const) and self.value.is_null()

    def operands(self) -> Tuple[Operand, ...]:
        return (self.base, self.value)

    def __str__(self) -> str:
        return f"{self.base}.{self.fieldref.field_name} = {self.value}"


@dataclass
class GetStatic(Instruction):
    """``target = ClassName.field`` (static field use)."""

    target: str
    fieldref: FieldRef

    def target_local(self) -> Optional[str]:
        return self.target

    def __str__(self) -> str:
        return f"{self.target} = {self.fieldref}"


@dataclass
class PutStatic(Instruction):
    """``ClassName.field = value`` (a *free* when value is null)."""

    fieldref: FieldRef
    value: Operand

    def is_free(self) -> bool:
        return isinstance(self.value, Const) and self.value.is_null()

    def operands(self) -> Tuple[Operand, ...]:
        return (self.value,)

    def __str__(self) -> str:
        return f"{self.fieldref} = {self.value}"


@dataclass
class Invoke(Instruction):
    """A method call.

    ``kind`` is ``"virtual"`` (dispatched through the receiver's dynamic
    type), ``"special"`` (constructors and explicit ``super`` calls) or
    ``"static"``.  ``base`` is None for static calls.
    """

    target: Optional[str]
    kind: str
    base: Optional[Local]
    methodref: MethodRef
    args: List[Operand]

    def operands(self) -> Tuple[Operand, ...]:
        ops: List[Operand] = []
        if self.base is not None:
            ops.append(self.base)
        ops.extend(self.args)
        return tuple(ops)

    def target_local(self) -> Optional[str]:
        return self.target

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        recv = f"{self.base}." if self.base is not None else ""
        lhs = f"{self.target} = " if self.target else ""
        return f"{lhs}{recv}{self.methodref.method_name}({args}) [{self.kind}]"


@dataclass
class MonitorEnter(Instruction):
    """Entry of a ``synchronized (lock) { ... }`` region."""

    lock: Local

    def operands(self) -> Tuple[Operand, ...]:
        return (self.lock,)

    def __str__(self) -> str:
        return f"monitorenter {self.lock}"


@dataclass
class MonitorExit(Instruction):
    """Exit of a ``synchronized`` region."""

    lock: Local

    def operands(self) -> Tuple[Operand, ...]:
        return (self.lock,)

    def __str__(self) -> str:
        return f"monitorexit {self.lock}"


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


@dataclass
class Goto(Instruction):
    """Unconditional jump to a block label."""

    label: str

    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"goto {self.label}"


@dataclass
class If(Instruction):
    """Conditional branch on a boolean operand."""

    cond: Operand
    then_label: str
    else_label: str

    def operands(self) -> Tuple[Operand, ...]:
        return (self.cond,)

    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"if {self.cond} then {self.then_label} else {self.else_label}"


@dataclass
class Return(Instruction):
    """Return from the method, optionally with a value."""

    value: Optional[Operand] = None

    def operands(self) -> Tuple[Operand, ...]:
        return (self.value,) if self.value is not None else ()

    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"return {self.value}" if self.value is not None else "return"


@dataclass
class Throw(Instruction):
    """Throw an exception named by ``exception`` (no catch in the dialect)."""

    exception: str
    value: Optional[Operand] = None

    def operands(self) -> Tuple[Operand, ...]:
        return (self.value,) if self.value is not None else ()

    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"throw {self.exception}"


TERMINATORS = (Goto, If, Return, Throw)
