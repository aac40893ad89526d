"""Intra-procedural support analyses for the IG/IA/MA/UR filters.

* :class:`GuardAnalysis` -- edge-sensitive must-analysis computing, for
  every program point, the set of (base local, field) pairs that are
  null-check-guarded (the ``if (f != null)`` pattern of Figure 4(b)).
* :class:`AllocAnalysis` -- must-analysis computing fields assigned a
  freshly-allocated (``new``, for IA) or getter-returned (for MA) value
  before the program point, per Figure 4(a)/(c).
* :func:`use_is_benign` -- the Used-for-Return check of Figure 4(g): a
  use whose value flows only into returns, call arguments or
  null-comparisons cannot be dereferenced.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..analysis.dataflow import run_forward
from ..ir import (
    Assign,
    BinaryOp,
    Const,
    GetField,
    GetStatic,
    If,
    Instruction,
    Invoke,
    Local,
    Method,
    Module,
    New,
    PutField,
    PutStatic,
    Return,
)

FieldKey = Tuple[str, str]            # (declaring class, field name)
GuardFact = Tuple[str, str, str]      # (base local, class, field)
GuardState = FrozenSet[GuardFact]


def _field_key(module: Module, fieldref) -> FieldKey:
    resolved = module.resolve_field(fieldref.class_name, fieldref.field_name)
    ref = resolved if resolved is not None else fieldref
    return (ref.class_name, ref.field_name)


class _SymbolicValues:
    """Flow-insensitive symbolic interpretation of a method's temporaries.

    Assigns every local a *canonical access path* (``this``,
    ``this.A$1:$outer``, ...) so that two temporaries loading the same
    field chain compare equal -- the lowering emits a fresh ``$outer``
    temporary per access, and guard/allocation facts must see through
    that.  Locals with conflicting definitions get no path.

    On top of paths, maps locals to ``("field", base_path, cls, name)``
    when they hold a field value and ``("check", base_path, cls, name,
    polarity)`` when they hold a null comparison of such a value.
    """

    _TOP = "<top>"

    def __init__(self, module: Module, method: Method) -> None:
        self.values: Dict[str, Tuple] = {}
        self.paths: Dict[str, str] = {name: name for name in method.param_names()}

        def set_path(local: str, path: Optional[str]) -> bool:
            if path is None:
                path = self._TOP
            current = self.paths.get(local)
            if current is None:
                self.paths[local] = path
                return True
            if current != path and current != self._TOP:
                self.paths[local] = self._TOP
                return True
            return False

        changed = True
        passes = 0
        while changed and passes < 8:
            changed = False
            passes += 1
            for instr in method.instructions():
                target = instr.target_local()
                if target is None:
                    continue
                new_value: Optional[Tuple] = None
                if isinstance(instr, GetField):
                    cls, name = _field_key(module, instr.fieldref)
                    base_path = self.path_of(instr.base.name)
                    if base_path is not None:
                        new_value = ("field", base_path, cls, name)
                        changed |= set_path(target, f"{base_path}.{cls}:{name}")
                    else:
                        changed |= set_path(target, None)
                elif isinstance(instr, GetStatic):
                    cls, name = _field_key(module, instr.fieldref)
                    new_value = ("field", "$static", cls, name)
                    changed |= set_path(target, f"$static.{cls}:{name}")
                elif isinstance(instr, Assign) and isinstance(instr.source, Local):
                    new_value = self.values.get(instr.source.name)
                    changed |= set_path(target, self.paths.get(instr.source.name))
                elif isinstance(instr, BinaryOp) and instr.op in ("==", "!="):
                    operand = None
                    if isinstance(instr.rhs, Const) and instr.rhs.is_null():
                        operand = instr.lhs
                    elif isinstance(instr.lhs, Const) and instr.lhs.is_null():
                        operand = instr.rhs
                    if isinstance(operand, Local):
                        value = self.values.get(operand.name)
                        if value is not None and value[0] == "field":
                            _tag, base, cls, name = value
                            new_value = ("check", base, cls, name, instr.op)
                    changed |= set_path(target, None)
                else:
                    changed |= set_path(target, None)
                if new_value is not None and self.values.get(target) != new_value:
                    self.values[target] = new_value
                    changed = True

    def path_of(self, local: str) -> Optional[str]:
        path = self.paths.get(local)
        if path is None or path == self._TOP:
            return None
        return path

    def check_of(self, local: str) -> Optional[Tuple[GuardFact, str]]:
        value = self.values.get(local)
        if value is not None and value[0] == "check":
            return ((value[1], value[2], value[3]), value[4])
        return None


class GuardAnalysis:
    """Null-check-guarded (base, field) facts before every instruction."""

    def __init__(self, module: Module, method: Method) -> None:
        self.module = module
        self.method = method
        self.symbols = _SymbolicValues(module, method)
        self._in_states: Dict[int, GuardState] = run_forward(
            method, frozenset(), self._transfer_instr, lambda a, b: a & b,
            self._edge_state,
        )

    def _transfer_instr(self, instr: Instruction, state: GuardState) -> GuardState:
        if isinstance(instr, (PutField, PutStatic)):
            # Any write invalidates prior checks on this field (frees
            # obviously; other writes may store a null-returning value).
            cls, name = _field_key(self.module, instr.fieldref)
            return frozenset(
                f for f in state if not (f[1] == cls and f[2] == name)
            )
        return state

    def _edge_state(self, instr: If, state: GuardState, to_then: bool) -> GuardState:
        if not isinstance(instr.cond, Local):
            return state
        check = self.symbols.check_of(instr.cond.name)
        if check is None:
            return state
        fact, op = check
        # `f != null` guards the then-edge; `f == null` guards the else-edge.
        if (op == "!=" and to_then) or (op == "==" and not to_then):
            return state | {fact}
        return state

    def guarded_at(self, uid: int, base: str, cls: str, name: str) -> bool:
        canonical = self.symbols.path_of(base) or base
        return (canonical, cls, name) in self._in_states.get(uid, frozenset())

    def use_protected(self, uid: int, base: str, cls: str, name: str) -> bool:
        """Is a field *use* protected by a null check?

        Covers both idioms: the field is re-read after an explicit check
        (``if (f != null) f.use()``), or the read's value is copied to a
        local whose every dereference sits inside the check
        (``F b = f; if (b != null) b.use();``).
        """
        if self.guarded_at(uid, base, cls, name):
            return True
        derefs = deref_consumer_uids(self.method, uid)
        if not derefs:
            return False
        return all(self.guarded_at(d, base, cls, name) for d in derefs)


class AllocAnalysis:
    """Fields that must hold a locally-produced value at each point.

    Facts are ``(base local, class, field, source)`` with source ``"new"``
    (Intra-Allocation, sound modulo atomicity) or ``"call"`` (Maybe-
    Allocation, unsound: assumes getters never return null).
    """

    def __init__(self, module: Module, method: Method) -> None:
        self.module = module
        self.method = method
        self.symbols = _SymbolicValues(module, method)
        self._def_kinds = self._classify_locals()
        self._in_states: Dict[int, FrozenSet] = run_forward(
            method, frozenset(), self._transfer, lambda a, b: a & b,
        )

    def _classify_locals(self) -> Dict[str, Set[str]]:
        kinds: Dict[str, Set[str]] = {}
        changed = True
        passes = 0
        while changed and passes < 8:
            changed = False
            passes += 1
            for instr in self.method.instructions():
                target = instr.target_local()
                if target is None:
                    continue
                slot = kinds.setdefault(target, set())
                before = len(slot)
                if isinstance(instr, New):
                    slot.add("new")
                elif isinstance(instr, Invoke):
                    slot.add("call")
                elif isinstance(instr, Assign):
                    if isinstance(instr.source, Local):
                        slot |= kinds.get(instr.source.name, {"other"})
                    elif not instr.source.is_null():
                        slot.add("other")
                    else:
                        slot.add("null")
                else:
                    slot.add("other")
                if len(slot) != before:
                    changed = True
        return kinds

    def _value_source(self, operand) -> Optional[str]:
        if not isinstance(operand, Local):
            return None
        kinds = self._def_kinds.get(operand.name, set())
        if kinds == {"new"}:
            return "new"
        if kinds and kinds <= {"new", "call"}:
            return "call"
        return None

    def _transfer(self, instr: Instruction, state: FrozenSet) -> FrozenSet:
        if isinstance(instr, PutField):
            cls, name = _field_key(self.module, instr.fieldref)
            state = frozenset(
                f for f in state if not (f[1] == cls and f[2] == name)
            )
            source = self._value_source(instr.value)
            if source is not None:
                base = self.symbols.path_of(instr.base.name) or instr.base.name
                state = state | {(base, cls, name, source)}
        return state

    def allocated_at(self, uid: int, base: str, cls: str, name: str,
                     allow_calls: bool = False) -> bool:
        return self.allocation_witness(uid, base, cls, name,
                                       allow_calls=allow_calls) is not None

    def allocation_witness(self, uid: int, base: str, cls: str, name: str,
                           allow_calls: bool = False
                           ) -> Optional[Tuple[str, List[Dict[str, int]]]]:
        """The allocation fact justifying an IA/MA prune at ``uid``.

        Returns ``(source, store_sites)`` -- the must-fact's value source
        (``"new"`` or ``"call"``) and the in-method store sites compatible
        with it (uid + line of each ``PutField`` on the field whose value
        has that source), or ``None`` when no fact covers the use.  The
        ``"new"`` fact wins when both are present, matching
        :meth:`allocated_at`'s soundness preference.
        """
        canonical = self.symbols.path_of(base) or base
        state = self._in_states.get(uid, frozenset())
        matched: Optional[str] = None
        for fact_base, fact_cls, fact_name, source in state:
            if (fact_base, fact_cls, fact_name) != (canonical, cls, name):
                continue
            if source == "new":
                matched = "new"
                break
            if allow_calls and source == "call":
                matched = "call"
        if matched is None:
            return None
        sites = [
            {"uid": instr.uid, "line": instr.line}
            for instr in self.method.instructions()
            if isinstance(instr, PutField)
            and _field_key(self.module, instr.fieldref) == (cls, name)
            and self._value_source(instr.value) == matched
        ]
        return matched, sites


def _value_readers(method: Method,
                   use_uid: int) -> Iterator[Tuple[str, Instruction]]:
    """Every instruction reading the value produced at ``use_uid``, with
    the local it reads the value from.  Copies (``Assign`` from such a
    local) are followed, not reported; a use that produces no value has
    no readers."""
    target = next((instr.target_local() for instr in method.instructions()
                   if instr.uid == use_uid), None)
    worklist = [] if target is None else [target]
    seen: Set[str] = set()
    while worklist:
        local = worklist.pop()
        if local in seen:
            continue
        seen.add(local)
        for instr in method.instructions():
            if isinstance(instr, Assign) and isinstance(instr.source, Local) \
                    and instr.source.name == local:
                worklist.append(instr.target)
            elif any(isinstance(op, Local) and op.name == local
                     for op in instr.operands()):
                yield local, instr


def _dereferences(instr: Instruction, local: str) -> bool:
    """Is ``local`` the receiver of a call or the base of a field access?"""
    return isinstance(instr, (Invoke, GetField, PutField)) \
        and instr.base is not None and instr.base.name == local


def _is_null_check(instr: Instruction, local: str) -> bool:
    if not (isinstance(instr, BinaryOp) and instr.op in ("==", "!=")):
        return False
    other = instr.rhs if (
        isinstance(instr.lhs, Local) and instr.lhs.name == local
    ) else instr.lhs
    return isinstance(other, Const) and other.is_null()


def deref_consumer_uids(method: Method, use_uid: int) -> List[int]:
    """Instructions that dereference the value produced at ``use_uid``
    (call receivers, field-access bases), following local copies."""
    return [instr.uid for local, instr in _value_readers(method, use_uid)
            if _dereferences(instr, local)]


def use_is_pure_check(module: Module, method: Method, use_uid: int) -> bool:
    """Is this use the guard's own read -- its value consumed *only* by
    null comparisons (following copies)?  Such a read cannot crash and is
    soundly covered by the IG filter regardless of atomicity."""
    saw_check = False
    for local, instr in _value_readers(method, use_uid):
        if not _is_null_check(instr, local):
            return False
        saw_check = True
    return saw_check


def use_is_benign(module: Module, method: Method, use_uid: int) -> bool:
    """Used-for-Return: the use's value is never dereferenced locally.

    Benign consumers: ``return``, call *arguments* (not receivers), and
    null comparisons.  Copies are followed.  Any other consumer (receiver
    of a call, base of a field access, arithmetic, branch) is a potential
    dereference, so the use stays; a use that produces no value has
    nothing to dereference.
    """
    return all(
        isinstance(instr, Return)
        or (isinstance(instr, Invoke) and not _dereferences(instr, local))
        or _is_null_check(instr, local)
        for local, instr in _value_readers(method, use_uid)
    )
