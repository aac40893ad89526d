"""Module-level containers: fields, methods, classes and whole programs.

A :class:`Module` is the unit of analysis: the union of all classes lowered
from an application's MiniDroid sources plus any synthetic classes added by
threadification (the dummy main).  ``Module.seal()`` assigns global uids and
allocation-site names, after which the module is treated as immutable by
the analyses.

A module may start with a *prelude*: the classes of another, already
sealed module, shared rather than copied (the Android framework stubs,
built once per process).  Sealing numbers the prelude exactly as the
prelude's own ``seal()`` did and never writes into its objects.  A
prelude's hierarchy is closed, so the prelude answers hierarchy questions
about its classes from its own caches, and facts about its code
(:meth:`Module.memo`) are computed once per prelude, not once per app.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from .cfg import ControlFlowGraph
from .instructions import FieldRef, Instruction, MethodRef, New
from .types import Type, VOID


@dataclass
class Field:
    """A member field declaration."""

    name: str
    type: Type
    is_static: bool = False
    line: int = 0


@dataclass
class Parameter:
    """A formal method parameter."""

    name: str
    type: Type


class Method:
    """One method: signature, flags and a control-flow graph."""

    def __init__(
        self,
        class_name: str,
        name: str,
        params: Optional[List[Parameter]] = None,
        return_type: Type = VOID,
        is_static: bool = False,
        is_synchronized: bool = False,
        line: int = 0,
    ) -> None:
        self.class_name = class_name
        self.name = name
        self.params = params or []
        self.return_type = return_type
        self.is_static = is_static
        self.is_synchronized = is_synchronized
        self.line = line
        self.cfg = ControlFlowGraph()

    @property
    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.name}"

    @property
    def arity(self) -> int:
        return len(self.params)

    def ref(self) -> MethodRef:
        return MethodRef(self.class_name, self.name, self.arity)

    def param_names(self) -> List[str]:
        names = [] if self.is_static else ["this"]
        names.extend(p.name for p in self.params)
        return names

    def instructions(self) -> Iterator[Instruction]:
        return self.cfg.instructions()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Method {self.qualified_name}/{self.arity}>"


class ClassDef:
    """A class or interface definition."""

    def __init__(
        self,
        name: str,
        super_name: Optional[str] = None,
        interfaces: Optional[List[str]] = None,
        is_interface: bool = False,
        line: int = 0,
    ) -> None:
        self.name = name
        self.super_name = super_name
        self.interfaces = interfaces or []
        self.is_interface = is_interface
        self.line = line
        self.fields: Dict[str, Field] = {}
        self.methods: Dict[str, Method] = {}

    def add_field(self, f: Field) -> Field:
        if f.name in self.fields:
            raise ValueError(f"duplicate field {self.name}.{f.name}")
        self.fields[f.name] = f
        return f

    def add_method(self, m: Method) -> Method:
        if m.name in self.methods:
            raise ValueError(f"duplicate method {self.name}.{m.name}")
        self.methods[m.name] = m
        return m

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "interface" if self.is_interface else "class"
        return f"<{kind} {self.name}>"


class Module:
    """A whole program: every class, plus uid/site bookkeeping.

    After :meth:`seal`, every instruction has a unique ``uid`` and every
    ``New`` carries its allocation-site name.  Analyses index program points
    by uid through :meth:`instruction_at` and :meth:`method_of`.
    """

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self.classes: Dict[str, ClassDef] = {}
        self._sealed = False
        self._prelude: Optional["Module"] = None
        self._by_uid: Dict[int, Instruction] = {}
        self._method_by_uid: Dict[int, Method] = {}
        self._supertypes_cache: Dict[str, Set[str]] = {}
        self._superclasses_cache: Dict[str, List[str]] = {}
        self._subclasses_cache: Dict[str, Set[str]] = {}
        self._memo: Dict[Callable, Any] = {}
        self._own_from = 0  # index of the first class after the prelude

    # -- construction --------------------------------------------------------

    def add_class(self, cls: ClassDef) -> ClassDef:
        if self._sealed:
            raise RuntimeError("module is sealed")
        if cls.name in self.classes:
            raise ValueError(f"duplicate class {cls.name}")
        self.classes[cls.name] = cls
        self._clear_hierarchy_caches()
        return cls

    def set_prelude(self, prelude: "Module") -> None:
        """Share the classes of the sealed module ``prelude`` as the head of
        this module's class table, without copying them.

        An empty module gains them; a module that already has a prelude
        swaps it for one with the same class names in the same order.
        """
        if self._sealed:
            raise RuntimeError("module is sealed")
        if not prelude.sealed:
            raise ValueError("a prelude must be sealed")
        if self._prelude is None:
            if self.classes:
                raise ValueError("a prelude must lead the class table")
        elif list(prelude.classes) != list(self._prelude.classes):
            raise ValueError("a prelude can only be swapped for one with "
                             "the same classes")
        if not prelude.memo(_closed_hierarchy):
            raise ValueError("a prelude's supertypes must be its own classes")
        self.classes.update(prelude.classes)
        self._prelude = prelude
        self._own_from = len(prelude.classes)
        self._clear_hierarchy_caches()

    def _clear_hierarchy_caches(self) -> None:
        self._supertypes_cache.clear()
        self._superclasses_cache.clear()
        self._subclasses_cache.clear()

    @property
    def prelude(self) -> Optional["Module"]:
        return self._prelude

    def _shared(self, class_name: str) -> Optional["Module"]:
        """The prelude, if ``class_name`` is one of its classes."""
        prelude = self._prelude
        if prelude is not None and class_name in prelude.classes:
            return prelude
        return None

    def seal(self) -> "Module":
        """Assign uids and allocation-site names; freeze the class table."""
        uid = 0
        classes = list(self.classes.values())
        prelude = self._prelude
        if prelude is not None:
            shared = list(prelude.classes.values())
            if any(a is not b for a, b in zip(classes, shared)):
                raise RuntimeError("prelude classes were replaced")
            self._by_uid.update(prelude._by_uid)
            self._method_by_uid.update(prelude._method_by_uid)
            uid = len(prelude._by_uid)
            classes = classes[len(shared):]
        for cls in classes:
            for method in cls.methods.values():
                site_counter = 0
                for instr in method.instructions():
                    instr.uid = uid
                    self._by_uid[uid] = instr
                    self._method_by_uid[uid] = method
                    if isinstance(instr, New):
                        instr.site = f"{method.qualified_name}#{site_counter}"
                        site_counter += 1
                    uid += 1
        self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    # -- queries --------------------------------------------------------------

    def lookup_class(self, name: str) -> Optional[ClassDef]:
        return self.classes.get(name)

    def methods(self) -> Iterator[Method]:
        for cls in self.classes.values():
            yield from cls.methods.values()

    def own_methods(self) -> Iterator[Method]:
        """Methods of the classes this module adds after its prelude."""
        for cls in islice(self.classes.values(), self._own_from, None):
            yield from cls.methods.values()

    def memo(self, compute: Callable[["Module"], Any]) -> Any:
        """``compute(self)``, computed once per sealed module: facts about a
        prelude's code that every module sharing it reuses."""
        if not self._sealed:
            raise RuntimeError("only a sealed module memoizes facts")
        if compute not in self._memo:
            self._memo[compute] = compute(self)
        return self._memo[compute]

    def lookup_method(self, class_name: str, method_name: str) -> Optional[Method]:
        cls = self.classes.get(class_name)
        if cls is None:
            return None
        return cls.methods.get(method_name)

    def instruction_at(self, uid: int) -> Instruction:
        return self._by_uid[uid]

    def method_of(self, uid: int) -> Method:
        return self._method_by_uid[uid]

    def instructions(self) -> Iterator[Instruction]:
        for method in self.methods():
            yield from method.instructions()

    # -- class hierarchy -------------------------------------------------------

    def superclasses(self, class_name: str) -> List[str]:
        """Proper superclass chain, nearest first (a fresh list of a cached
        chain).  Tolerates unknown roots."""
        prelude = self._shared(class_name)
        if prelude is not None:
            return prelude.superclasses(class_name)
        chain = self._superclasses_cache.get(class_name)
        if chain is None:
            chain = []
            cls = self.classes.get(class_name)
            seen = {class_name}
            while cls is not None and cls.super_name \
                    and cls.super_name not in seen:
                chain.append(cls.super_name)
                seen.add(cls.super_name)
                cls = self.classes.get(cls.super_name)
            self._superclasses_cache[class_name] = chain
        return list(chain)

    def supertypes(self, class_name: str) -> Set[str]:
        """All transitive supertypes: superclasses plus interfaces (cached)."""
        prelude = self._shared(class_name)
        if prelude is not None:
            return prelude.supertypes(class_name)
        cached = self._supertypes_cache.get(class_name)
        if cached is not None:
            return cached
        result: Set[str] = set()
        work = [class_name]
        while work:
            name = work.pop()
            cls = self.classes.get(name)
            if cls is None:
                continue
            parents = list(cls.interfaces)
            if cls.super_name:
                parents.append(cls.super_name)
            for parent in parents:
                if parent not in result:
                    result.add(parent)
                    work.append(parent)
        self._supertypes_cache[class_name] = result
        return result

    def is_subtype(self, sub: str, sup: str) -> bool:
        return sub == sup or sup in self.supertypes(sub)

    def subclasses(self, class_name: str) -> Set[str]:
        """All classes (transitively) deriving from or implementing a type
        (cached).  Only the classes after the prelude are checked here: the
        prelude answers for its own classes, and none of them derives from
        a class outside it."""
        cached = self._subclasses_cache.get(class_name)
        if cached is not None:
            return cached
        prelude = self._shared(class_name)
        result = set(prelude.subclasses(class_name)) if prelude else set()
        result.update(
            name
            for name in islice(self.classes, self._own_from, None)
            if name != class_name and class_name in self.supertypes(name)
        )
        self._subclasses_cache[class_name] = result
        return result

    def resolve_field(self, class_name: str, field_name: str) -> Optional[FieldRef]:
        """Resolve a field access to the class that declares the field."""
        for name in [class_name, *self.superclasses(class_name)]:
            cls = self.classes.get(name)
            if cls is not None and field_name in cls.fields:
                return FieldRef(name, field_name)
        return None

    def resolve_method(self, class_name: str, method_name: str) -> Optional[Method]:
        """Resolve a virtual call against the hierarchy (nearest declaration)."""
        for name in [class_name, *self.superclasses(class_name)]:
            method = self.lookup_method(name, method_name)
            if method is not None:
                return method
        return None


def _closed_hierarchy(module: Module) -> bool:
    """Whether every supertype a class names is a class of ``module``."""
    return all(parent in module.classes
               for cls in module.classes.values()
               for parent in [*cls.interfaces, cls.super_name] if parent)
