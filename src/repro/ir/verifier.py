"""Structural well-formedness checks for IR modules.

The verifier catches lowering bugs early: unterminated blocks, jumps to
missing labels, reads of never-written locals, duplicate definitions and
dangling super/interface references.  It reports problems rather than
raising, so tests can assert on the exact message set.
"""

from __future__ import annotations

from typing import List, Set

from .instructions import Local
from .module import Method, Module


def verify_method(method: Method, module: Module) -> List[str]:
    if not method.cfg.blocks:
        return []  # abstract / interface method: no body to check
    problems = [
        f"{method.qualified_name}: {p}" for p in method.cfg.check()
    ]

    defined: Set[str] = set(method.param_names())
    for instr in method.instructions():
        target = instr.target_local()
        if target is not None:
            defined.add(target)

    for instr in method.instructions():
        for op in instr.operands():
            if isinstance(op, Local) and op.name not in defined:
                problems.append(
                    f"{method.qualified_name}: read of undefined local "
                    f"{op.name!r} at line {instr.line}"
                )
    return problems


def verify_module(module: Module, known_external: Set[str] = frozenset()) -> List[str]:
    """Verify every method plus hierarchy references.

    ``known_external`` lists type names that are allowed to be undeclared in
    the module (the Android framework classes supplied by the registry).
    The classes of the module's prelude were verified when it was built
    and are skipped.
    """
    problems: List[str] = []
    shared = module.prelude.classes if module.prelude is not None else {}
    for cls in module.classes.values():
        if shared.get(cls.name) is cls:
            continue
        if cls.super_name and cls.super_name not in module.classes \
                and cls.super_name not in known_external:
            problems.append(
                f"{cls.name}: unknown superclass {cls.super_name!r}"
            )
        for iface in cls.interfaces:
            if iface not in module.classes and iface not in known_external:
                problems.append(f"{cls.name}: unknown interface {iface!r}")
        for method in cls.methods.values():
            problems.extend(verify_method(method, module))
    return problems
