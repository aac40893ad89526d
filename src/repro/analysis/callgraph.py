"""Call-graph construction.

Two precision levels are provided:

* :func:`build_cha_callgraph` -- class-hierarchy analysis refined with
  Rapid Type Analysis (virtual calls dispatch to overriding subtypes that
  are actually instantiated somewhere in the module).  Used by the
  threadifier to delimit per-thread code regions.
* the context-sensitive call graph that falls out of the k-object-
  sensitive points-to analysis (:mod:`repro.analysis.pointsto`), used by
  the race detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..ir import Invoke, Method, Module, New


def instantiated_classes(module: Module) -> Set[str]:
    """RTA set: every class allocated by a ``new`` anywhere in the module.
    The prelude's share is computed once per sealed prelude."""
    own = {
        instr.class_name
        for method in module.own_methods()
        for instr in method.instructions()
        if isinstance(instr, New)
    }
    prelude = module.prelude
    return own if prelude is None else own | prelude.memo(instantiated_classes)


def _call_sites(module: Module) -> List[Tuple[Method, Invoke]]:
    """Every ``(method, invoke)`` in class-table order.  The prelude's
    list is computed once per sealed prelude."""
    own = [
        (method, instr)
        for method in module.own_methods()
        for instr in method.instructions()
        if isinstance(instr, Invoke)
    ]
    prelude = module.prelude
    return own if prelude is None else prelude.memo(_call_sites) + own


def dispatch_targets(
    module: Module,
    invoke: Invoke,
    rta: Optional[Set[str]] = None,
) -> List[Method]:
    """Possible callee methods of one call site under CHA/RTA.

    * ``static``/``special`` calls resolve to exactly one method.
    * ``virtual`` calls resolve to the override in every instantiated
      subtype of the declared receiver class (plus the declared class's own
      resolution, for receivers whose allocation the RTA set misses).
    """
    ref = invoke.methodref
    if invoke.kind in ("static", "special"):
        target = module.resolve_method(ref.class_name, ref.method_name)
        return [target] if target is not None else []

    targets: Dict[str, Method] = {}
    base = module.resolve_method(ref.class_name, ref.method_name)
    if base is not None and base.cfg.blocks:
        targets[base.qualified_name] = base
    candidates = module.subclasses(ref.class_name)
    for sub in candidates:
        if rta is not None and sub not in rta:
            continue
        cls = module.lookup_class(sub)
        if cls is None or cls.is_interface:
            continue
        resolved = module.resolve_method(sub, ref.method_name)
        if resolved is not None and resolved.cfg.blocks:
            targets[resolved.qualified_name] = resolved
    return list(targets.values())


@dataclass
class CallGraph:
    """A call multigraph: caller method -> (call-site uid, callee method)."""

    module: Module
    edges: Dict[str, Set[Tuple[int, str]]] = field(default_factory=dict)
    methods: Dict[str, Method] = field(default_factory=dict)

    def add_edge(self, caller: Method, site_uid: int, callee: Method) -> None:
        self.methods[caller.qualified_name] = caller
        self.methods[callee.qualified_name] = callee
        self.edges.setdefault(caller.qualified_name, set()).add(
            (site_uid, callee.qualified_name)
        )

    def callees(self, caller_qname: str) -> Set[str]:
        return {callee for _, callee in self.edges.get(caller_qname, set())}

    def callers(self, callee_qname: str) -> Set[str]:
        return {
            caller
            for caller, out in self.edges.items()
            if any(callee == callee_qname for _, callee in out)
        }

    def reachable_from(
        self, entry_qnames: Set[str], skip: Optional[Set[str]] = None
    ) -> Set[str]:
        """Transitive closure of callees from a set of entry methods.

        ``skip``: method qnames whose outgoing edges are not followed
        (used to keep synthetic dummy-main code out of thread regions).
        """
        seen: Set[str] = set()
        work = [q for q in entry_qnames]
        while work:
            qname = work.pop()
            if qname in seen:
                continue
            seen.add(qname)
            if skip is not None and qname in skip:
                continue
            for callee in self.callees(qname):
                if callee not in seen:
                    work.append(callee)
        return seen


def build_cha_callgraph(module: Module, rta: Optional[Set[str]] = None) -> CallGraph:
    """Build the whole-module CHA/RTA call graph.

    Framework stub methods contain no calls (only registry stores after the
    threadification transform), so the graph never crosses back into
    application callbacks through the framework.
    """
    if rta is None:
        rta = instantiated_classes(module)
    graph = CallGraph(module)
    for method, instr in _call_sites(module):
        for target in dispatch_targets(module, instr, rta):
            graph.add_edge(method, instr.uid, target)
    return graph
