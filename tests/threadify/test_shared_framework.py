"""The shared framework prelude against a private framework per app.

Every app module shares one process-wide set of framework stub classes
(``shared_framework``), and threadification swaps in a pre-sealed
variant with the posting/registration stubs rewritten.  The oracle is
the way every app used to be built: its own fresh
``build_framework_classes()``, rewritten in place by the threadifier
and numbered by the app's own ``seal()``.  Both must produce the same
sealed module, instruction by instruction, with the same hierarchy and
call-graph answers (which the shared module takes from the prelude's
memos), and analysing apps must never write into the shared classes.
"""

from dataclasses import dataclass
from typing import Callable, List

import pytest

from repro import lowering
from repro.analysis import build_cha_callgraph, instantiated_classes
from repro.android.framework import build_framework_classes, shared_framework
from repro.core import analyze_module
from repro.corpus import all_apps
from repro.corpus.generator import GeneratorConfig, generate_corpus
from repro.ir import Module
from repro.lowering import lower_sources
from repro.threadify import threadify
from repro.threadify.transform import threadified_framework

VARIANTS = [(fragments, ordered) for fragments in (False, True)
            for ordered in (False, True)]


@dataclass
class Case:
    name: str
    source: str
    manifest_for: Callable


def cases() -> List[Case]:
    registry = [Case(spec.name, spec.source(), spec.manifest_for)
                for spec in all_apps()]
    generated = [Case(gen.name, gen.source, lambda module: None)
                 for gen in generate_corpus(GeneratorConfig(seed=42,
                                                            count=40))]
    return registry + generated


def install_private_framework(module: Module) -> Module:
    for cls in build_framework_classes():
        module.add_class(cls)
    return module


def private_module(case: Case) -> Module:
    """The oracle: lowered onto a fresh private framework, threadified."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lowering, "install_framework",
                      install_private_framework)
        module = lower_sources(case.source, module_name=case.name,
                               seal=False)
    assert module.prelude is None
    return threadify(module, case.manifest_for(module)).module


def sealed_sequence(module: Module) -> list:
    """``(uid, site, method, instruction)`` of every instruction, in
    class-table order, checked against the module's uid index."""
    out = []
    for method in module.methods():
        for instr in method.instructions():
            assert module.instruction_at(instr.uid) is instr
            assert module.method_of(instr.uid) is method
            out.append((instr.uid, getattr(instr, "site", None),
                        method.qualified_name, repr(instr)))
    return out


def snapshot(prelude: Module) -> list:
    """Every attribute of every class, method and instruction."""
    out = []
    for cls in prelude.classes.values():
        out.append((cls.name, cls.super_name, list(cls.interfaces),
                    cls.is_interface, cls.line, repr(cls.fields)))
        for method in cls.methods.values():
            out.append((method.qualified_name, repr(method.params),
                        repr(method.return_type), method.is_static,
                        method.is_synchronized, method.line,
                        method.cfg.entry_label))
            for block in method.cfg.block_order():
                out.append((block.label, [sorted(vars(instr).items())
                                          for instr in block]))
    return out


def all_preludes() -> List[Module]:
    return [shared_framework()] + [threadified_framework(*variant)
                                   for variant in VARIANTS]


@pytest.fixture(scope="module")
def analyzed():
    """Snapshot the preludes, analyse every case on them, snapshot again."""
    before = [snapshot(prelude) for prelude in all_preludes()]
    modules = {}
    for case in cases():
        module = lower_sources(case.source, module_name=case.name,
                               seal=False)
        result = analyze_module(module, case.manifest_for(module))
        modules[case.name] = result.program.module
    after = [snapshot(prelude) for prelude in all_preludes()]
    return before, after, modules


@pytest.fixture(scope="module")
def oracles():
    return {case.name: private_module(case) for case in cases()}


@pytest.mark.parametrize("case", cases(), ids=lambda case: case.name)
def test_shared_framework_matches_a_private_one(analyzed, oracles, case):
    shared = analyzed[2][case.name]
    oracle = oracles[case.name]
    assert list(shared.classes) == list(oracle.classes)
    assert sealed_sequence(shared) == sealed_sequence(oracle)


@pytest.mark.parametrize("case", cases(), ids=lambda case: case.name)
def test_shared_hierarchy_matches_a_private_one(analyzed, oracles, case):
    shared = analyzed[2][case.name]
    oracle = oracles[case.name]
    for name in [*oracle.classes, "NoSuchClass"]:
        assert shared.supertypes(name) == oracle.supertypes(name), name
        assert shared.superclasses(name) == oracle.superclasses(name), name
        assert shared.subclasses(name) == oracle.subclasses(name), name
    assert instantiated_classes(shared) == instantiated_classes(oracle)
    assert build_cha_callgraph(shared).edges \
        == build_cha_callgraph(oracle).edges


def test_every_rewrite_variant_is_covered(analyzed):
    used = {id(module.prelude) for module in analyzed[2].values()}
    assert {id(threadified_framework(*variant))
            for variant in VARIANTS} <= used


def test_analysis_never_writes_into_the_shared_framework(analyzed):
    before, after, _ = analyzed
    assert after == before


def test_shared_classes_are_not_copied(analyzed):
    for module in analyzed[2].values():
        prelude = module.prelude
        assert all(module.classes[name] is cls
                   for name, cls in prelude.classes.items())


def test_install_framework_needs_an_empty_module():
    module = install_private_framework(Module("private"))
    with pytest.raises(ValueError, match="lead the class table"):
        lowering.install_framework(module)
