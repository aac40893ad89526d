"""Unit tests for the IR module container: hierarchy, sealing, lookups."""

import pytest

from repro.core import analyze_app
from repro.corpus import app
from repro.ir import (
    ClassDef,
    Field,
    FieldRef,
    INT,
    IRBuilder,
    Method,
    Module,
    New,
    parse_type,
)


def build_hierarchy():
    module = Module("t")
    base = ClassDef("Base")
    base.add_field(Field("shared", parse_type("Payload")))
    module.add_class(base)
    mid = ClassDef("Mid", super_name="Base", interfaces=["Runnable2"])
    module.add_class(mid)
    leaf = ClassDef("Leaf", super_name="Mid")
    module.add_class(leaf)
    iface = ClassDef("Runnable2", is_interface=True)
    module.add_class(iface)
    return module


def test_superclasses_chain_order():
    module = build_hierarchy()
    assert module.superclasses("Leaf") == ["Mid", "Base"]
    assert module.superclasses("Base") == []


def test_supertypes_include_interfaces():
    module = build_hierarchy()
    assert module.supertypes("Leaf") == {"Mid", "Base", "Runnable2"}


def test_subclasses_transitive():
    module = build_hierarchy()
    assert module.subclasses("Base") == {"Mid", "Leaf"}
    assert module.subclasses("Runnable2") == {"Mid", "Leaf"}


def test_is_subtype_reflexive_and_transitive():
    module = build_hierarchy()
    assert module.is_subtype("Leaf", "Leaf")
    assert module.is_subtype("Leaf", "Base")
    assert not module.is_subtype("Base", "Leaf")


def test_resolve_field_finds_declaring_class():
    module = build_hierarchy()
    ref = module.resolve_field("Leaf", "shared")
    assert ref == FieldRef("Base", "shared")
    assert module.resolve_field("Leaf", "ghost") is None


def test_sealed_module_resolves_each_field_to_one_ref():
    module = build_hierarchy().seal()
    ref = module.resolve_field("Leaf", "shared")
    assert ref == FieldRef("Base", "shared")
    assert module.resolve_field("Leaf", "shared") is ref
    assert module.resolve_field("Leaf", "ghost") is None
    assert module.resolve_field("Leaf", "ghost") is None


def test_unsealed_module_sees_fields_added_after_a_lookup():
    module = build_hierarchy()
    assert module.resolve_field("Leaf", "late") is None
    module.classes["Mid"].add_field(Field("late", INT))
    assert module.resolve_field("Leaf", "late") == FieldRef("Mid", "late")


@pytest.mark.parametrize("name", ["connectbot", "k9mail", "todolist"])
def test_field_memo_matches_the_final_class_table(name):
    """No pass adds a field to a class after ``seal()``: every answer the
    memo gave during a full analysis still matches a fresh walk."""
    module = analyze_app(app(name).source()).program.module
    memo = module._field_refs
    assert memo
    for (class_name, field_name), ref in memo.items():
        walk = [cls for cls in [class_name, *module.superclasses(class_name)]
                if cls in module.classes
                and field_name in module.classes[cls].fields]
        assert ref == (FieldRef(walk[0], field_name) if walk else None)


def test_resolve_method_nearest_override():
    module = build_hierarchy()
    base_m = Method("Base", "work")
    IRBuilder(base_m).finish()
    module.classes["Base"].add_method(base_m)
    mid_m = Method("Mid", "work")
    IRBuilder(mid_m).finish()
    module.classes["Mid"].add_method(mid_m)
    resolved = module.resolve_method("Leaf", "work")
    assert resolved is mid_m
    assert module.resolve_method("Base", "work") is base_m


def test_supertype_cycle_terminates():
    module = Module("t")
    module.add_class(ClassDef("A", super_name="B"))
    module.add_class(ClassDef("B", super_name="A"))
    assert "B" in module.supertypes("A")
    assert module.superclasses("A") == ["B"]  # stops at the cycle


def test_seal_assigns_unique_uids_and_sites():
    module = Module("t")
    cls = ClassDef("A")
    module.add_class(cls)
    method = Method("A", "m", is_static=True)
    builder = IRBuilder(method)
    builder.new("A")
    builder.new("A")
    builder.finish()
    cls.add_method(method)
    module.seal()

    uids = [i.uid for i in module.instructions()]
    assert len(set(uids)) == len(uids)
    news = [i for i in module.instructions() if isinstance(i, New)]
    assert [n.site for n in news] == ["A.m#0", "A.m#1"]
    for instr in module.instructions():
        assert module.instruction_at(instr.uid) is instr
        assert module.method_of(instr.uid) is method


def _one_class_module(name, class_name, allocations):
    module = Module(name)
    cls = ClassDef(class_name)
    method = Method(class_name, "m", is_static=True)
    builder = IRBuilder(method)
    for _ in range(allocations):
        builder.new(class_name)
    builder.finish()
    cls.add_method(method)
    module.add_class(cls)
    return module


def test_prelude_is_numbered_first_and_never_rewritten():
    prelude = _one_class_module("prelude", "P", 2).seal()
    shared = [(i.uid, i.site if isinstance(i, New) else None)
              for i in prelude.instructions()]
    module = Module("app")
    module.set_prelude(prelude)
    module.add_class(_one_class_module("x", "A", 1).classes["A"])
    module.seal()
    assert module.classes["P"] is prelude.classes["P"]
    assert [(i.uid, i.site if isinstance(i, New) else None)
            for i in prelude.instructions()] == shared
    uids = [i.uid for i in module.instructions()]
    assert uids == list(range(len(uids)))
    for instr in module.instructions():
        assert module.instruction_at(instr.uid) is instr


def test_prelude_rules():
    unsealed = _one_class_module("p", "P", 0)
    with pytest.raises(ValueError, match="sealed"):
        Module("app").set_prelude(unsealed)
    prelude = _one_class_module("p", "P", 0).seal()
    crowded = _one_class_module("app", "A", 0)
    with pytest.raises(ValueError, match="lead"):
        crowded.set_prelude(prelude)
    module = Module("app")
    module.set_prelude(prelude)
    with pytest.raises(ValueError, match="same classes"):
        module.set_prelude(_one_class_module("q", "Q", 0).seal())
    swapped = _one_class_module("p2", "P", 1).seal()
    module.set_prelude(swapped)
    assert module.classes["P"] is swapped.classes["P"]
    module.classes["P"] = ClassDef("P")
    with pytest.raises(RuntimeError, match="replaced"):
        module.seal()


def test_sealed_module_rejects_new_classes():
    module = Module("t")
    module.add_class(ClassDef("A"))
    module.seal()
    with pytest.raises(RuntimeError):
        module.add_class(ClassDef("B"))


def test_duplicate_class_rejected():
    module = Module("t")
    module.add_class(ClassDef("A"))
    with pytest.raises(ValueError):
        module.add_class(ClassDef("A"))


def test_duplicate_field_and_method_rejected():
    cls = ClassDef("A")
    cls.add_field(Field("x", INT))
    with pytest.raises(ValueError):
        cls.add_field(Field("x", INT))
    method = Method("A", "m")
    cls.add_method(method)
    with pytest.raises(ValueError):
        cls.add_method(Method("A", "m"))


def test_caches_invalidate_on_add_class():
    module = Module("t")
    module.add_class(ClassDef("Base"))
    assert module.subclasses("Base") == set()
    module.add_class(ClassDef("Child", super_name="Base"))
    assert module.subclasses("Base") == {"Child"}


def test_superclasses_memo_invalidates_on_add_class():
    module = Module("t")
    module.add_class(ClassDef("Leaf", super_name="Mid"))
    assert module.superclasses("Leaf") == ["Mid"]
    module.add_class(ClassDef("Mid", super_name="Base"))
    assert module.superclasses("Leaf") == ["Mid", "Base"]
    chain = module.superclasses("Leaf")
    chain.append("mutated")  # callers get a fresh list
    assert module.superclasses("Leaf") == ["Mid", "Base"]


def _prelude(super_of_p):
    prelude = Module("prelude")
    prelude.add_class(ClassDef("P", super_name=super_of_p))
    prelude.add_class(ClassDef("Q"))
    return prelude.seal()


def test_superclasses_memo_invalidates_on_prelude_swap():
    module = Module("app")
    module.set_prelude(_prelude(None))
    module.add_class(ClassDef("A", super_name="P"))
    assert module.superclasses("A") == ["P"]
    assert module.subclasses("Q") == set()
    module.set_prelude(_prelude("Q"))
    assert module.superclasses("A") == ["P", "Q"]
    assert module.superclasses("P") == ["Q"]
    assert module.subclasses("Q") == {"P", "A"}


def test_prelude_hierarchy_must_be_closed():
    prelude = Module("open")
    prelude.add_class(ClassDef("P", interfaces=["Elsewhere"]))
    with pytest.raises(ValueError, match="supertypes"):
        Module("app").set_prelude(prelude.seal())


def test_memo_computes_once_and_only_when_sealed():
    module = Module("t")
    calls = []

    def fact(m):
        calls.append(m)
        return len(m.classes)

    with pytest.raises(RuntimeError, match="sealed"):
        module.memo(fact)
    module.seal()
    assert module.memo(fact) == module.memo(fact) == 0
    assert calls == [module]
