"""Property-based tests (hypothesis) for core data structures/invariants."""

import string

from hypothesis import given, settings, strategies as st

from repro.android.lifecycle import sound_mhb_pairs
from repro.harness import render_table
from repro.lang import tokenize
from repro.lang.tokens import KEYWORDS, TokenType
from repro.runtime.interpreter import Interpreter
from repro.runtime.values import Heap
from repro.ir import FieldRef


# -- lifecycle automaton: sound MHB is a strict partial order --------------------

transitions_strategy = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.tuples(st.sampled_from(["a", "b", "c", "d", "e"])),
    min_size=1, max_size=5,
)


@given(transitions=transitions_strategy)
@settings(max_examples=80, deadline=None)
def test_sound_mhb_is_strict_partial_order(transitions):
    pairs = sound_mhb_pairs(transitions)
    for (a, b) in pairs:
        assert a != b, "irreflexive"
        assert (b, a) not in pairs, "antisymmetric"
    # transitivity of the derived relation
    for (a, b) in pairs:
        for (c, d) in pairs:
            if b == c:
                assert (a, d) in pairs or a == d, "transitive"


# -- lexer: values survive tokenization -------------------------------------------

identifier = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS
)


@given(names=st.lists(identifier, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_lexer_roundtrips_identifiers(names):
    tokens = tokenize(" ".join(names))
    assert [t.value for t in tokens[:-1]] == names
    assert all(t.type is TokenType.IDENT for t in tokens[:-1])


@given(values=st.lists(st.integers(0, 10**9), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_lexer_roundtrips_integers(values):
    tokens = tokenize(" ".join(str(v) for v in values))
    assert [t.value for t in tokens[:-1]] == values


printable_text = st.text(
    alphabet=st.sampled_from(string.ascii_letters + string.digits + " _.,;:!?"),
    max_size=30,
)


@given(text=printable_text)
@settings(max_examples=60, deadline=None)
def test_lexer_roundtrips_string_literals(text):
    tokens = tokenize(f'"{text}"')
    assert tokens[0].type is TokenType.STRING_LITERAL
    assert tokens[0].value == text


# -- interpreter arithmetic matches Python (int domain) ----------------------------

@given(a=st.integers(-1000, 1000), b=st.integers(-1000, 1000),
       op=st.sampled_from(["+", "-", "*", "==", "!=", "<", "<=", ">", ">="]))
@settings(max_examples=100, deadline=None)
def test_interpreter_binary_matches_python(a, b, op):
    got = Interpreter._binary(op, a, b)
    expected = eval(f"a {op} b")
    assert got == expected


@given(a=st.one_of(st.none(), st.integers(-5, 5), st.booleans(),
                   st.text(max_size=4)),
       b=st.one_of(st.none(), st.integers(-5, 5), st.booleans(),
                   st.text(max_size=4)))
@settings(max_examples=100, deadline=None)
def test_interpreter_string_concat_never_crashes(a, b):
    if isinstance(a, str) or isinstance(b, str):
        result = Interpreter._binary("+", a, b)
        assert isinstance(result, str)
        if a is None:
            assert result.startswith("null")


# -- heap ---------------------------------------------------------------------------

@given(writes=st.lists(
    st.tuples(st.sampled_from(["f", "g", "h"]), st.integers(0, 100)),
    max_size=20,
))
@settings(max_examples=60, deadline=None)
def test_heap_last_write_wins(writes):
    heap = Heap()
    obj = heap.alloc("A")
    last = {}
    for field_name, value in writes:
        heap.put_field(obj, FieldRef("A", field_name), value)
        last[field_name] = value
    for field_name in ("f", "g", "h"):
        assert heap.get_field(obj, FieldRef("A", field_name)) == last.get(field_name)


@given(n=st.integers(1, 30))
@settings(max_examples=20, deadline=None)
def test_heap_allocations_are_distinct(n):
    heap = Heap()
    refs = [heap.alloc("A") for _ in range(n)]
    assert len({r.oid for r in refs}) == n
    heap.put_field(refs[0], FieldRef("A", "x"), 1)
    for other in refs[1:]:
        assert heap.get_field(other, FieldRef("A", "x")) is None


# -- table rendering -----------------------------------------------------------------

@given(rows=st.lists(
    st.tuples(identifier, st.integers(0, 10**6)), min_size=1, max_size=8,
))
@settings(max_examples=40, deadline=None)
def test_render_table_keeps_columns_aligned(rows):
    text = render_table(["name", "count"], rows)
    lines = text.splitlines()
    assert len(lines) == len(rows) + 2
    name_width = max(len("name"), *(len(name) for name, _ in rows))
    for line, (name, count) in zip(lines[2:], rows):
        assert line.startswith(name)
        # the count column always starts right after the padded name column
        assert line[name_width + 2:].startswith(str(count))
