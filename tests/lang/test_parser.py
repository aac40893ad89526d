"""Parser unit tests."""

import itertools
import sys

import pytest

from repro.corpus import all_apps
from repro.lang import ParseError, ast, parse_program
from repro.lowering import lower_sources


def parse_one(source):
    program = parse_program(source)
    assert len(program.classes) == 1
    return program.classes[0]


def test_empty_class():
    cls = parse_one("class A { }")
    assert cls.name == "A"
    assert cls.super_name is None
    assert not cls.members


def test_extends_and_implements():
    cls = parse_one("class A extends B implements C, D { }")
    assert cls.super_name == "B"
    assert cls.interfaces == ["C", "D"]


def test_interface_with_abstract_method():
    cls = parse_one("interface I { void run(); }")
    assert cls.is_interface
    method = cls.method_decls()[0]
    assert method.name == "run"
    assert method.body.statements == []


def test_field_with_initializer():
    cls = parse_one("class A { int x = 3; static String s; }")
    fields = cls.field_decls()
    assert fields[0].name == "x"
    assert isinstance(fields[0].init, ast.IntLit)
    assert fields[1].is_static


def test_constructor_detected_by_name():
    cls = parse_one("class A { A(int x) { } void A2() { } }")
    ctor = cls.method_decls()[0]
    assert ctor.is_constructor
    assert ctor.name == "<init>"
    assert ctor.params[0].name == "x"


def test_modifiers_on_methods():
    cls = parse_one(
        "class A { public static void s() { } synchronized void m() { } }"
    )
    s, m = cls.method_decls()
    assert s.is_static and not s.is_synchronized
    assert m.is_synchronized and not m.is_static


def test_annotations_are_skipped():
    cls = parse_one("class A { @Override public void m() { } }")
    assert cls.method_decls()[0].name == "m"


def test_var_decl_vs_expression_statement():
    cls = parse_one(
        "class A { void m() { int x = 1; x = 2; Foo f = null; f.bar(); } }"
    )
    stmts = cls.method_decls()[0].body.statements
    assert isinstance(stmts[0], ast.VarDecl)
    assert isinstance(stmts[1], ast.ExprStmt)
    assert isinstance(stmts[1].expr, ast.Assignment)
    assert isinstance(stmts[2], ast.VarDecl)
    assert isinstance(stmts[3], ast.ExprStmt)
    assert isinstance(stmts[3].expr, ast.Call)


def test_if_else_and_while():
    cls = parse_one(
        """
        class A {
          void m(int n) {
            if (n > 0) { n = n - 1; } else n = 0;
            while (n < 10) n = n + 1;
          }
        }
        """
    )
    stmts = cls.method_decls()[0].body.statements
    assert isinstance(stmts[0], ast.IfStmt)
    assert stmts[0].else_branch is not None
    assert isinstance(stmts[1], ast.WhileStmt)


def test_synchronized_block():
    cls = parse_one("class A { void m() { synchronized (this) { int x = 1; } } }")
    stmt = cls.method_decls()[0].body.statements[0]
    assert isinstance(stmt, ast.SyncStmt)
    assert isinstance(stmt.lock, ast.ThisExpr)


def test_throw_statement():
    cls = parse_one(
        'class A { void m() { throw new NullPointerException("boom"); } }'
    )
    stmt = cls.method_decls()[0].body.statements[0]
    assert isinstance(stmt, ast.ThrowStmt)
    assert stmt.exception == "NullPointerException"


def test_operator_precedence():
    cls = parse_one("class A { int m() { return 1 + 2 * 3 == 7 && true; } }")
    ret = cls.method_decls()[0].body.statements[0]
    expr = ret.value
    assert isinstance(expr, ast.Binary) and expr.op == "&&"
    eq = expr.lhs
    assert isinstance(eq, ast.Binary) and eq.op == "=="
    plus = eq.lhs
    assert isinstance(plus, ast.Binary) and plus.op == "+"
    assert isinstance(plus.rhs, ast.Binary) and plus.rhs.op == "*"


def test_chained_field_access_and_calls():
    cls = parse_one("class A { void m() { a.b.c(1, 2).d = null; } }")
    stmt = cls.method_decls()[0].body.statements[0]
    assign = stmt.expr
    assert isinstance(assign, ast.Assignment)
    target = assign.target
    assert isinstance(target, ast.FieldAccess) and target.name == "d"
    call = target.target
    assert isinstance(call, ast.Call) and call.name == "c" and len(call.args) == 2


def test_anonymous_class_body():
    cls = parse_one(
        """
        class A {
          void m(Handler h) {
            h.post(new Runnable() { public void run() { } });
          }
        }
        """
    )
    stmt = cls.method_decls()[0].body.statements[0]
    call = stmt.expr
    new_expr = call.args[0]
    assert isinstance(new_expr, ast.NewExpr)
    assert new_expr.class_name == "Runnable"
    assert new_expr.body is not None
    assert new_expr.body[0].name == "run"


def test_super_call():
    cls = parse_one(
        "class A extends Activity { void onCreate(Bundle b) { super.onCreate(b); } }"
    )
    stmt = cls.method_decls()[0].body.statements[0]
    assert isinstance(stmt.expr, ast.SuperCall)


def test_assignment_to_rvalue_rejected():
    with pytest.raises(ParseError):
        parse_program("class A { void m() { 1 = 2; } }")


def test_missing_semicolon_rejected():
    with pytest.raises(ParseError):
        parse_program("class A { void m() { int x = 1 } }")


def test_final_local_recorded():
    cls = parse_one("class A { void m() { final String s = \"x\"; } }")
    decl = cls.method_decls()[0].body.statements[0]
    assert decl.is_final


def test_pathological_expression_nesting_is_a_parse_error():
    # 500 nested parens used to blow the interpreter's recursion limit
    # (RecursionError escaping as an analysis crash); the parser now
    # enforces its own depth budget and reports a clean source error.
    depth = 500
    source = "class A { void m() { int x = " + "(" * depth + "1" \
        + ")" * depth + "; } }"
    with pytest.raises(ParseError, match="nesting depth"):
        parse_program(source)


def test_pathological_statement_nesting_is_a_parse_error():
    depth = 500
    body = "if (c) { " * depth + "x = 1;" + " }" * depth
    source = "class A { boolean c; int x; void m() { " + body + " } }"
    with pytest.raises(ParseError, match="nesting depth"):
        parse_program(source)


def test_reasonable_nesting_still_parses():
    depth = 40
    source = "class A { void m() { int x = " + "(" * depth + "1" \
        + ")" * depth + "; } }"
    cls = parse_one(source)
    assert cls.method_decls()[0].name == "m"


MEMBERS = ("boolean c; int x; A a; int f(int v) { return v; } "
           "A g() { return this; }")


def in_method(body):
    return "class A { " + MEMBERS + " void m() { " + body + " } }"


EVERY_PRECEDENCE = "1 || 1 && 1 == 1 < 1 + 1 * ("

#: Each shape at ``n`` links or levels; every one is legal MiniDroid that
#: lowers, however deep.
SHAPES = {
    "plus": lambda n: in_method("x = 1" + " + 1" * n + ";"),
    "and": lambda n: in_method("c = c" + " && c" * n + ";"),
    "field": lambda n: in_method("this" + ".a" * n + ".x = 1;"),
    "call-chain": lambda n: in_method("g()" + ".g()" * n + ";"),
    "assignment": lambda n: in_method("x = " * n + "1;"),
    "parens": lambda n: in_method("x = " + "(" * n + "1" + ")" * n + ";"),
    "unary": lambda n: in_method("c = " + "!" * n + "c;"),
    "if-blocks": lambda n: in_method("if (c) { " * n + "x = 1;" + " }" * n),
    "calls": lambda n: in_method("x = " + "f(" * n + "1" + ")" * n + ";"),
    "anonymous": lambda n: in_method(
        "new Runnable() { public void run() { " * n + "x = 1;"
        + " } };" * n),
    "anonymous-field": lambda n: (
        "class A { Runnable r = " + "new Runnable() { Runnable r = " * n
        + "null" + "; }" * n + "; }"),
    "paren-sums": lambda n: in_method(
        "x = " + "(1 + " * n + "1" + ")" * n + ";"),
    "every-precedence": lambda n: in_method(
        "x = " + EVERY_PRECEDENCE * n + "1" + ")" * n + ";"),
}
CHAINS = ["plus", "and", "field", "call-chain", "assignment"]


def test_parenthesized_sums_count_both_levels():
    # Each "(1 + " level counts the parenthesis and the fold: 40 levels
    # fit a budget of 64 parentheses but not one of 80 levels.
    with pytest.raises(ParseError, match="nesting depth"):
        parse_program(SHAPES["paren-sums"](40))


@pytest.mark.parametrize("shape", CHAINS)
def test_flat_chains_are_a_parse_error_not_a_recursion_error(shape):
    # 3,000-link chains parsed without touching the depth budget and then
    # overflowed the interpreter's stack while being lowered.
    with pytest.raises(ParseError, match="nesting depth"):
        lower_sources(SHAPES[shape](3000))


def deepest_accepted(shape):
    """The largest ``n`` at which ``shape(n)`` still parses."""
    for n in itertools.count(1):
        try:
            parse_program(shape(n))
        except ParseError as exc:
            assert "nesting depth" in exc.message
            return n - 1
        assert n < 200, "no nesting limit"


def call_under(frames, fn):
    """Call ``fn`` with ``frames`` more interpreter frames on the stack."""
    return fn() if frames == 0 else call_under(frames - 1, fn)


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_deepest_accepted_input_lowers_under_a_deep_caller(
        shape, default_recursion_limit):
    source = SHAPES[shape](deepest_accepted(SHAPES[shape]))
    call_under(200, lambda: lower_sources(source))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_each_level_is_released_when_its_construct_ends(shape):
    # The budget bounds nesting, not length: three deepest inputs in a
    # row parse as well as one.
    parse_program(SHAPES[shape](deepest_accepted(SHAPES[shape])) * 3)


def test_parsing_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("the parser changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    for spec in all_apps():
        parse_program(spec.source(), spec.name)
    with pytest.raises(ParseError, match="nesting depth"):
        parse_program(SHAPES["parens"](500))
