"""The parser against the six-level cascade reference parser.

``reference_parser.py`` is the parser whose expression grammar was one
method per precedence level.  Both must build the same AST (compared by
``repr``), or raise ``ParseError`` with the same message, line, column
and filename, on the registry apps, the generated apps of two seeds, the
inputs of the depth-limit tests, seeded random token streams and a
seeded grammar-driven expression generator.

The one allowed divergence is the nesting budget: the parser also counts
binary folds, postfix folds and assignment right-hand sides, so an input
that fit the reference's budget may now raise the nesting error -- never
after the point where the reference stopped.  It must not occur on the
corpus or on the generated expressions, which nest far below the limit.
"""

import random

import pytest

import reference_parser
from repro.corpus import all_apps
from repro.corpus.generator import GeneratorConfig, generate_corpus
from repro.lang import ParseError, parse_program
from test_parser import SHAPES

NESTING = "nesting depth exceeds the MiniDroid limit of 64"
#: A reference AST too deep to ``repr`` under the default recursion limit.
TOO_DEEP = ("too deep to compare",)


def outcome(parse, source):
    try:
        program = parse(source, "f.java")
    except ParseError as exc:
        return ("ParseError", exc.message, exc.line, exc.column, exc.filename)
    try:
        return repr(program)
    except RecursionError:
        return TOO_DEEP


def outcomes(source):
    return (outcome(reference_parser.parse_program, source),
            outcome(parse_program, source))


def assert_agrees(source):
    expected, actual = outcomes(source)
    assert actual == expected, source
    return actual


def assert_agrees_but_for_the_budget(source):
    """Agreement, or the parser's nesting error raised no later than the
    reference stopped."""
    expected, actual = outcomes(source)
    if actual != expected:
        assert actual[:2] == ("ParseError", NESTING), source
        if isinstance(expected, tuple) and expected[0] == "ParseError":
            assert expected[2:4] >= actual[2:4], source


@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.name)
def test_registry_apps_parse_identically(app):
    assert_agrees(app.source())


@pytest.mark.parametrize("seed", [42, 1234])
def test_generated_apps_parse_identically(seed):
    for app in generate_corpus(GeneratorConfig(seed=seed, count=200)):
        assert_agrees(app.source)


@pytest.mark.parametrize("size", [40, 500, 3000])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_depth_limit_inputs_differ_only_by_the_budget(shape, size):
    assert_agrees_but_for_the_budget(SHAPES[shape](size))


TOKENS = (
    "x", "y", "f", "A", "Runnable", "1", "42", '"s"', "true", "false",
    "null", "this", "super", "new", "(", ")", "(", ")", "{", "}", ";", ",",
    ".", ".", "=", "=", "==", "!=", "<", "<=", ">", ">=", "+", "-", "-",
    "*", "/", "%", "&&", "||", "!", "!", "int", "boolean", "String",
    "final", "if", "else", "while", "return", "throw", "synchronized",
    "class", "void", "static", "@",
)
PREFIXES = ("", "class A { int v = ", "class A { void m() { ",
            "class A { void m() { x = ", "class A { void m() { if (")


def test_random_token_streams_parse_identically():
    rng = random.Random(17)
    for _ in range(5000):
        soup = " ".join(rng.choice(TOKENS)
                        for _ in range(rng.randint(0, 30)))
        source = rng.choice(PREFIXES) + soup
        if rng.random() < 0.5:
            source += " ; } }"
        assert_agrees_but_for_the_budget(source)


PROGRAMS = 600
OPERATORS = ("||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*",
             "/", "%")


class ExpressionGenerator:
    """Random well-formed MiniDroid statements, nested at most ``limit``
    levels, so every input parses and exercises precedence.  Each program
    spends at most ``size`` compound nodes, which keeps it small."""

    def __init__(self, rng, limit=12, size=24):
        self.rng = rng
        self.limit = limit
        self.size = size
        self.budget = 0

    def deeper(self, depth):
        """Whether to build a compound node at ``depth``."""
        if depth >= self.limit or self.budget <= 0:
            return False
        self.budget -= 1
        return True

    def atom(self):
        return self.rng.choice(
            ("x", "y", "1", "7", '"s"', "true", "false", "null", "this"))

    def operand(self, depth):
        rng = self.rng
        if rng.random() < 0.3 or not self.deeper(depth):
            return self.atom()
        kind = rng.randrange(7)
        if kind == 0:
            return rng.choice("!-") + " " + self.operand(depth + 1)
        if kind == 1:
            return "( " + self.expr(depth + 1) + " )"
        if kind == 2:
            return self.operand(depth + 1) + " . " + rng.choice("ab")
        if kind == 3:
            return self.operand(depth + 1) + " . g ( " + self.args(depth) + " )"
        if kind == 4:
            return "g ( " + self.args(depth) + " )"
        if kind == 5:
            return "new A ( " + self.args(depth) + " )"
        return ("new Runnable ( ) { void run ( ) { " + self.stmt(depth + 1)
                + " } }")

    def args(self, depth):
        return " , ".join(self.expr(depth + 1)
                          for _ in range(self.rng.randint(0, 2)))

    def binary(self, depth):
        parts = [self.operand(depth)]
        for _ in range(self.rng.randint(0, 3)):
            parts += [self.rng.choice(OPERATORS), self.operand(depth)]
        return " ".join(parts)

    def expr(self, depth):
        if self.rng.random() < 0.2 and self.deeper(depth):
            target = self.rng.choice(("x", "this . a", "y . b . c"))
            return target + " = " + self.expr(depth + 1)
        return self.binary(depth)

    def stmt(self, depth):
        rng = self.rng
        if not self.deeper(depth):
            return "x = 1 ;"
        kind = rng.randrange(7)
        if kind == 0:
            text = ("if ( " + self.expr(depth + 1) + " ) "
                    + self.stmt(depth + 1))
            if rng.random() < 0.5:
                text += " else " + self.stmt(depth + 1)
            return text
        if kind == 1:
            return "while ( " + self.expr(depth + 1) + " ) " + self.stmt(depth + 1)
        if kind == 2:
            return "{ " + " ".join(self.stmt(depth + 1)
                                   for _ in range(rng.randint(0, 2))) + " }"
        if kind == 3:
            return "int v = " + self.expr(depth + 1) + " ;"
        if kind == 4:
            return "return " + self.expr(depth + 1) + " ;"
        if kind == 5:
            return "synchronized ( " + self.expr(depth + 1) + " ) { }"
        return self.expr(depth + 1) + " ;"

    def program(self):
        self.budget = self.size
        return ("class A { int x = " + self.expr(0) + " ; void m ( ) { "
                + self.stmt(0) + " " + self.stmt(0) + " } }")


def test_generated_expressions_parse_identically():
    rng = random.Random(16)
    generator = ExpressionGenerator(rng)
    parsed = 0
    for _ in range(PROGRAMS):
        source = generator.program()
        parsed += not isinstance(assert_agrees(source), tuple)
        # One token dropped or repeated: the same errors at the same place.
        tokens = source.split(" ")
        spot = rng.randrange(len(tokens))
        if rng.random() < 0.5:
            del tokens[spot]
        else:
            tokens.insert(spot, tokens[spot])
        assert_agrees(" ".join(tokens))
    assert parsed == PROGRAMS
