"""The lexer against the character-at-a-time reference lexer.

``reference_lexer.py`` is the lexer the master-regex one replaced.  On
every corpus app, the generated apps of two seeds, an edge list and
seeded random strings, both must give the same ``(type, value, line,
column)`` tokens, or raise ``LexError`` with the same message, line and
column.  The one allowed divergence: where the reference crashes with a
bare ``ValueError`` (``int()`` of a non-decimal digit such as ``²``),
the lexer may report a ``LexError`` instead.
"""

import random

import pytest

import reference_lexer
from repro.corpus import all_apps
from repro.corpus.generator import GeneratorConfig, generate_corpus
from repro.lang import LexError, tokenize

VALUE_ERROR = ("ValueError",)

EDGE_CASES = [
    "", '"never closed', '"line\nbreak"', "/* never closed", "a /* x",
    r'"bad \q escape"', '"trailing \\', '"escaped newline \\\n"',
    r'"valid \n escape, then no close', r'"\t\x',
    r'"all \n\t\"\\\r\0 escapes"', "12x", "12L", "12Lx", "12l;", "12_",
    "12$", "12½", "$a", "my$var", "_", "café", "٣", "٣x", "½", "a½",
    "a²", "a ²", "1²", "²", "\xa0", "a\xa0b", "\f", "a\fb", "\tx\t\ty",
    "/***/", "/**/x", "/*/", "/*/ */y", "a//c\nb", "a//", "x/y", "\r\nz",
    "a\n\n  /* 1\n2 */ b", "==!=<=>=&&||{}();,.@=<>+-*/%!", "#", "&", "|",
    # trivia is a prefix of every token match, so: only trivia ...
    " ", "\n", " \t\n\r ", "// only", "/* only */", " /* a */ // b\n ",
    "/**/", "/*\n*/\n",
    # ... trivia between the last token and the end ...
    "a ", "a\n", "a // c", "a /* c */", "a\n\n\t", "a /* 1\n2 */\n",
    # ... comments glued to tokens ...
    "a/**/b", "/**/a/**/", "1/**/2", "x/**/=/**/y", "a//b", "//\nx",
    # ... line counts over CRLF and bare CR ...
    "a\r\nb\r\nc", "a\rb\rc", "a\r\n\r\n  b", "/* x\r\ny */ z",
    "a\r", "\r\n\r\n12x",
    # ... a token right after a multi-line block comment ...
    "/* a\nb\nc */x", "a /* 1\n2 */b /* 3\n*/ c", "/*\n*/\"s\"",
    # ... an unterminated block comment after whitespace ...
    "a \n  /* never", "\n\n   /*", "a\n/* x */ /* y",
    # ... and strings holding comment openers.
    '"a // b"', '"/* not a comment */" x', 'x = "//"; y', '"/*" /* c */ "*/"',
    '"//" /* "', 'a /* "x" */ "y"',
]

ALPHABET = ("a", "Z", "x", "L", "l", "n", "t", "_", "$", "0", "1", "9",
            '"', "\\", "/", "*", " ", "\n", "\t", "\r", "\f", "\xa0",
            "é", "٣", "½", "²", "=", "!", "<", "&", "|", "{", ";", ".",
            "#")


def outcome(lex, source):
    try:
        return [(t.type, t.value, t.line, t.column)
                for t in lex(source, "f.java")]
    except LexError as exc:
        return ("LexError", exc.message, exc.line, exc.column,
                exc.filename)
    except ValueError:
        return VALUE_ERROR


def assert_agrees(source):
    expected = outcome(reference_lexer.tokenize, source)
    actual = outcome(tokenize, source)
    if expected == VALUE_ERROR and actual != VALUE_ERROR:
        assert actual[0] == "LexError", source
    else:
        assert actual == expected, source


@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.name)
def test_registry_apps_lex_identically(app):
    assert_agrees(app.source())


@pytest.mark.parametrize("seed", [42, 1234])
def test_generated_apps_lex_identically(seed):
    for app in generate_corpus(GeneratorConfig(seed=seed, count=200)):
        assert_agrees(app.source)


@pytest.mark.parametrize("source", EDGE_CASES)
def test_edge_cases_lex_identically(source):
    assert_agrees(source)


def test_random_strings_lex_identically():
    rng = random.Random(15)
    for _ in range(2000):
        assert_agrees("".join(rng.choice(ALPHABET)
                              for _ in range(rng.randint(0, 24))))
