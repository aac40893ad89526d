"""Lexer unit tests."""

import pytest

from repro.lang import LexError, tokenize
from repro.lang.tokens import TokenType


def types(source):
    return [t.type for t in tokenize(source)]


def test_empty_source_yields_only_eof():
    assert types("") == [TokenType.EOF]


def test_keywords_and_identifiers():
    toks = tokenize("class Foo extends Bar")
    assert [t.type for t in toks[:-1]] == [
        TokenType.CLASS, TokenType.IDENT, TokenType.EXTENDS, TokenType.IDENT,
    ]
    assert toks[1].value == "Foo"
    assert toks[3].value == "Bar"


def test_int_literal_value():
    toks = tokenize("42 0 123456")
    assert [t.value for t in toks[:-1]] == [42, 0, 123456]


def test_long_suffix_is_accepted():
    toks = tokenize("100L")
    assert toks[0].type is TokenType.INT_LITERAL
    assert toks[0].value == 100


def test_string_literal_with_escapes():
    toks = tokenize(r'"hello\n\"world\""')
    assert toks[0].type is TokenType.STRING_LITERAL
    assert toks[0].value == 'hello\n"world"'


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('"oops')


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_line_comment_skipped():
    assert types("a // comment here\n b") == [
        TokenType.IDENT, TokenType.IDENT, TokenType.EOF,
    ]


def test_block_comment_skipped_and_lines_counted():
    toks = tokenize("a /* multi\nline */ b")
    assert toks[1].line == 2


def test_two_char_operators_win_over_one_char():
    assert types("== = <= < && !") == [
        TokenType.EQ, TokenType.ASSIGN, TokenType.LE, TokenType.LT,
        TokenType.AND, TokenType.NOT, TokenType.EOF,
    ]


def test_dollar_and_underscore_in_identifiers():
    toks = tokenize("$outer _private my$var")
    assert [t.value for t in toks[:-1]] == ["$outer", "_private", "my$var"]


def test_positions_are_tracked():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[1].line, toks[1].column) == (2, 3)


def test_unknown_character_raises():
    with pytest.raises(LexError):
        tokenize("a # b")


def test_annotation_token():
    assert types("@Override")[:1] == [TokenType.AT]


@pytest.mark.parametrize("source, column", [
    ("a ²", 3), ("1²", 2), ("12²3", 3), ("x = ²;", 5),
])
def test_non_decimal_digit_is_a_lex_error(source, column):
    # ``str.isdigit`` accepts ``²`` but ``int()`` does not: the character
    # is reported where it stands instead of crashing with ValueError
    with pytest.raises(LexError) as excinfo:
        tokenize("\n" + source, "f.mjava")
    assert (excinfo.value.line, excinfo.value.column) == (2, column)
    assert excinfo.value.message == "unexpected character '²'"


def test_decimal_digits_of_any_script_are_numbers():
    toks = tokenize("٣٤ 7L")
    assert [(t.type, t.value) for t in toks[:-1]] == [
        (TokenType.INT_LITERAL, 34), (TokenType.INT_LITERAL, 7),
    ]


def test_error_positions_follow_newlines_in_comments_and_whitespace():
    with pytest.raises(LexError) as excinfo:
        tokenize("a /* 1\n 2 */ b\n\t  12x")
    assert (excinfo.value.line, excinfo.value.column) == (3, 6)
    assert excinfo.value.message == "malformed number near '12'"
