"""Master-regex lexer for the MiniDroid dialect.

Supports line (``//``) and block (``/* */``) comments, decimal integers,
double-quoted strings with the common escapes, identifiers and the keyword
and punctuation tables in :mod:`repro.lang.tokens`.

One compiled pattern matches the next token: a non-capturing run of
trivia (whitespace and comments), then an alternation whose group name
says what the token is, so every match is a token and the last one is
the end of the source.  A token on a later line than the one before it
finds its line by bisecting the offsets at which the source's lines
start; its column is its offset from the start of its line.
"""

from __future__ import annotations

import re
from bisect import bisect
from itertools import accumulate
from typing import List

from .errors import LexError
from .tokens import KEYWORDS, PUNCTUATION, Token, TokenType

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r", "0": "\0"}
_ESCAPE = re.compile(r"\\(.)")
_PUNCT = dict(PUNCTUATION)
# Loaded per token, so bound once: a ``TokenType`` class attribute load is
# slow (``EnumType`` defines ``__getattr__``).
_IDENT, _INT, _STRING, _EOF = (TokenType.IDENT, TokenType.INT_LITERAL,
                               TokenType.STRING_LITERAL, TokenType.EOF)
#: ``_new(Token, (type, value, line, column))`` builds a token in C,
#: skipping the Python-level ``__new__`` that ``NamedTuple`` generates.
_new = tuple.__new__

# Identifiers start with a letter, ``_`` or ``$`` and continue with
# letters, digits (anything ``str.isalnum`` accepts), ``_`` or ``$``.
# ``[^\W\d]`` is a superset of the first character's class: numeric
# characters that are not letters (``½``, ``²``) are rejected after the
# match.  ``\d`` is exactly what ``int()`` accepts.  A string literal
# that does not match ends at an unknown escape or is unterminated.
# Trivia is a greedy non-capturing prefix of every match.  The ``eof``
# alternative gives trailing trivia a match to belong to (without it the
# engine would backtrack into the trivia and take a blank or a comment's
# ``/`` as a token); ``finditer`` can follow that match with an empty
# one at the end, so the loop stops at the first ``eof``.
_STRING_BODY = r'[^"\\\n]*(?:\\[nt"\\r0][^"\\\n]*)*'
_TOKEN = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)*(?:" + "|".join([
    r"(?P<word>[^\W\d][\w$]*|\$[\w$]*)",
    r"(?P<open_comment>/\*)",
    "(?P<punct>" + "|".join(re.escape(text) for text, _ in PUNCTUATION) + ")",
    r"(?P<number>\d+[lL]?)",
    f'(?P<string>"{_STRING_BODY}")',
    f'(?P<bad_escape>"{_STRING_BODY}' + r'\\(?![nt"\\r0]))',
    r'(?P<open_string>")',
    r"(?P<other>(?s:.))",
    r"(?P<eof>\Z)",
]) + ")")


def _number_error(source: str, start: int, line: int, column: int,
                  filename: str) -> LexError:
    """Diagnose the digit run at ``start`` that the master regex could not
    take as a number: a letter follows it, or it holds a digit ``int()``
    rejects (``²``)."""
    end = start
    while end < len(source) and source[end].isdigit():
        end += 1
    after = source[end:end + 1]
    if after.isalpha() and after not in "lL":
        return LexError(f"malformed number near {source[start:end]!r}", line,
                        column + end - start, filename)
    bad = next(pos for pos in range(start, end)
               if not source[pos].isdecimal())
    return LexError(f"unexpected character {source[bad]!r}", line,
                    column + bad - start, filename)


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    """Tokenize a source string into a list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    # Offsets at which lines start; the last is past the end of the source.
    line_starts = [0, *accumulate(len(text) + 1
                                  for text in source.split("\n"))]
    line, line_start, next_start = 1, 0, line_starts[1]
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match[kind]
        start = match.start(kind)
        if start >= next_start:
            line = bisect(line_starts, start)
            line_start, next_start = line_starts[line - 1], line_starts[line]
        column = start - line_start + 1
        if kind == "word":
            first = text[0]
            if first.isalpha() or first in "_$":
                append(_new(Token, (KEYWORDS.get(text, _IDENT), text,
                                    line, column)))
                continue
            if first.isdigit():
                raise _number_error(source, start, line, column, filename)
        elif kind == "punct":
            append(_new(Token, (_PUNCT[text], text, line, column)))
            continue
        elif kind == "number":
            after = source[match.end():match.end() + 1]
            if text[-1] in "lL" or not (after.isalpha() or after.isdigit()):
                append(_new(Token, (_INT, int(text.rstrip("lL")), line,
                                    column)))
                continue
            raise _number_error(source, start, line, column, filename)
        elif kind == "string":
            value = text[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(lambda m: _ESCAPES[m.group(1)], value)
            append(_new(Token, (_STRING, value, line, column)))
            continue
        elif kind == "eof":
            append(_new(Token, (_EOF, "", line, column)))
            break
        elif kind == "open_comment":
            raise LexError("unterminated block comment", line, column,
                           filename)
        elif kind == "bad_escape":
            esc = source[match.end():match.end() + 1]
            raise LexError(f"unknown escape sequence \\{esc}", line,
                           column + len(text) - 1, filename)
        elif kind == "open_string":
            raise LexError("unterminated string literal", line, column,
                           filename)
        raise LexError(f"unexpected character {text[0]!r}", line, column,
                       filename)
    return tokens
