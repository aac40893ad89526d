"""Master-regex lexer for the MiniDroid dialect.

Supports line (``//``) and block (``/* */``) comments, decimal integers,
double-quoted strings with the common escapes, identifiers and the keyword
and punctuation tables in :mod:`repro.lang.tokens`.

One compiled alternation matches the next lexeme; its group name says
what it is.  Newlines can only occur in trivia (whitespace and comments),
so those are the only matches that advance the line counter; a token's
column is its offset from the start of its line.
"""

from __future__ import annotations

import re
from typing import List

from .errors import LexError
from .tokens import KEYWORDS, PUNCTUATION, Token, TokenType

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r", "0": "\0"}
_ESCAPE = re.compile(r"\\(.)")
_PUNCT = dict(PUNCTUATION)

# Identifiers start with a letter, ``_`` or ``$`` and continue with
# letters, digits (anything ``str.isalnum`` accepts), ``_`` or ``$``.
# ``[^\W\d]`` is a superset of the first character's class: numeric
# characters that are not letters (``½``, ``²``) are rejected after the
# match.  ``\d`` is exactly what ``int()`` accepts.  A string literal
# that does not match ends at an unknown escape or is unterminated.
_STRING_BODY = r'[^"\\\n]*(?:\\[nt"\\r0][^"\\\n]*)*'
_TOKEN = re.compile("|".join([
    r"(?P<trivia>[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)",
    r"(?P<word>[^\W\d][\w$]*|\$[\w$]*)",
    r"(?P<open_comment>/\*)",
    "(?P<punct>" + "|".join(re.escape(text) for text, _ in PUNCTUATION) + ")",
    r"(?P<number>\d+[lL]?)",
    f'(?P<string>"{_STRING_BODY}")',
    f'(?P<bad_escape>"{_STRING_BODY}' + r'\\(?![nt"\\r0]))',
    r'(?P<open_string>")',
    r"(?P<other>(?s:.))",
]))


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
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        start = match.start()
        text = match.group()
        if kind == "trivia":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        column = start - line_start + 1
        if kind == "word":
            first = text[0]
            if first.isalpha() or first in "_$":
                append(Token(KEYWORDS.get(text, TokenType.IDENT), text,
                             line, column))
                continue
            if first.isdigit():
                raise _number_error(source, start, line, column, filename)
        elif kind == "punct":
            append(Token(_PUNCT[text], text, line, column))
            continue
        elif kind == "number":
            after = source[match.end():match.end() + 1]
            if text[-1] in "lL" or not (after.isalpha() or after.isdigit()):
                append(Token(TokenType.INT_LITERAL, int(text.rstrip("lL")),
                             line, column))
                continue
            raise _number_error(source, start, line, column, filename)
        elif kind == "string":
            value = text[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(lambda m: _ESCAPES[m.group(1)], value)
            append(Token(TokenType.STRING_LITERAL, value, line, column))
            continue
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
    append(Token(TokenType.EOF, "", line, len(source) - line_start + 1))
    return tokens

