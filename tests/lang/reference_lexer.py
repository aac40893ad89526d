"""The character-at-a-time MiniDroid lexer, kept as a test oracle.

``repro.lang.lexer`` replaced it with one compiled master regex; the
differential test (``test_lexer_differential.py``) checks that the two
produce the same tokens and the same ``LexError`` diagnostics.  The code
below is the original, unchanged apart from its imports.

Supports line (``//``) and block (``/* */``) comments, decimal integers,
double-quoted strings with the common escapes, identifiers and the keyword
and punctuation tables in :mod:`repro.lang.tokens`.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.lang.errors import LexError
from repro.lang.tokens import KEYWORDS, PUNCTUATION, Token, TokenType

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r", "0": "\0"}


class Lexer:
    """Tokenize one MiniDroid source string."""

    def __init__(self, source: str, filename: str = "<source>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- character helpers ----------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.column, self.filename)

    # -- skipping ----------------------------------------------------------------

    def _skip_trivia(self) -> None:
        while True:
            ch = self._peek()
            if ch and ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.column
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if not self._peek():
                        raise LexError(
                            "unterminated block comment",
                            start_line, start_col, self.filename,
                        )
                    self._advance()
                self._advance(2)
            else:
                return

    # -- token producers -----------------------------------------------------------

    def _lex_string(self) -> Token:
        line, column = self.line, self.column
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise LexError("unterminated string literal", line, column, self.filename)
            if ch == '"':
                self._advance()
                return Token(TokenType.STRING_LITERAL, "".join(chars), line, column)
            if ch == "\\":
                esc = self._peek(1)
                if esc not in _ESCAPES:
                    raise self._error(f"unknown escape sequence \\{esc}")
                chars.append(_ESCAPES[esc])
                self._advance(2)
            else:
                chars.append(ch)
                self._advance()

    def _lex_number(self) -> Token:
        line, column = self.line, self.column
        digits: List[str] = []
        while self._peek().isdigit():
            digits.append(self._peek())
            self._advance()
        if self._peek().isalpha() and self._peek() not in "lL":
            raise self._error(f"malformed number near {''.join(digits)!r}")
        if self._peek() and self._peek() in "lL":  # long suffix, value kept as int
            self._advance()
        return Token(TokenType.INT_LITERAL, int("".join(digits)), line, column)

    def _lex_word(self) -> Token:
        line, column = self.line, self.column
        chars: List[str] = []
        while self._peek() and (self._peek().isalnum() or self._peek() in "_$"):
            chars.append(self._peek())
            self._advance()
        word = "".join(chars)
        ttype = KEYWORDS.get(word, TokenType.IDENT)
        return Token(ttype, word, line, column)

    def _lex_punct(self) -> Token:
        line, column = self.line, self.column
        for text, ttype in PUNCTUATION:
            if self.source.startswith(text, self.pos):
                self._advance(len(text))
                return Token(ttype, text, line, column)
        raise self._error(f"unexpected character {self._peek()!r}")

    # -- public API ----------------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        while True:
            self._skip_trivia()
            ch = self._peek()
            if not ch:
                yield Token(TokenType.EOF, "", self.line, self.column)
                return
            if ch == '"':
                yield self._lex_string()
            elif ch.isdigit():
                yield self._lex_number()
            elif ch.isalpha() or ch in "_$":
                yield self._lex_word()
            else:
                yield self._lex_punct()


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    """Tokenize a source string into a list ending with an EOF token."""
    return list(Lexer(source, filename).tokens())
