"""Token definitions for the MiniDroid lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple, Union


class TokenType(Enum):
    # Members are singletons compared by identity, so identity is a valid
    # hash; ``Enum``'s own ``__hash__`` is a Python call per dict or set
    # lookup, and the parser makes one or more such lookups per token.
    __hash__ = object.__hash__

    # literals and identifiers
    IDENT = auto()
    INT_LITERAL = auto()
    STRING_LITERAL = auto()

    # keywords
    CLASS = auto()
    INTERFACE = auto()
    EXTENDS = auto()
    IMPLEMENTS = auto()
    STATIC = auto()
    SYNCHRONIZED = auto()
    FINAL = auto()
    PUBLIC = auto()
    PRIVATE = auto()
    PROTECTED = auto()
    VOID = auto()
    INT = auto()
    LONG = auto()
    BOOLEAN = auto()
    IF = auto()
    ELSE = auto()
    WHILE = auto()
    RETURN = auto()
    NEW = auto()
    THIS = auto()
    SUPER = auto()
    NULL = auto()
    TRUE = auto()
    FALSE = auto()
    THROW = auto()

    # punctuation
    LBRACE = auto()
    RBRACE = auto()
    LPAREN = auto()
    RPAREN = auto()
    SEMI = auto()
    COMMA = auto()
    DOT = auto()
    AT = auto()

    # operators
    ASSIGN = auto()
    EQ = auto()
    NE = auto()
    LT = auto()
    LE = auto()
    GT = auto()
    GE = auto()
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    AND = auto()
    OR = auto()
    NOT = auto()

    EOF = auto()


KEYWORDS = {
    "class": TokenType.CLASS,
    "interface": TokenType.INTERFACE,
    "extends": TokenType.EXTENDS,
    "implements": TokenType.IMPLEMENTS,
    "static": TokenType.STATIC,
    "synchronized": TokenType.SYNCHRONIZED,
    "final": TokenType.FINAL,
    "public": TokenType.PUBLIC,
    "private": TokenType.PRIVATE,
    "protected": TokenType.PROTECTED,
    "void": TokenType.VOID,
    "int": TokenType.INT,
    "long": TokenType.LONG,
    "boolean": TokenType.BOOLEAN,
    "if": TokenType.IF,
    "else": TokenType.ELSE,
    "while": TokenType.WHILE,
    "return": TokenType.RETURN,
    "new": TokenType.NEW,
    "this": TokenType.THIS,
    "super": TokenType.SUPER,
    "null": TokenType.NULL,
    "true": TokenType.TRUE,
    "false": TokenType.FALSE,
    "throw": TokenType.THROW,
}

# Single- and double-character punctuation, longest match first.
PUNCTUATION = [
    ("==", TokenType.EQ),
    ("!=", TokenType.NE),
    ("<=", TokenType.LE),
    (">=", TokenType.GE),
    ("&&", TokenType.AND),
    ("||", TokenType.OR),
    ("{", TokenType.LBRACE),
    ("}", TokenType.RBRACE),
    ("(", TokenType.LPAREN),
    (")", TokenType.RPAREN),
    (";", TokenType.SEMI),
    (",", TokenType.COMMA),
    (".", TokenType.DOT),
    ("@", TokenType.AT),
    ("=", TokenType.ASSIGN),
    ("<", TokenType.LT),
    (">", TokenType.GT),
    ("+", TokenType.PLUS),
    ("-", TokenType.MINUS),
    ("*", TokenType.STAR),
    ("/", TokenType.SLASH),
    ("%", TokenType.PERCENT),
    ("!", TokenType.NOT),
]

TYPE_KEYWORDS = {
    TokenType.VOID: "void",
    TokenType.INT: "int",
    TokenType.LONG: "long",
    TokenType.BOOLEAN: "boolean",
}


class Token(NamedTuple):
    """One lexeme.  A tuple, so it is immutable, hashable and equal by
    value, and the lexer builds each one with a single C call."""

    type: TokenType
    value: Union[str, int]
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.type.name}({self.value!r})@{self.line}:{self.column}"
