"""MiniDroid frontend: lexer, parser and AST.

MiniDroid is the Java-like dialect in which corpus applications are
written.  It supports classes, interfaces, single inheritance, fields with
initializers, constructors, anonymous inner classes with final-local
capture, ``synchronized`` blocks, and the control flow needed by real
Android code (if/else, while, early returns, throw).
"""

from . import ast
from .errors import LexError, LoweringError, ParseError, SourceError
from .lexer import tokenize
from .parser import Parser, parse_program

__all__ = [
    "ast",
    "LexError",
    "LoweringError",
    "ParseError",
    "Parser",
    "parse_program",
    "SourceError",
    "tokenize",
]
