"""Recursive-descent parser for the MiniDroid dialect.

Grammar (EBNF, simplified):

    program     ::= class_decl*
    class_decl  ::= annotation* ("class" | "interface") IDENT
                    ("extends" IDENT)? ("implements" IDENT ("," IDENT)*)?
                    "{" member* "}"
    member      ::= annotation* modifier* (field | method | constructor)
    field       ::= type IDENT ("=" expr)? ";"
    method      ::= type IDENT "(" params? ")" (block | ";")
    constructor ::= IDENT "(" params? ")" block          -- IDENT = class name
    stmt        ::= var_decl | if | while | return | throw
                  | synchronized | block | expr ";"
    expr        ::= binary ("=" expr)?       -- lhs a variable or field
    binary      ::= unary (binop unary)*     -- precedence climbing over
                                                _BINARY_POWER, all left-assoc
    unary       ::= ("!" | "-") unary | postfix
    postfix     ::= primary ("." IDENT ("(" args? ")")?)*
    primary     ::= "new" IDENT "(" args? ")" anon_body?
                  | "(" expr ")" | "this" | "super" "." IDENT "(" args? ")"
                  | literal | IDENT ("(" args? ")")?

Modifiers ``public``/``private``/``protected``/``final`` and annotations are
accepted and ignored (``final`` on locals is recorded for capture checking).
"""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import TYPE_KEYWORDS, Token, TokenType

_MODIFIERS = {
    TokenType.PUBLIC,
    TokenType.PRIVATE,
    TokenType.PROTECTED,
    TokenType.STATIC,
    TokenType.SYNCHRONIZED,
    TokenType.FINAL,
}

#: Binding power of each binary operator; a higher power binds tighter.
_BINARY_POWER = {
    TokenType.OR: 1,
    TokenType.AND: 2,
    TokenType.EQ: 3, TokenType.NE: 3,
    TokenType.LT: 4, TokenType.LE: 4, TokenType.GT: 4, TokenType.GE: 4,
    TokenType.PLUS: 5, TokenType.MINUS: 5,
    TokenType.STAR: 6, TokenType.SLASH: 6, TokenType.PERCENT: 6,
}

#: Hard bound on the depth of the AST.  Parsing and lowering both recurse
#: over it, so without a limit a pathological input (thousands of nested
#: parentheses, blocks, or chained operators) escalates into Python's
#: ``RecursionError`` -- an analyzer crash instead of a diagnostic.  Real
#: MiniDroid sources nest a handful of levels; 64 is far above anything
#: legitimate while staying well inside the interpreter's stack.
MAX_NESTING_DEPTH = 64

#: How far past the current token the parser looks: ``_looks_like_var_decl``
#: reads ``final type name =``.  The token list carries this many extra EOF
#: tokens, so no lookahead needs a bounds check.
_LOOKAHEAD = 3

# The token types the parser tests, as module globals.  It tests one or
# more per token, and loading ``TokenType.X`` is several times slower than
# loading a global (``EnumType`` defines ``__getattr__``, which puts every
# class attribute load on a slow path).
_T = TokenType
IDENT, INT_LITERAL, STRING_LITERAL = _T.IDENT, _T.INT_LITERAL, _T.STRING_LITERAL
LBRACE, RBRACE, LPAREN, RPAREN = _T.LBRACE, _T.RBRACE, _T.LPAREN, _T.RPAREN
SEMI, COMMA, DOT, AT, ASSIGN, EOF = (_T.SEMI, _T.COMMA, _T.DOT, _T.AT,
                                     _T.ASSIGN, _T.EOF)
CLASS, INTERFACE, EXTENDS, IMPLEMENTS = (_T.CLASS, _T.INTERFACE, _T.EXTENDS,
                                         _T.IMPLEMENTS)
STATIC, SYNCHRONIZED, FINAL = _T.STATIC, _T.SYNCHRONIZED, _T.FINAL
IF, ELSE, WHILE, RETURN, THROW = _T.IF, _T.ELSE, _T.WHILE, _T.RETURN, _T.THROW
NEW, THIS, SUPER, NULL, TRUE, FALSE = (_T.NEW, _T.THIS, _T.SUPER, _T.NULL,
                                       _T.TRUE, _T.FALSE)
NOT, MINUS = _T.NOT, _T.MINUS


class Parser:
    """Parse one MiniDroid source file into an AST :class:`~ast.Program`."""

    def __init__(self, source: str, filename: str = "<source>") -> None:
        tokens = tokenize(source, filename)
        tokens += tokens[-1:] * _LOOKAHEAD
        self.tokens = tokens
        self.types = [token.type for token in tokens]
        self.filename = filename
        self.index = 0
        self._depth = 0

    # -- token helpers ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.index + offset]

    def _at(self, ttype: TokenType, offset: int = 0) -> bool:
        return self.types[self.index + offset] is ttype

    def _advance(self) -> Token:
        index = self.index
        if self.types[index] is not EOF:
            self.index = index + 1
        return self.tokens[index]

    def _match(self, ttype: TokenType) -> Optional[Token]:
        index = self.index
        if self.types[index] is ttype:
            self.index = index + 1
            return self.tokens[index]
        return None

    def _expect(self, ttype: TokenType, what: str = "") -> Token:
        index = self.index
        token = self.tokens[index]
        if self.types[index] is ttype:
            self.index = index + 1
            return token
        expected = what or ttype.name.lower()
        raise ParseError(
            f"expected {expected}, found {token.value!r}",
            token.line, token.column, self.filename,
        )

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column, self.filename)

    def _enter_nesting(self) -> None:
        """Count one level of AST nesting: a statement, a unary operand
        (so each parenthesis and prefix operator), an assignment
        right-hand side, or one binary or postfix fold.  Callers restore
        ``_depth`` in a ``finally``; a refused level is never counted.
        Every path by which parsing or lowering recurses passes through
        one of these, so the count bounds both."""
        if self._depth >= MAX_NESTING_DEPTH:
            raise self._error(
                f"nesting depth exceeds the MiniDroid limit of "
                f"{MAX_NESTING_DEPTH}"
            )
        self._depth += 1

    # -- types and modifiers -----------------------------------------------------

    def _at_type(self, offset: int = 0) -> bool:
        ttype = self.types[self.index + offset]
        return ttype is IDENT or ttype in TYPE_KEYWORDS

    def _parse_type_name(self) -> str:
        ttype = self.types[self.index]
        if ttype in TYPE_KEYWORDS:
            self._advance()
            return TYPE_KEYWORDS[ttype]
        return str(self._expect(IDENT, "a type name").value)

    def _skip_annotations(self) -> None:
        while self._match(AT):
            self._expect(IDENT, "an annotation name")
            if self._match(LPAREN):
                depth = 1
                while depth:
                    tok = self._advance()
                    if tok.type is LPAREN:
                        depth += 1
                    elif tok.type is RPAREN:
                        depth -= 1
                    elif tok.type is EOF:
                        raise self._error("unterminated annotation arguments")

    def _parse_modifiers(self) -> dict:
        mods = {"static": False, "synchronized": False, "final": False}
        while self.types[self.index] in _MODIFIERS:
            token = self._advance()
            if token.type is STATIC:
                mods["static"] = True
            elif token.type is SYNCHRONIZED:
                mods["synchronized"] = True
            elif token.type is FINAL:
                mods["final"] = True
        return mods

    # -- declarations ---------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        classes: List[ast.ClassDecl] = []
        while not self._at(EOF):
            classes.append(self._parse_class())
        return ast.Program(classes, self.filename)

    def _parse_class(self) -> ast.ClassDecl:
        self._skip_annotations()
        self._parse_modifiers()  # `public class` etc.
        is_interface = False
        if self._match(INTERFACE):
            is_interface = True
        else:
            self._expect(CLASS, "'class' or 'interface'")
        name_token = self._expect(IDENT, "a class name")
        super_name = None
        interfaces: List[str] = []
        if self._match(EXTENDS):
            super_name = str(self._expect(IDENT).value)
        if self._match(IMPLEMENTS):
            interfaces.append(str(self._expect(IDENT).value))
            while self._match(COMMA):
                interfaces.append(str(self._expect(IDENT).value))
        self._expect(LBRACE)
        members = self._parse_members(str(name_token.value))
        self._expect(RBRACE)
        return ast.ClassDecl(
            name=str(name_token.value),
            super_name=super_name,
            interfaces=interfaces,
            members=members,
            is_interface=is_interface,
            line=name_token.line,
        )

    def _parse_members(self, class_name: str) -> List[ast.MemberDecl]:
        members: List[ast.MemberDecl] = []
        while not self._at(RBRACE) and not self._at(EOF):
            members.append(self._parse_member(class_name))
        return members

    def _parse_member(self, class_name: str) -> ast.MemberDecl:
        self._skip_annotations()
        mods = self._parse_modifiers()
        start = self._peek()

        # Constructor: ClassName ( ... )
        if (
            self._at(IDENT)
            and str(start.value) == class_name
            and self._at(LPAREN, 1)
        ):
            self._advance()
            params = self._parse_params()
            body = self._parse_block()
            return ast.MethodDecl(
                return_type="void",
                name="<init>",
                params=params,
                body=body,
                is_static=False,
                is_synchronized=mods["synchronized"],
                is_constructor=True,
                line=start.line,
            )

        type_name = self._parse_type_name()
        name_token = self._expect(IDENT, "a member name")
        if self._at(LPAREN):
            params = self._parse_params()
            if self._match(SEMI):  # abstract/interface method
                body = ast.Block([], line=name_token.line)
            else:
                body = self._parse_block()
            return ast.MethodDecl(
                return_type=type_name,
                name=str(name_token.value),
                params=params,
                body=body,
                is_static=mods["static"],
                is_synchronized=mods["synchronized"],
                line=start.line,
            )

        init = None
        if self._match(ASSIGN):
            init = self._parse_expr()
        self._expect(SEMI)
        return ast.FieldDecl(
            type_name=type_name,
            name=str(name_token.value),
            init=init,
            is_static=mods["static"],
            line=start.line,
        )

    def _parse_params(self) -> List[ast.ParamDecl]:
        self._expect(LPAREN)
        params: List[ast.ParamDecl] = []
        if not self._at(RPAREN):
            while True:
                self._parse_modifiers()  # allow `final` on parameters
                type_name = self._parse_type_name()
                name = str(self._expect(IDENT, "a parameter name").value)
                params.append(ast.ParamDecl(type_name, name))
                if not self._match(COMMA):
                    break
        self._expect(RPAREN)
        return params

    # -- statements --------------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        lbrace = self._expect(LBRACE)
        statements: List[ast.Stmt] = []
        while not self._at(RBRACE) and not self._at(EOF):
            statements.append(self._parse_stmt())
        self._expect(RBRACE)
        return ast.Block(statements, line=lbrace.line)

    def _looks_like_var_decl(self) -> bool:
        """Lookahead: ``type name =`` / ``type name ;`` begins a declaration."""
        offset = 0
        if self._at(FINAL):
            offset = 1
        if not self._at_type(offset):
            return False
        if not self._at(IDENT, offset + 1):
            return False
        return self.types[self.index + offset + 2] in (ASSIGN, SEMI)

    def _parse_stmt(self) -> ast.Stmt:
        self._enter_nesting()
        try:
            return self._parse_stmt_inner()
        finally:
            self._depth -= 1

    def _parse_stmt_inner(self) -> ast.Stmt:
        token = self._peek()
        ttype = token.type
        if ttype is LBRACE:
            return self._parse_block()
        if ttype is IF:
            return self._parse_if()
        if ttype is WHILE:
            return self._parse_while()
        if ttype is RETURN:
            self._advance()
            value = None if self._at(SEMI) else self._parse_expr()
            self._expect(SEMI)
            return ast.ReturnStmt(value, line=token.line)
        if ttype is THROW:
            self._advance()
            self._expect(NEW)
            exc = str(self._expect(IDENT, "an exception class").value)
            self._expect(LPAREN)
            if self._at(STRING_LITERAL):
                self._advance()
            self._expect(RPAREN)
            self._expect(SEMI)
            return ast.ThrowStmt(exc, line=token.line)
        if ttype is SYNCHRONIZED:
            self._advance()
            self._expect(LPAREN)
            lock = self._parse_expr()
            self._expect(RPAREN)
            body = self._parse_block()
            return ast.SyncStmt(lock, body, line=token.line)
        if self._looks_like_var_decl():
            is_final = self._match(FINAL) is not None
            type_name = self._parse_type_name()
            name = str(self._expect(IDENT).value)
            init = None
            if self._match(ASSIGN):
                init = self._parse_expr()
            self._expect(SEMI)
            return ast.VarDecl(type_name, name, init, is_final, line=token.line)
        expr = self._parse_expr()
        self._expect(SEMI)
        return ast.ExprStmt(expr, line=token.line)

    def _parse_if(self) -> ast.Stmt:
        token = self._expect(IF)
        self._expect(LPAREN)
        cond = self._parse_expr()
        self._expect(RPAREN)
        then_branch = self._parse_stmt()
        else_branch = None
        if self._match(ELSE):
            else_branch = self._parse_stmt()
        return ast.IfStmt(cond, then_branch, else_branch, line=token.line)

    def _parse_while(self) -> ast.Stmt:
        token = self._expect(WHILE)
        self._expect(LPAREN)
        cond = self._parse_expr()
        self._expect(RPAREN)
        body = self._parse_stmt()
        return ast.WhileStmt(cond, body, line=token.line)

    # -- expressions ------------------------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        """An assignment (right-recursive) or a binary expression."""
        lhs = self._parse_binary(1)
        if not self._at(ASSIGN):
            return lhs
        token = self._advance()
        if not isinstance(lhs, (ast.Name, ast.FieldAccess)):
            raise ParseError(
                "left-hand side of '=' must be a variable or field",
                token.line, token.column, self.filename,
            )
        self._enter_nesting()
        try:
            rhs = self._parse_expr()
        finally:
            self._depth -= 1
        return ast.Assignment(lhs, rhs, line=token.line)

    def _parse_binary(self, min_power: int) -> ast.Expr:
        """Fold operators of at least ``min_power``; a right operand binds
        one power tighter, which makes every operator left-associative."""
        lhs = self._parse_unary()
        depth = self._depth
        try:
            while _BINARY_POWER.get(self.types[self.index], 0) >= min_power:
                token = self._advance()
                self._enter_nesting()
                rhs = self._parse_binary(_BINARY_POWER[token.type] + 1)
                lhs = ast.Binary(str(token.value), lhs, rhs, line=token.line)
        finally:
            self._depth = depth
        return lhs

    def _parse_unary(self) -> ast.Expr:
        self._enter_nesting()
        try:
            token = self._peek()
            if token.type in (NOT, MINUS):
                self._advance()
                operand = self._parse_unary()
                return ast.Unary(str(token.value), operand, line=token.line)
            return self._parse_postfix()
        finally:
            self._depth -= 1

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        depth = self._depth
        try:
            while self._at(DOT):
                dot = self._advance()
                self._enter_nesting()
                name = str(self._expect(IDENT, "a member name").value)
                if self._at(LPAREN):
                    args = self._parse_args()
                    expr = ast.Call(expr, name, args, line=dot.line)
                else:
                    expr = ast.FieldAccess(expr, name, line=dot.line)
        finally:
            self._depth = depth
        return expr

    def _parse_args(self) -> List[ast.Expr]:
        self._expect(LPAREN)
        args: List[ast.Expr] = []
        if not self._at(RPAREN):
            while True:
                args.append(self._parse_expr())
                if not self._match(COMMA):
                    break
        self._expect(RPAREN)
        return args

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        ttype = token.type
        if ttype is INT_LITERAL:
            self._advance()
            return ast.IntLit(int(token.value), line=token.line)
        if ttype is STRING_LITERAL:
            self._advance()
            return ast.StrLit(str(token.value), line=token.line)
        if ttype is TRUE:
            self._advance()
            return ast.BoolLit(True, line=token.line)
        if ttype is FALSE:
            self._advance()
            return ast.BoolLit(False, line=token.line)
        if ttype is NULL:
            self._advance()
            return ast.NullLit(line=token.line)
        if ttype is THIS:
            self._advance()
            return ast.ThisExpr(line=token.line)
        if ttype is SUPER:
            self._advance()
            self._expect(DOT)
            name = str(self._expect(IDENT).value)
            args = self._parse_args()
            return ast.SuperCall(name, args, line=token.line)
        if ttype is NEW:
            self._advance()
            class_name = str(self._expect(IDENT, "a class name").value)
            args = self._parse_args()
            body = None
            if self._at(LBRACE):
                self._expect(LBRACE)
                body = self._parse_members(class_name)
                self._expect(RBRACE)
            return ast.NewExpr(class_name, args, body, line=token.line)
        if ttype is LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(RPAREN)
            return expr
        if ttype is IDENT:
            self._advance()
            if self._at(LPAREN):
                args = self._parse_args()
                return ast.Call(None, str(token.value), args, line=token.line)
            return ast.Name(str(token.value), line=token.line)
        raise self._error(f"unexpected token {token.value!r} in expression")


def parse_program(source: str, filename: str = "<source>") -> ast.Program:
    """Parse MiniDroid source text into an AST program."""
    return Parser(source, filename).parse_program()
