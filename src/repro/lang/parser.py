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


class Parser:
    """Parse one MiniDroid source file into an AST :class:`~ast.Program`."""

    def __init__(self, source: str, filename: str = "<source>") -> None:
        self.tokens = tokenize(source, filename)
        self.filename = filename
        self.index = 0
        self._depth = 0

    # -- token helpers ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _at(self, ttype: TokenType, offset: int = 0) -> bool:
        return self._peek(offset).type is ttype

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def _match(self, ttype: TokenType) -> Optional[Token]:
        if self._at(ttype):
            return self._advance()
        return None

    def _expect(self, ttype: TokenType, what: str = "") -> Token:
        if self._at(ttype):
            return self._advance()
        token = self._peek()
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
        return self._peek(offset).type in TYPE_KEYWORDS or self._at(
            TokenType.IDENT, offset
        )

    def _parse_type_name(self) -> str:
        token = self._peek()
        if token.type in TYPE_KEYWORDS:
            self._advance()
            return TYPE_KEYWORDS[token.type]
        return str(self._expect(TokenType.IDENT, "a type name").value)

    def _skip_annotations(self) -> None:
        while self._match(TokenType.AT):
            self._expect(TokenType.IDENT, "an annotation name")
            if self._match(TokenType.LPAREN):
                depth = 1
                while depth:
                    tok = self._advance()
                    if tok.type is TokenType.LPAREN:
                        depth += 1
                    elif tok.type is TokenType.RPAREN:
                        depth -= 1
                    elif tok.type is TokenType.EOF:
                        raise self._error("unterminated annotation arguments")

    def _parse_modifiers(self) -> dict:
        mods = {"static": False, "synchronized": False, "final": False}
        while self._peek().type in _MODIFIERS:
            token = self._advance()
            if token.type is TokenType.STATIC:
                mods["static"] = True
            elif token.type is TokenType.SYNCHRONIZED:
                mods["synchronized"] = True
            elif token.type is TokenType.FINAL:
                mods["final"] = True
        return mods

    # -- declarations ---------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        classes: List[ast.ClassDecl] = []
        while not self._at(TokenType.EOF):
            classes.append(self._parse_class())
        return ast.Program(classes, self.filename)

    def _parse_class(self) -> ast.ClassDecl:
        self._skip_annotations()
        self._parse_modifiers()  # `public class` etc.
        is_interface = False
        if self._match(TokenType.INTERFACE):
            is_interface = True
        else:
            self._expect(TokenType.CLASS, "'class' or 'interface'")
        name_token = self._expect(TokenType.IDENT, "a class name")
        super_name = None
        interfaces: List[str] = []
        if self._match(TokenType.EXTENDS):
            super_name = str(self._expect(TokenType.IDENT).value)
        if self._match(TokenType.IMPLEMENTS):
            interfaces.append(str(self._expect(TokenType.IDENT).value))
            while self._match(TokenType.COMMA):
                interfaces.append(str(self._expect(TokenType.IDENT).value))
        self._expect(TokenType.LBRACE)
        members = self._parse_members(str(name_token.value))
        self._expect(TokenType.RBRACE)
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
        while not self._at(TokenType.RBRACE) and not self._at(TokenType.EOF):
            members.append(self._parse_member(class_name))
        return members

    def _parse_member(self, class_name: str) -> ast.MemberDecl:
        self._skip_annotations()
        mods = self._parse_modifiers()
        start = self._peek()

        # Constructor: ClassName ( ... )
        if (
            self._at(TokenType.IDENT)
            and str(start.value) == class_name
            and self._at(TokenType.LPAREN, 1)
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
        name_token = self._expect(TokenType.IDENT, "a member name")
        if self._at(TokenType.LPAREN):
            params = self._parse_params()
            if self._match(TokenType.SEMI):  # abstract/interface method
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
        if self._match(TokenType.ASSIGN):
            init = self._parse_expr()
        self._expect(TokenType.SEMI)
        return ast.FieldDecl(
            type_name=type_name,
            name=str(name_token.value),
            init=init,
            is_static=mods["static"],
            line=start.line,
        )

    def _parse_params(self) -> List[ast.ParamDecl]:
        self._expect(TokenType.LPAREN)
        params: List[ast.ParamDecl] = []
        if not self._at(TokenType.RPAREN):
            while True:
                self._parse_modifiers()  # allow `final` on parameters
                type_name = self._parse_type_name()
                name = str(self._expect(TokenType.IDENT, "a parameter name").value)
                params.append(ast.ParamDecl(type_name, name))
                if not self._match(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN)
        return params

    # -- statements --------------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        lbrace = self._expect(TokenType.LBRACE)
        statements: List[ast.Stmt] = []
        while not self._at(TokenType.RBRACE) and not self._at(TokenType.EOF):
            statements.append(self._parse_stmt())
        self._expect(TokenType.RBRACE)
        return ast.Block(statements, line=lbrace.line)

    def _looks_like_var_decl(self) -> bool:
        """Lookahead: ``type name =`` / ``type name ;`` begins a declaration."""
        offset = 0
        if self._at(TokenType.FINAL):
            offset = 1
        if not self._at_type(offset):
            return False
        if not self._at(TokenType.IDENT, offset + 1):
            return False
        return self._peek(offset + 2).type in (TokenType.ASSIGN, TokenType.SEMI)

    def _parse_stmt(self) -> ast.Stmt:
        self._enter_nesting()
        try:
            return self._parse_stmt_inner()
        finally:
            self._depth -= 1

    def _parse_stmt_inner(self) -> ast.Stmt:
        token = self._peek()
        if token.type is TokenType.LBRACE:
            return self._parse_block()
        if token.type is TokenType.IF:
            return self._parse_if()
        if token.type is TokenType.WHILE:
            return self._parse_while()
        if token.type is TokenType.RETURN:
            self._advance()
            value = None if self._at(TokenType.SEMI) else self._parse_expr()
            self._expect(TokenType.SEMI)
            return ast.ReturnStmt(value, line=token.line)
        if token.type is TokenType.THROW:
            self._advance()
            self._expect(TokenType.NEW)
            exc = str(self._expect(TokenType.IDENT, "an exception class").value)
            self._expect(TokenType.LPAREN)
            if self._at(TokenType.STRING_LITERAL):
                self._advance()
            self._expect(TokenType.RPAREN)
            self._expect(TokenType.SEMI)
            return ast.ThrowStmt(exc, line=token.line)
        if token.type is TokenType.SYNCHRONIZED:
            self._advance()
            self._expect(TokenType.LPAREN)
            lock = self._parse_expr()
            self._expect(TokenType.RPAREN)
            body = self._parse_block()
            return ast.SyncStmt(lock, body, line=token.line)
        if self._looks_like_var_decl():
            is_final = self._match(TokenType.FINAL) is not None
            type_name = self._parse_type_name()
            name = str(self._expect(TokenType.IDENT).value)
            init = None
            if self._match(TokenType.ASSIGN):
                init = self._parse_expr()
            self._expect(TokenType.SEMI)
            return ast.VarDecl(type_name, name, init, is_final, line=token.line)
        expr = self._parse_expr()
        self._expect(TokenType.SEMI)
        return ast.ExprStmt(expr, line=token.line)

    def _parse_if(self) -> ast.Stmt:
        token = self._expect(TokenType.IF)
        self._expect(TokenType.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenType.RPAREN)
        then_branch = self._parse_stmt()
        else_branch = None
        if self._match(TokenType.ELSE):
            else_branch = self._parse_stmt()
        return ast.IfStmt(cond, then_branch, else_branch, line=token.line)

    def _parse_while(self) -> ast.Stmt:
        token = self._expect(TokenType.WHILE)
        self._expect(TokenType.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenType.RPAREN)
        body = self._parse_stmt()
        return ast.WhileStmt(cond, body, line=token.line)

    # -- expressions ------------------------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        """An assignment (right-recursive) or a binary expression."""
        lhs = self._parse_binary(1)
        if not self._at(TokenType.ASSIGN):
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
            while _BINARY_POWER.get(self._peek().type, 0) >= min_power:
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
            if token.type in (TokenType.NOT, TokenType.MINUS):
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
            while self._at(TokenType.DOT):
                dot = self._advance()
                self._enter_nesting()
                name = str(self._expect(TokenType.IDENT, "a member name").value)
                if self._at(TokenType.LPAREN):
                    args = self._parse_args()
                    expr = ast.Call(expr, name, args, line=dot.line)
                else:
                    expr = ast.FieldAccess(expr, name, line=dot.line)
        finally:
            self._depth = depth
        return expr

    def _parse_args(self) -> List[ast.Expr]:
        self._expect(TokenType.LPAREN)
        args: List[ast.Expr] = []
        if not self._at(TokenType.RPAREN):
            while True:
                args.append(self._parse_expr())
                if not self._match(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN)
        return args

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.INT_LITERAL:
            self._advance()
            return ast.IntLit(int(token.value), line=token.line)
        if token.type is TokenType.STRING_LITERAL:
            self._advance()
            return ast.StrLit(str(token.value), line=token.line)
        if token.type is TokenType.TRUE:
            self._advance()
            return ast.BoolLit(True, line=token.line)
        if token.type is TokenType.FALSE:
            self._advance()
            return ast.BoolLit(False, line=token.line)
        if token.type is TokenType.NULL:
            self._advance()
            return ast.NullLit(line=token.line)
        if token.type is TokenType.THIS:
            self._advance()
            return ast.ThisExpr(line=token.line)
        if token.type is TokenType.SUPER:
            self._advance()
            self._expect(TokenType.DOT)
            name = str(self._expect(TokenType.IDENT).value)
            args = self._parse_args()
            return ast.SuperCall(name, args, line=token.line)
        if token.type is TokenType.NEW:
            self._advance()
            class_name = str(self._expect(TokenType.IDENT, "a class name").value)
            args = self._parse_args()
            body = None
            if self._at(TokenType.LBRACE):
                self._expect(TokenType.LBRACE)
                body = self._parse_members(class_name)
                self._expect(TokenType.RBRACE)
            return ast.NewExpr(class_name, args, body, line=token.line)
        if token.type is TokenType.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenType.RPAREN)
            return expr
        if token.type is TokenType.IDENT:
            self._advance()
            if self._at(TokenType.LPAREN):
                args = self._parse_args()
                return ast.Call(None, str(token.value), args, line=token.line)
            return ast.Name(str(token.value), line=token.line)
        raise self._error(f"unexpected token {token.value!r} in expression")


def parse_program(source: str, filename: str = "<source>") -> ast.Program:
    """Parse MiniDroid source text into an AST program."""
    return Parser(source, filename).parse_program()
