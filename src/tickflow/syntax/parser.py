"""Recursive-descent parser.

Grammar sketch (see docs/language.md for the full version):

    stmt     := seq ("||" seq)*
    seq      := item (";" item)* [";"]
    item     := declaration | labeled
    labeled  := NAME ":" labeled | primary
    primary  := "nothing" | "pause" | "emit" NAME
              | "?" NAME "=" assigned | NAME "=" assigned
              | "abort"/"suspend" "(" ["immediate"] expr ")" labeled
              | "if" "(" expr ")" [labeled] ["else" labeled]
              | "loop" labeled
              | "do" "{" ode ("||" ode)* "}" "until" "(" expr ")"
              | "{" stmt "}"

`;` binds tighter than `||`, so `a || b; c` is the parallel composition of
`a` with the sequence `b; c`. Inside parentheses `||` is boolean or; at
statement level it is parallel composition. A declaration scopes over the
remainder of its block: the parser nests the rest of the block into the
declaration's body, and refuses a name declared twice in a block, which
braces, leaving no node, alone tell from a nested block's redeclaration.

Expressions climb `nodes.BINARY`, one level of it per `parse_expr` level.
An `assigned` expression, a right-hand side, initializer, default or rate,
starts at its `ASSIGNED` level, the comparisons, so `||` after one always
means composition; use parentheses for boolean operators there.
"""

from __future__ import annotations

from typing import Optional

from ..errors import NestingError, ParseError, ResolveError
from ..rational import parse_number
from ..struct import Struct
from .lexer import Token, lex
from .nodes import (
    ASSIGNED,
    BINARY,
    COMPARISONS,
    Abort,
    Binary,
    BoolLit,
    ContAssign,
    ContDecl,
    DoUntil,
    Emit,
    Expr,
    If,
    Label,
    Loop,
    NameRef,
    Nothing,
    NumLit,
    ParamDecl,
    Parallel,
    Pause,
    Program,
    Seq,
    SignalDecl,
    Stmt,
    Suspend,
    TtlCall,
    Unary,
    ValueRef,
    ValueWrite,
)

_TYPE_KEYWORDS = {"ratio", "int", "boolean"}

_UNARY = len(BINARY)  # the level past `BINARY`'s tightest: `!` and `-`

_STMT_STARTERS = {
    "nothing",
    "pause",
    "emit",
    "abort",
    "suspend",
    "if",
    "loop",
    "do",
    "input",
    "output",
    "signal",
    "cont",
    "param",
    "ratio",
    "int",
    "boolean",
}


class _DeclSpec(Struct):
    """One declarator of a (possibly multi-name) declaration."""

    kind: str  # 'signal' | 'cont' | 'param'
    direction: Optional[str]
    stype: Optional[str]
    name: str
    combine: Optional[str]
    init: Optional[Expr]
    pos: tuple

    def build(self, body: Stmt) -> Stmt:
        if self.kind == "signal":
            return SignalDecl(
                self.direction, self.stype, self.name, self.combine, self.init,
                body, pos=self.pos,
            )
        if self.kind == "cont":
            return ContDecl(self.name, self.combine, self.init, body, pos=self.pos)
        return ParamDecl(self.name, self.init, body, pos=self.pos)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    # -- token helpers --

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def at(self, text: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok.kind in ("punct", "keyword") and tok.text == text

    def at_name(self) -> bool:
        return self.peek().kind == "name"

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        if not self.at(text):
            tok = self.peek()
            found = tok.text or "end of input"
            raise ParseError(f"expected {text!r}, found {found!r}", tok.line, tok.col)
        return self.take()

    def expect_name(self) -> Token:
        if not self.at_name():
            tok = self.peek()
            found = tok.text or "end of input"
            raise ParseError(f"expected a name, found {found!r}", tok.line, tok.col)
        return self.take()

    def pos(self) -> tuple:
        tok = self.peek()
        return (tok.line, tok.col)

    # -- statements --

    def parse_program(self) -> Stmt:
        stmt = self.parse_stmt()
        if self.peek().kind != "eof":
            tok = self.peek()
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return stmt

    def parse_stmt(self) -> Stmt:
        seqs = [self.parse_seq_items()]
        while self.at("||"):
            self.take()
            seqs.append(self.parse_seq_items())
        if len(seqs) == 1:
            return _assemble(seqs[0])
        # declarations leading the first operand scope over the whole
        # composition (the listings declare shared signals this way)
        first = seqs[0]
        split = 0
        while split < len(first) and isinstance(first[split], list):
            split += 1
        lead, rest = first[:split], first[split:]
        branches = [_assemble(rest) if rest else Nothing()]
        branches += [_assemble(items) for items in seqs[1:]]
        body: Stmt = Parallel(tuple(branches), pos=None)
        for specs in reversed(lead):
            for spec in reversed(specs):
                body = spec.build(body)
        return body

    def parse_seq_items(self) -> list:
        items: list = [self.parse_item()]
        while self.at(";"):
            self.take()
            if self._at_stmt_start():
                items.append(self.parse_item())
            else:
                break  # trailing semicolon
        declared: set = set()  # one `||` operand's names: a nested block may redeclare them
        for spec in (spec for item in items if isinstance(item, list) for spec in item):
            if spec.name in declared:
                message = f"duplicate declaration of {spec.name!r} in this scope"
                raise ResolveError(message, *spec.pos)
            declared.add(spec.name)
        return items

    def _at_stmt_start(self) -> bool:
        tok = self.peek()
        if tok.kind == "name":
            return True
        if tok.kind == "keyword" and tok.text in _STMT_STARTERS:
            return True
        return tok.kind == "punct" and tok.text in ("{", "?")

    def parse_item(self):
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in (
            "input", "output", "signal", "cont", "param",
        ) or (tok.kind == "keyword" and tok.text in _TYPE_KEYWORDS and self.at("signal", 1)):
            return self.parse_declaration()
        return self.parse_labeled()

    def parse_declaration(self) -> list:
        pos = self.pos()
        direction = None
        if self.at("input") or self.at("output"):
            direction = self.take().text
        stype = None
        if self.peek().kind == "keyword" and self.peek().text in _TYPE_KEYWORDS:
            stype = self.take().text
        if self.at("signal"):
            self.take()
            return self._declarators("signal", direction, stype, pos)
        if direction is not None or stype is not None:
            tok = self.peek()
            raise ParseError("expected 'signal'", tok.line, tok.col)
        if self.at("cont"):
            self.take()
            return self._declarators("cont", None, None, pos)
        self.expect("param")
        name = self.expect_name().text
        init = None
        if self.at("="):
            self.take()
            init = self.parse_expr(ASSIGNED)
        return [_DeclSpec("param", None, None, name, None, init, pos)]

    def _declarators(self, kind, direction, stype, pos) -> list:
        specs = []
        while True:
            name = self.expect_name().text
            combine = None
            if self.at("op+") or self.at("op*"):
                combine = "plus" if self.take().text == "op+" else "times"
            init = None
            if self.at("="):
                self.take()
                init = self.parse_expr(ASSIGNED)
            specs.append(_DeclSpec(kind, direction, stype, name, combine, init, pos))
            if self.at(","):
                self.take()
                continue
            return specs

    def parse_labeled(self) -> Stmt:
        if self.at_name() and self.at(":", 1):
            pos = self.pos()
            name = self.take().text
            self.take()  # ':'
            return Label(name, self.parse_labeled(), pos=pos)
        return self.parse_primary()

    def parse_primary(self) -> Stmt:
        tok = self.peek()
        pos = (tok.line, tok.col)
        if self.at("nothing"):
            self.take()
            return Nothing(pos=pos)
        if self.at("pause"):
            self.take()
            return Pause(pos=pos)
        if self.at("emit"):
            self.take()
            return Emit(self.expect_name().text, pos=pos)
        if self.at("?"):
            self.take()
            name = self.expect_name().text
            self.expect("=")
            return ValueWrite(name, self.parse_expr(ASSIGNED), pos=pos)
        if self.at("abort") or self.at("suspend"):
            kw = self.take().text
            self.expect("(")
            immediate = False
            if self.at("immediate"):
                self.take()
                immediate = True
            guard = self.parse_expr()
            self.expect(")")
            body = self.parse_labeled()
            cls = Abort if kw == "abort" else Suspend
            return cls(immediate, guard, body, pos=pos)
        if self.at("if"):
            return self.parse_if(pos)
        if self.at("loop"):
            self.take()
            return Loop(self.parse_labeled(), pos=pos)
        if self.at("do"):
            return self.parse_do_until(pos)
        if self.at("{"):
            self.take()
            inner = self.parse_stmt()
            self.expect("}")
            return inner
        if self.at_name():
            name = self.take().text
            self.expect("=")
            return ContAssign(name, self.parse_expr(ASSIGNED), pos=pos)
        found = tok.text or "end of input"
        raise ParseError(f"expected a statement, found {found!r}", tok.line, tok.col)

    def parse_if(self, pos) -> Stmt:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        if self.at("else"):
            then: Stmt = Nothing()
        else:
            then = self.parse_labeled()
        orelse: Stmt = Nothing()
        # tolerate one ';' between the then-branch and 'else', as in listings
        if self.at(";") and self.at("else", 1):
            self.take()
        if self.at("else"):
            self.take()
            orelse = self.parse_labeled()
        return If(cond, then, orelse, pos=pos)

    def parse_do_until(self, pos) -> Stmt:
        self.expect("do")
        self.expect("{")
        odes = [self.parse_ode()]
        while self.at("||"):
            self.take()
            odes.append(self.parse_ode())
        self.expect("}")
        self.expect("until")
        self.expect("(")
        invariant = self.parse_expr()
        self.expect(")")
        return DoUntil(tuple(odes), invariant, pos=pos)

    def parse_ode(self):
        name = self.expect_name().text
        self.expect("'")
        self.expect("=")
        return (name, self.parse_expr(ASSIGNED))

    # -- expressions --

    def parse_expr(self, level: int = 0) -> Expr:
        """The expression whose operators are at `level` of `BINARY` or
        tighter; past the table's last level, a unary one. Each level is one
        frame, as the depth of text `parse_raw` reads is counted in frames."""
        if level == _UNARY:
            if not (self.at("!") or self.at("-")):
                return self.parse_atom()
            tok = self.take()
            operand = self.parse_expr(_UNARY)
            if tok.text == "-" and isinstance(operand, NumLit):
                return NumLit(-operand.value, pos=(tok.line, tok.col))
            return Unary(tok.text, operand, pos=(tok.line, tok.col))
        ops = BINARY[level]
        left = self.parse_expr(level + 1)
        while (tok := self.peek()).kind == "punct" and tok.text in ops:
            self.take()
            left = Binary(tok.text, left, self.parse_expr(level + 1), pos=(tok.line, tok.col))
            if ops is COMPARISONS:
                break
        return left

    def parse_atom(self) -> Expr:
        tok = self.peek()
        pos = (tok.line, tok.col)
        if tok.kind == "number":
            self.take()
            value = parse_number(tok.text)
            if self.at("/") and self.peek(1).kind == "number":
                self.take()
                den = self.take()
                divisor = parse_number(den.text)
                if divisor == 0:
                    text = f"{tok.text}/{den.text}"
                    raise ParseError(f"zero denominator in {text!r}", tok.line, tok.col)
                value = value / divisor
            return NumLit(value, pos=pos)
        if self.at("true"):
            self.take()
            return BoolLit(True, pos=pos)
        if self.at("false"):
            self.take()
            return BoolLit(False, pos=pos)
        if self.at("?"):
            self.take()
            return ValueRef(self.expect_name().text, pos=pos)
        if self.at("TTL"):
            return self.parse_ttl(pos)
        if self.at("("):
            self.take()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if self.at_name():
            return NameRef(self.take().text, pos=pos)
        found = tok.text or "end of input"
        raise ParseError(f"expected an expression, found {found!r}", tok.line, tok.col)

    def parse_ttl(self, pos) -> Expr:
        self.expect("TTL")
        self.expect("(")
        self.expect("[")
        odes = [self.parse_ode()]
        while self.at(","):
            self.take()
            odes.append(self.parse_ode())
        self.expect("]")
        self.expect(",")
        invariant = self.parse_expr()
        self.expect(",")
        self.expect("{")
        names = [self.expect_name().text]
        while self.at(","):
            self.take()
            names.append(self.expect_name().text)
        self.expect("}")
        self.expect(")")
        return TtlCall(tuple(odes), invariant, tuple(names), pos=pos)


def _assemble(items: list) -> Stmt:
    """Fold a list of parsed items right-to-left, nesting the remainder of
    the block into each declaration's body."""
    tail: list[Stmt] = []
    for item in reversed(items):
        if isinstance(item, list):  # declarator specs
            body = _seq_of(tail)
            for spec in reversed(item):
                body = spec.build(body)
            tail = [body]
        else:
            tail.insert(0, item)
    return _seq_of(tail)


def _seq_of(stmts: list[Stmt]) -> Stmt:
    if not stmts:
        return Nothing()
    if len(stmts) == 1:
        return stmts[0]
    return Seq(tuple(stmts))


def parse_raw(source: str) -> Program:
    """Parse without running the static checks. Mostly for internal use.
    Text nested past the interpreter's recursion limit is refused at the
    token the parser was reading."""
    parser = _Parser(lex(source))
    try:
        return Program(parser.parse_program())
    except RecursionError:
        tok = parser.peek()
        raise ParseError("nested too deep to parse", tok.line, tok.col) from None


def parse(source: str) -> Program:
    """Parse and validate source text into a Program.

    Raises LexError / ParseError on malformed text and the check errors
    from syntax.checks on invalid programs, NestingError on a deep one.
    """
    from . import checks

    program = parse_raw(source)
    try:
        checks.check_program(program)
    except RecursionError:
        raise NestingError("nested too deep to process") from None
    return program
