"""AST node definitions.

Nodes are frozen dataclasses so that structural equality is the default;
source positions are excluded from comparison so a program and its
re-parsed pretty-print compare equal. Declarations carry their body: a
declaration scopes over the remainder of the block it appears in, and the
parser nests the rest of the block inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

Pos = Optional[tuple]  # (line, col) or None


# --- expressions -----------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class NumLit(Expr):
    value: Fraction
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class NameRef(Expr):
    """Bare name: signal status, continuous variable, or named constant."""

    name: str
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class ValueRef(Expr):
    """`?name` — the value of a valued signal."""

    name: str
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # '!' or '-'
    operand: Expr
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # && || == != < <= > >= + - *
    left: Expr
    right: Expr
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class TtlCall(Expr):
    """Look-ahead intrinsic: TTL([v' = rate, ...], invariant, {v, ...}).

    Rates are already folded to rational constants. The combine operator
    for each variable is taken from its declaration at evaluation time.
    """

    odes: tuple  # tuple[(name, Fraction), ...]
    invariant: Expr
    vars: tuple  # tuple[str, ...]
    pos: Pos = field(default=None, compare=False)


# --- statements ------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Nothing(Stmt):
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class Pause(Stmt):
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class Emit(Stmt):
    name: str
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class ValueWrite(Stmt):
    """`?name = expr` — write the value of a valued signal."""

    name: str
    expr: Expr
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class ContAssign(Stmt):
    """`name = expr` — write a continuous variable."""

    name: str
    expr: Expr
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class Abort(Stmt):
    immediate: bool
    guard: Expr
    body: Stmt
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class Suspend(Stmt):
    immediate: bool
    guard: Expr
    body: Stmt
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    orelse: Stmt
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class SignalDecl(Stmt):
    """`[input|output] [type] signal name [op] [= init]; rest-of-block`."""

    direction: Optional[str]  # 'input' | 'output' | None
    stype: Optional[str]  # 'ratio' | 'int' | 'boolean' | None (pure)
    name: str
    combine: Optional[str]  # 'plus' | 'times' | None
    init: Optional[Expr]
    body: Stmt
    pos: Pos = field(default=None, compare=False)

    @property
    def pure(self) -> bool:
        return self.stype is None


@dataclass(frozen=True)
class ContDecl(Stmt):
    """`cont name [op] [= init]; rest-of-block`. Type is always ratio."""

    name: str
    combine: Optional[str]
    init: Optional[Expr]
    body: Stmt
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class ParamDecl(Stmt):
    """`param name [= default]; rest-of-block` — a named rational constant
    resolved before the rewrite pass."""

    name: str
    default: Optional[Expr]
    body: Stmt
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class Loop(Stmt):
    body: Stmt
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class Seq(Stmt):
    stmts: tuple  # tuple[Stmt, ...], length >= 2
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class Parallel(Stmt):
    branches: tuple  # tuple[Stmt, ...], length >= 2
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class DoUntil(Stmt):
    """`do { v' = rate || ... } until (expr)` — a flow action.

    Exists only before the rewrite pass; rate expressions are constant
    (they fold to rationals once named constants are bound).
    """

    odes: tuple  # tuple[(name, Expr), ...]
    invariant: Expr
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class Label(Stmt):
    """`name: stmt` — trace annotation with no semantic effect."""

    name: str
    body: Stmt
    pos: Pos = field(default=None, compare=False)


Decl = Union[SignalDecl, ContDecl, ParamDecl]


# --- program ---------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    root: Stmt

    def walk(self):
        """Yield every statement node, preorder."""
        yield from walk_stmt(self.root)

    def declarations(self):
        for node in self.walk():
            if isinstance(node, (SignalDecl, ContDecl, ParamDecl)):
                yield node

    def params(self):
        return [d for d in self.declarations() if isinstance(d, ParamDecl)]

    def inputs(self):
        return [
            d
            for d in self.declarations()
            if isinstance(d, SignalDecl) and d.direction == "input"
        ]

    def declared_names(self):
        return {d.name for d in self.declarations()}

    def has_flows(self) -> bool:
        return any(isinstance(node, DoUntil) for node in self.walk())


def children(stmt: Stmt):
    if isinstance(stmt, (Abort, Suspend, Loop, Label)):
        return (stmt.body,)
    if isinstance(stmt, If):
        return (stmt.then, stmt.orelse)
    if isinstance(stmt, (SignalDecl, ContDecl, ParamDecl)):
        return (stmt.body,)
    if isinstance(stmt, Seq):
        return stmt.stmts
    if isinstance(stmt, Parallel):
        return stmt.branches
    return ()


def walk_stmt(stmt: Stmt):
    yield stmt
    for child in children(stmt):
        yield from walk_stmt(child)


def walk_exprs(stmt: Stmt):
    """Yield (owner-stmt, expr) for every top-level expression in the tree."""
    for node in walk_stmt(stmt):
        if isinstance(node, (ValueWrite, ContAssign)):
            yield node, node.expr
        elif isinstance(node, (Abort, Suspend)):
            yield node, node.guard
        elif isinstance(node, If):
            yield node, node.cond
        elif isinstance(node, (SignalDecl, ContDecl, ParamDecl)):
            init = node.init if not isinstance(node, ParamDecl) else node.default
            if init is not None:
                yield node, init
        elif isinstance(node, DoUntil):
            yield node, node.invariant
            for _, rate in node.odes:
                yield node, rate


def sub_exprs(expr: Expr):
    """Yield every expression node under (and including) expr."""
    yield expr
    if isinstance(expr, Unary):
        yield from sub_exprs(expr.operand)
    elif isinstance(expr, Binary):
        yield from sub_exprs(expr.left)
        yield from sub_exprs(expr.right)
    elif isinstance(expr, TtlCall):
        yield from sub_exprs(expr.invariant)
