"""AST node definitions.

Nodes are frozen `Struct`s (see `tickflow.struct`), so structural equality
is the default; source positions are named in `UNCOMPARED` and left out of
comparison, so a program and its re-parsed pretty-print compare equal.
Declarations carry their body: a declaration scopes over the remainder of
the block it appears in, and the parser nests the rest of the block inside
it.

A node's shape lives in its class: `SHAPE` maps each child field, in field
order, to its kind (`EXPR`, `STMT`, `STMTS` or `ODES`). `children`,
`direct_exprs` and `rebuild` read it, so a pass that only copies or walks
the tree writes no per-class code and a new field is declared once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from ..struct import Struct, replace

Pos = Optional[tuple]  # (line, col) or None

# child kinds in a node's SHAPE
EXPR = "expr"  # an expression, or None where the field is optional
STMT = "stmt"  # a statement
STMTS = "stmts"  # a tuple of statements
ODES = "odes"  # a tuple of (variable name, rate expression) pairs


# --- expressions -----------------------------------------------------------


class Expr(Struct):
    UNCOMPARED = ("pos",)
    SHAPE = {}


class NumLit(Expr):
    value: Fraction
    pos: Pos = None


class BoolLit(Expr):
    value: bool
    pos: Pos = None


class NameRef(Expr):
    """Bare name: signal status, continuous variable, or named constant."""

    name: str
    pos: Pos = None


class ValueRef(Expr):
    """`?name` — the value of a valued signal."""

    name: str
    pos: Pos = None


class Unary(Expr):
    op: str  # '!' or '-'
    operand: Expr
    pos: Pos = None
    SHAPE = {"operand": EXPR}


class Binary(Expr):
    op: str  # one of BINARY's operators
    left: Expr
    right: Expr
    pos: Pos = None
    SHAPE = {"left": EXPR, "right": EXPR}


# The binary operators by precedence level, loosest first: the one table the
# parser climbs and the printer brackets by. Each level is left-associative
# but the comparisons, which take no comparison as an operand unbracketed.
COMPARISONS = ("==", "!=", "<=", ">=", "<", ">")
BINARY = (("||",), ("&&",), COMPARISONS, ("+", "-"), ("*",))
# the level a right-hand side, an initializer or a rate starts at, so that a
# `||` after one always means composition
ASSIGNED = BINARY.index(COMPARISONS)


class TtlCall(Expr):
    """Look-ahead intrinsic: TTL([v' = rate, ...], invariant, {v, ...}).

    Rates are already folded to rational constants. The combine operator
    for each variable is taken from its declaration at evaluation time.
    """

    odes: tuple  # tuple[(name, constant Expr), ...]
    invariant: Expr
    vars: tuple  # tuple[str, ...]
    pos: Pos = None
    SHAPE = {"odes": ODES, "invariant": EXPR}


# --- statements ------------------------------------------------------------


class Stmt(Struct):
    UNCOMPARED = ("pos",)
    SHAPE = {}


class Nothing(Stmt):
    pos: Pos = None


class Pause(Stmt):
    pos: Pos = None


class Emit(Stmt):
    name: str
    pos: Pos = None


class ValueWrite(Stmt):
    """`?name = expr` — write the value of a valued signal."""

    name: str
    expr: Expr
    pos: Pos = None
    SHAPE = {"expr": EXPR}


class ContAssign(Stmt):
    """`name = expr` — write a continuous variable."""

    name: str
    expr: Expr
    pos: Pos = None
    SHAPE = {"expr": EXPR}


class Abort(Stmt):
    immediate: bool
    guard: Expr
    body: Stmt
    pos: Pos = None
    SHAPE = {"guard": EXPR, "body": STMT}


class Suspend(Stmt):
    immediate: bool
    guard: Expr
    body: Stmt
    pos: Pos = None
    SHAPE = {"guard": EXPR, "body": STMT}


class If(Stmt):
    cond: Expr
    then: Stmt
    orelse: Stmt
    pos: Pos = None
    SHAPE = {"cond": EXPR, "then": STMT, "orelse": STMT}


class SignalDecl(Stmt):
    """`[input|output] [type] signal name [op] [= init]; rest-of-block`."""

    direction: Optional[str]  # 'input' | 'output' | None
    stype: Optional[str]  # 'ratio' | 'int' | 'boolean' | None (pure)
    name: str
    combine: Optional[str]  # 'plus' | 'times' | None
    init: Optional[Expr]
    body: Stmt
    pos: Pos = None
    SHAPE = {"init": EXPR, "body": STMT}

    @property
    def pure(self) -> bool:
        return self.stype is None


class ContDecl(Stmt):
    """`cont name [op] [= init]; rest-of-block`. Type is always ratio."""

    name: str
    combine: Optional[str]
    init: Optional[Expr]
    body: Stmt
    pos: Pos = None
    SHAPE = {"init": EXPR, "body": STMT}


class ParamDecl(Stmt):
    """`param name [= default]; rest-of-block` — a named rational constant
    resolved before the rewrite pass."""

    name: str
    default: Optional[Expr]
    body: Stmt
    pos: Pos = None
    SHAPE = {"default": EXPR, "body": STMT}


class Loop(Stmt):
    body: Stmt
    pos: Pos = None
    SHAPE = {"body": STMT}


class Seq(Stmt):
    stmts: tuple  # tuple[Stmt, ...], length >= 2
    pos: Pos = None
    SHAPE = {"stmts": STMTS}


class Parallel(Stmt):
    branches: tuple  # tuple[Stmt, ...], length >= 2
    pos: Pos = None
    SHAPE = {"branches": STMTS}


class DoUntil(Stmt):
    """`do { v' = rate || ... } until (expr)` — a flow action.

    Exists only before the rewrite pass; rate expressions are constant
    (they fold to rationals once named constants are bound).
    """

    odes: tuple  # tuple[(name, Expr), ...]
    invariant: Expr
    pos: Pos = None
    SHAPE = {"odes": ODES, "invariant": EXPR}


class Label(Stmt):
    """`name: stmt` — trace annotation with no semantic effect."""

    name: str
    body: Stmt
    pos: Pos = None
    SHAPE = {"body": STMT}


Decl = Union[SignalDecl, ContDecl, ParamDecl]


# --- program ---------------------------------------------------------------


class Program(Struct):
    root: Stmt

    def derived(self, key, build):
        """`build()`, called once per program object and `key` and kept on
        the object. What is kept belongs to this object, not to its value:
        compiled code and node indexes name this tree's nodes by identity,
        so an equal program (re-parsed, re-bound, or copied by `replace`,
        which copies fields only) derives its own. Nothing is kept when
        `build` raises, so it raises again on the next call."""
        memo = self.__dict__.get("_derived")
        if memo is None:
            memo = self.__dict__["_derived"] = {}
        value = memo.get(key)
        if value is None:
            value = memo[key] = build()
        return value

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
        """Whether the program holds a flow action; walked once per object."""
        return self.derived("has flows", lambda: any(isinstance(n, DoUntil) for n in self.walk()))


def children(stmt: Stmt) -> tuple:
    """The direct child statements of a statement, in field order."""
    kids = ()
    for name, kind in stmt.SHAPE.items():
        if kind == STMT:
            kids += (getattr(stmt, name),)
        elif kind == STMTS:
            kids += getattr(stmt, name)
    return kids


def direct_exprs(node):
    """Yield the expressions directly under a statement or an expression, in
    field order; an ODE pair contributes its rate."""
    for name, kind in node.SHAPE.items():
        if kind == EXPR:
            expr = getattr(node, name)
            if expr is not None:
                yield expr
        elif kind == ODES:
            for _, rate in getattr(node, name):
                yield rate


def rebuild(node, on_stmt, on_expr):
    """A copy of `node` with each child statement passed through `on_stmt`
    and each child expression (ODE rates included) through `on_expr`, in
    field order; a node without children is returned as is."""
    changes = {}
    for name, kind in node.SHAPE.items():
        value = getattr(node, name)
        if kind == EXPR:
            changes[name] = None if value is None else on_expr(value)
        elif kind == STMT:
            changes[name] = on_stmt(value)
        elif kind == STMTS:
            changes[name] = tuple(on_stmt(s) for s in value)
        else:
            changes[name] = tuple((var, on_expr(rate)) for var, rate in value)
    return replace(node, **changes) if changes else node


def walk_stmt(stmt: Stmt):
    """Yield every statement node under (and including) `stmt`, preorder,
    with a stack of its own, so that a long declaration chain walks."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(children(node))


def sub_exprs(expr: Expr):
    """Yield every expression node under (and including) expr."""
    yield expr
    for sub in direct_exprs(expr):
        yield from sub_exprs(sub)
