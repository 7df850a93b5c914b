"""Pretty printer. `parse(pretty_print(p))` is structurally equal to `p`.

Declarations print one per statement (multi-declarator sugar is already
desugared in the AST), bodies of compound statements print braced, and
expressions bracket by the parser's table, `nodes.BINARY`: an operand
whose operator binds looser than its context's, a comparison beside a
comparison, and `&&` or `||` where an `ASSIGNED` expression is read.
"""

from __future__ import annotations

from ..rational import format_rational
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

# each binary operator's precedence, its level in `BINARY`; a unary
# expression binds tighter than any
_PREC = {op: level for level, ops in enumerate(BINARY) for op in ops}
_UNARY_PREC = len(BINARY)


def pretty_print(program: Program) -> str:
    return _stmt(program.root, 0) + "\n"


def print_expr(expr: Expr) -> str:
    return _expr(expr, 0)


def _indent(depth: int) -> str:
    return "  " * depth


def _stmt(stmt: Stmt, depth: int, block: frozenset = frozenset()) -> str:
    """`stmt` at `depth`; `block` holds the names its printed block declared
    before it, and a declaration of one of them is braced, as it was parsed."""
    ind = _indent(depth)
    if isinstance(stmt, (SignalDecl, ContDecl, ParamDecl)):
        if stmt.name in block:
            return _block(stmt, depth)
        block |= {stmt.name}
    if isinstance(stmt, Nothing):
        return ind + "nothing"
    if isinstance(stmt, Pause):
        return ind + "pause"
    if isinstance(stmt, Emit):
        return ind + f"emit {stmt.name}"
    if isinstance(stmt, ValueWrite):
        return ind + f"?{stmt.name} = {_expr(stmt.expr, ASSIGNED)}"
    if isinstance(stmt, ContAssign):
        return ind + f"{stmt.name} = {_expr(stmt.expr, ASSIGNED)}"
    if isinstance(stmt, (Abort, Suspend)):
        kw = "abort" if isinstance(stmt, Abort) else "suspend"
        imm = "immediate " if stmt.immediate else ""
        return (
            ind + f"{kw} ({imm}{_expr(stmt.guard, 0)})\n" + _block(stmt.body, depth)
        )
    if isinstance(stmt, If):
        text = ind + f"if ({_expr(stmt.cond, 0)})\n" + _block(stmt.then, depth)
        if not isinstance(stmt.orelse, Nothing):
            text += "\n" + ind + "else\n" + _block(stmt.orelse, depth)
        return text
    if isinstance(stmt, SignalDecl):
        parts = []
        if stmt.direction:
            parts.append(stmt.direction)
        if stmt.stype:
            parts.append(stmt.stype)
        parts.append("signal")
        parts.append(stmt.name)
        if stmt.combine:
            parts.append("op+" if stmt.combine == "plus" else "op*")
        if stmt.init is not None:
            parts.append("= " + _expr(stmt.init, ASSIGNED))
        head = ind + " ".join(parts)
        return _with_body(head, stmt.body, depth, block)
    if isinstance(stmt, ContDecl):
        parts = ["cont", stmt.name]
        if stmt.combine:
            parts.append("op+" if stmt.combine == "plus" else "op*")
        if stmt.init is not None:
            parts.append("= " + _expr(stmt.init, ASSIGNED))
        return _with_body(ind + " ".join(parts), stmt.body, depth, block)
    if isinstance(stmt, ParamDecl):
        head = ind + f"param {stmt.name}"
        if stmt.default is not None:
            head += " = " + _expr(stmt.default, ASSIGNED)
        return _with_body(head, stmt.body, depth, block)
    if isinstance(stmt, Loop):
        return ind + "loop\n" + _block(stmt.body, depth)
    if isinstance(stmt, Seq):
        # nested sequences must stay braced or re-parsing would flatten
        # them; a declaration before the end of the sequence is braced so
        # its scope does not swallow the rest of the block on re-parse
        parts = []
        for i, s in enumerate(stmt.stmts):
            last = i == len(stmt.stmts) - 1
            needs_braces = isinstance(s, Seq) or (
                not last and isinstance(s, (SignalDecl, ContDecl, ParamDecl))
            )
            parts.append(_block(s, depth) if needs_braces else _stmt(s, depth, block))
        return ";\n".join(parts)
    if isinstance(stmt, Parallel):
        # outer braces keep `||` from re-associating with a following `;`
        inner = ("\n" + _indent(depth + 1) + "||\n").join(
            _block(b, depth + 1) for b in stmt.branches
        )
        return ind + "{\n" + inner + "\n" + ind + "}"
    if isinstance(stmt, DoUntil):
        odes = " || ".join(f"{n}' = {_expr(r, ASSIGNED)}" for n, r in stmt.odes)
        return ind + "do {" + odes + "} until (" + _expr(stmt.invariant, 0) + ")"
    if isinstance(stmt, Label):
        # a sequence or a declaration would re-parse as the label's first
        # statement only, so it prints braced
        braced = isinstance(stmt.body, (Seq, SignalDecl, ContDecl, ParamDecl))
        body = _block(stmt.body, depth) if braced else _stmt(stmt.body, depth)
        return ind + f"{stmt.name}: " + body.lstrip()
    raise AssertionError(f"unhandled statement {stmt!r}")


def _with_body(head: str, body: Stmt, depth: int, block: frozenset) -> str:
    if isinstance(body, Nothing):
        return head
    return head + ";\n" + _stmt(body, depth, block)


def _block(stmt: Stmt, depth: int) -> str:
    ind = _indent(depth)
    return ind + "{\n" + _stmt(stmt, depth + 1) + "\n" + ind + "}"


def _expr(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, NumLit):
        if expr.value < 0:
            return _paren(format_rational(expr.value), parent_prec, _UNARY_PREC)
        return format_rational(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, NameRef):
        return expr.name
    if isinstance(expr, ValueRef):
        return f"?{expr.name}"
    if isinstance(expr, Unary):
        return _paren(
            expr.op + _expr(expr.operand, _UNARY_PREC), parent_prec, _UNARY_PREC
        )
    if isinstance(expr, Binary):
        prec = _PREC[expr.op]
        # a comparison brackets a comparison on either side
        left = _expr(expr.left, prec + 1 if expr.op in COMPARISONS else prec)
        text = f"{left} {expr.op} {_expr(expr.right, prec + 1)}"
        return _paren(text, parent_prec, prec)
    if isinstance(expr, TtlCall):
        odes = ", ".join(f"{n}' = {_expr(r, ASSIGNED)}" for n, r in expr.odes)
        names = ", ".join(expr.vars)
        return f"TTL([{odes}], {_expr(expr.invariant, 0)}, {{{names}}})"
    raise AssertionError(f"unhandled expression {expr!r}")


def _paren(text: str, parent_prec: int, prec: int) -> str:
    return f"({text})" if prec < parent_prec else text
