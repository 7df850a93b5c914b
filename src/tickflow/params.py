"""Binding of named rational constants.

Programs may declare `param name [= default]`. `bind_params` substitutes
every reference with its rational value and removes the declarations; it
runs before the rewrite pass. Binding a name the program does not declare
is an `ArgumentError` naming `values`; leaving a defaultless one unbound is
a compile error.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArgumentError, NestingError, ParamError
from .syntax.checks import fold_constant
from .syntax.nodes import (
    ContDecl,
    Expr,
    NameRef,
    NumLit,
    ParamDecl,
    Program,
    SignalDecl,
    Stmt,
    Unary,
    rebuild,
)


def bind_params(program: Program, values: dict | None = None) -> Program:
    """Return a program with all named constants substituted away.

    `values` maps constant names to Fractions; declared defaults fill the
    gaps. Raises ArgumentError on a name the program does not declare,
    ParamError on a constant left unbound, and NestingError on a program
    nested past the recursion limit.
    """
    values = dict(values or {})
    try:
        unknown = sorted(set(values) - {d.name for d in program.params()})
        if unknown:
            raise ArgumentError("values", f"undefined parameter(s): {', '.join(unknown)}")
        return Program(_subst_stmt(program.root, {}, values))
    except RecursionError:
        raise NestingError("nested too deep to process") from None


def _subst_stmt(stmt: Stmt, env: dict, given: dict) -> Stmt:
    if isinstance(stmt, ParamDecl):
        if stmt.name in given:
            value = Fraction(given[stmt.name])
        elif stmt.default is not None:
            value = fold_constant(_subst_expr(stmt.default, env))
        else:
            raise ParamError(f"constant {stmt.name!r} is unbound and has no default")
        return _subst_stmt(stmt.body, {**env, stmt.name: value}, given)
    inner = env
    if isinstance(stmt, (SignalDecl, ContDecl)):
        # an inner declaration shadows an outer constant of the same name;
        # its own initial value still sees the outer one
        inner = {k: v for k, v in env.items() if k != stmt.name}
    return rebuild(
        stmt, lambda child: _subst_stmt(child, inner, given), lambda e: _subst_expr(e, env)
    )


def _subst_expr(expr: Expr, env: dict) -> Expr:
    if isinstance(expr, NameRef) and expr.name in env:
        return NumLit(env[expr.name], pos=expr.pos)
    expr = rebuild(expr, None, lambda e: _subst_expr(e, env))
    if isinstance(expr, Unary) and expr.op == "-" and isinstance(expr.operand, NumLit):
        return NumLit(-expr.operand.value, pos=expr.pos)
    return expr
