"""Desugaring of flow actions into bounded temporal loops.

Every `do { v' = r || ... } until (expr)` becomes

    signal <stop>;
    abort (<stop>)
      loop {
        v = v + r*wcrt;            (one assignment per rate, source order)
        if (!TTL([v' = r, ...], expr, {v, ...})) emit <stop>;
        pause
      }

with `<stop>` a fresh signal that cannot collide with any name in the
program. The rate-times-step products are folded to rational constants at
rewrite time. The special invariant `true` needs no look-ahead and no stop
signal: it becomes the non-terminating `loop { assignments; pause }`,
preemptable only from outside.

The pass refuses what `parse` refuses (`syntax.check_program`). Its output
would hide a variable with simultaneous rates and no `op+`, since its steps
are plain writes, so the check runs on its input.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Iterator

from .errors import ArgumentError, CompileError, NestingError
from .rational import format_rational
from .struct import Struct
from .syntax.checks import check_program, fold_constant
from .syntax.nodes import (
    Abort,
    Binary,
    BoolLit,
    ContAssign,
    DoUntil,
    Emit,
    If,
    Loop,
    NameRef,
    Nothing,
    NumLit,
    Pause,
    Program,
    Seq,
    SignalDecl,
    Stmt,
    TtlCall,
    Unary,
    rebuild,
    sub_exprs,
    walk_stmt,
)

STOP_PREFIX = "__stop"


class RewriteConfig(Struct):
    """Time units per logical tick: the controller's worst-case reaction
    time, fixed for the whole program."""

    wcrt: Fraction

    def __post_init__(self):
        if self.wcrt <= 0:
            raise ArgumentError(
                "wcrt", f"must be strictly positive, got {format_rational(self.wcrt)}"
            )


class FlowSite(Struct):
    """One flow action's rates folded to rationals, in source order, and its
    variables, unique in first-occurrence order."""

    odes: tuple  # ((name, Fraction), ...)
    vars: tuple  # (name, ...)


def flow_site(odes) -> FlowSite:
    """Fold the (name, rate expression) pairs of a flow action or a `TTL`
    call; rates must be parameter-free."""
    folded = tuple((name, fold_constant(rate)) for name, rate in odes)
    return FlowSite(folded, tuple(dict.fromkeys(name for name, _ in folded)))


def rewrite_flows(program: Program, cfg: RewriteConfig) -> Program:
    """Replace every flow action with its bounded-loop form.

    The program must pass the static checks, whose located error it
    raises, and a flow's rate must name no named constant left unbound, a
    CompileError located at the name; rewriting a program with no flow
    actions returns it unchanged (so the pass is idempotent). A
    program nested past the recursion limit raises NestingError.
    """
    try:
        check_program(program)
        return Program(_rewrite(program.root, cfg, _stop_names(program)))
    except RecursionError:
        raise NestingError("nested too deep to process") from None


def _stop_names(program: Program) -> Iterator[str]:
    """`__stop1`, `__stop2`, ...: the stop-signal names, skipping the names
    the program declares, which are all the names it reads."""
    taken = program.declared_names()
    names = (f"{STOP_PREFIX}{n}" for n in count(1))
    return (name for name in names if name not in taken)


def _rewrite(stmt: Stmt, cfg: RewriteConfig, stops: Iterator[str]) -> Stmt:
    if isinstance(stmt, DoUntil):
        return _rewrite_site(stmt, cfg, stops)
    return rebuild(stmt, lambda child: _rewrite(child, cfg, stops), lambda expr: expr)


def _rewrite_site(stmt: DoUntil, cfg: RewriteConfig, stops: Iterator[str]) -> Stmt:
    for _, rate in stmt.odes:
        for sub in sub_exprs(rate):
            if isinstance(sub, NameRef):  # the checks admit only a named constant
                raise CompileError(
                    f"named constant {sub.name!r} must be bound before the rewrite",
                    *(sub.pos or ()),
                )
    site = flow_site(stmt.odes)
    assigns = [
        ContAssign(name, Binary("+", NameRef(name), NumLit(rate * cfg.wcrt)))
        for name, rate in site.odes
    ]
    if isinstance(stmt.invariant, BoolLit) and stmt.invariant.value:
        return Loop(_seq(assigns + [Pause()]))
    stop = next(stops)
    ttl = TtlCall(
        tuple((name, NumLit(rate)) for name, rate in site.odes),
        stmt.invariant,
        site.vars,
    )
    body = Loop(
        _seq(
            assigns
            + [If(Unary("!", ttl), Emit(stop), Nothing()), Pause()]
        )
    )
    return SignalDecl(None, None, stop, None, None, Abort(False, NameRef(stop), body))


def _seq(stmts: list) -> Stmt:
    return stmts[0] if len(stmts) == 1 else Seq(tuple(stmts))


def stop_signals(program: Program) -> list:
    """Names of the generated stop signals, in declaration order."""
    return [
        node.name
        for node in walk_stmt(program.root)
        if isinstance(node, SignalDecl) and node.name.startswith(STOP_PREFIX)
    ]
