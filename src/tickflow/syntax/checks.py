"""Static validation: name resolution, typing, loop and combine checks.

`check_program` is the one definition of a valid program: `parse`, the
rewrite pass and the kernel's compiler all run it. It makes one walk over
the statement tree (`_check_stmt`, one frame per statement level, children
in field order). At each statement the walk checks its own names and types,
and it returns whether the statement may complete in the tick it starts and
which continuous variables it writes. From these it learns:

- a resolution or type error, raised as the walk meets it;
- each loop whose body has a path that consumes no tick (Esterel's
  instantaneous loop), reported after the walk, the first in preorder;
- each continuous variable with more than one simultaneous write site,
  reported last. It must be declared with the linear combine operator
  `op+`, since the look-ahead folds simultaneous rates linearly
  (`ttl.affine_form`); so must a variable with several rates in one `TTL`
  call, which the expression check refuses as it meets it.

So a program that breaks several rules is refused for the first type
error, else the first instantaneous loop, else the first simultaneous
writer without `op+`.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import (
    CombineError,
    InstantaneousLoopError,
    NonConstantRateError,
    ResolveError,
    TypeError_,
)
from .nodes import (
    Abort,
    Binary,
    BoolLit,
    ContAssign,
    ContDecl,
    DoUntil,
    Emit,
    Expr,
    If,
    Loop,
    NameRef,
    NumLit,
    ParamDecl,
    Parallel,
    Pause,
    Program,
    SignalDecl,
    Stmt,
    Suspend,
    TtlCall,
    Unary,
    ValueRef,
    ValueWrite,
    children,
    sub_exprs,
)

# expression types: 'bool' | 'int' | 'ratio'
_NUMERIC = ("int", "ratio")


def check_program(program: Program) -> None:
    """Resolution, typing, loop non-instantaneity and rate constancy
    checks, then the simultaneous-writer gate, all read off one walk; the
    parser refuses duplicate declarations. Raises on the first violation,
    in the order the module docstring gives."""
    loops: list = []
    offenders: list = []
    _check_stmt(program.root, {}, loops, offenders)
    for loop in loops:
        if loop is not None:
            raise InstantaneousLoopError(
                "loop body has a path that consumes no tick", *_p(loop)
            )
    for decl in offenders:
        _require_linear(decl, decl)


def _value_type(stype: str) -> str:
    return {"ratio": "ratio", "int": "int", "boolean": "bool"}[stype]


def _check_stmt(stmt: Stmt, env: dict, loops: list, offenders: list) -> tuple:
    """Check `stmt`'s own names and types, then its children's in field
    order, with env: name -> declaration node. Returns (instant, written):
    whether `stmt` may complete in the tick it starts, and the continuous
    variables written inside it as id(declaration) -> (declaration, written
    by a flow?), in order of first write.

    Appends each loop to `loops` in preorder: a placeholder on entry, the
    loop itself once its body is known to have a path that consumes no
    tick. Appends the variables with simultaneous writers to `offenders`,
    in preorder: a parallel composition's own before those inside its
    branches, and a do-block's in its ODE order. Simultaneous write sites
    are several ODEs for one variable inside one do-block, or writes to one
    variable from distinct branches of one parallel composition, one of
    them a do-block."""
    written: dict = {}
    if isinstance(stmt, Emit):
        decl = _resolve(stmt.name, env, stmt)
        if not isinstance(decl, SignalDecl):
            raise TypeError_(f"emit target {stmt.name!r} is not a signal", *_p(stmt))
    elif isinstance(stmt, ValueWrite):
        decl = _resolve(stmt.name, env, stmt)
        if not isinstance(decl, SignalDecl) or decl.pure:
            raise TypeError_(
                f"{stmt.name!r} is not a valued signal", *_p(stmt)
            )
        t = _check_expr(stmt.expr, env)
        _require_assignable(t, _value_type(decl.stype), stmt.name, stmt)
    elif isinstance(stmt, ContAssign):
        decl = _resolve(stmt.name, env, stmt)
        if not isinstance(decl, ContDecl):
            raise TypeError_(
                f"assignment target {stmt.name!r} is not a continuous variable",
                *_p(stmt),
            )
        t = _check_expr(stmt.expr, env)
        if t not in _NUMERIC:
            raise TypeError_(f"cannot assign a {t} value to {stmt.name!r}", *_p(stmt))
        written[id(decl)] = (decl, False)
    elif isinstance(stmt, (Abort, Suspend)):
        t = _check_expr(stmt.guard, env)
        if t != "bool":
            raise TypeError_("preemption guard must be boolean", *_p(stmt))
    elif isinstance(stmt, If):
        t = _check_expr(stmt.cond, env)
        if t != "bool":
            raise TypeError_("if condition must be boolean", *_p(stmt))
    elif isinstance(stmt, SignalDecl):
        if stmt.pure:
            if stmt.combine is not None:
                raise TypeError_(
                    f"pure signal {stmt.name!r} cannot carry a combine operator",
                    *_p(stmt),
                )
            if stmt.init is not None:
                raise TypeError_(
                    f"pure signal {stmt.name!r} cannot carry an initial value",
                    *_p(stmt),
                )
        else:
            vt = _value_type(stmt.stype)
            if stmt.combine is not None and vt == "bool":
                raise TypeError_(
                    f"combine operator on boolean signal {stmt.name!r}", *_p(stmt)
                )
            if stmt.init is not None:
                t = _check_expr(stmt.init, env)
                _require_assignable(t, vt, stmt.name, stmt)
        env = {**env, stmt.name: stmt}
    elif isinstance(stmt, ContDecl):
        if stmt.init is not None:
            t = _check_expr(stmt.init, env)
            if t not in _NUMERIC:
                raise TypeError_(
                    f"continuous variable {stmt.name!r} needs a numeric initial value",
                    *_p(stmt),
                )
        env = {**env, stmt.name: stmt}
    elif isinstance(stmt, ParamDecl):
        if stmt.default is not None:
            if not _is_constant(stmt.default, env):
                raise TypeError_(
                    f"default for constant {stmt.name!r} must itself be constant",
                    *_p(stmt),
                )
        env = {**env, stmt.name: stmt}
    elif isinstance(stmt, DoUntil):
        for name, rate in stmt.odes:
            decl = _resolve(name, env, stmt)
            if not isinstance(decl, ContDecl):
                raise TypeError_(
                    f"flow target {name!r} is not a continuous variable", *_p(stmt)
                )
            if not _is_constant(rate, env):
                raise NonConstantRateError(
                    f"rate of {name!r} does not fold to a constant", *_p(stmt)
                )
            _check_expr(rate, env)
            if id(decl) in written:
                offenders.append(decl)
            written[id(decl)] = (decl, True)
        _reject_nested_ttl(stmt.invariant)
        t = _check_expr(stmt.invariant, env)
        if t != "bool":
            raise TypeError_("until expression must be boolean", *_p(stmt))
    elif isinstance(stmt, Loop):
        slot = len(loops)
        loops.append(None)
    mark = len(offenders)
    instants = []
    writers: dict = {}  # id(declaration) -> how many children write it
    for child in children(stmt):
        instant, inner = _check_stmt(child, env, loops, offenders)
        instants.append(instant)
        for key, (decl, via_flow) in inner.items():
            writers[key] = writers.get(key, 0) + 1
            written[key] = (decl, via_flow or written.get(key, (decl, False))[1])
    if isinstance(stmt, Parallel):
        # flag a variable written from several branches only when a flow
        # drives it somewhere; simultaneous plain assignments are legal and
        # resolved (or rejected) when the writes settle
        offenders[mark:mark] = [
            decl for key, (decl, via_flow) in written.items() if via_flow and writers[key] > 1
        ]
    if isinstance(stmt, Loop):
        if instants[0]:
            loops[slot] = stmt
        return False, written
    if isinstance(stmt, (Pause, DoUntil)):
        return False, written
    if isinstance(stmt, If):
        return any(instants), written
    # an immediate abort may terminate on entry if its guard holds
    return all(instants) or isinstance(stmt, Abort) and stmt.immediate, written


def _require_assignable(actual: str, target: str, name: str, node) -> None:
    # the type discipline separates boolean from numeric; integrality of
    # writes to int signals is enforced when the write settles
    line, col = _p(node)
    if target == "bool":
        if actual != "bool":
            raise TypeError_(f"{name!r} holds a boolean value", line, col)
    else:
        if actual not in _NUMERIC:
            raise TypeError_(f"{name!r} holds a numeric value", line, col)


def _resolve(name: str, env: dict, node):
    decl = env.get(name)
    if decl is None:
        raise ResolveError(f"undefined name {name!r}", *_p(node))
    return decl


def _check_expr(expr: Expr, env: dict) -> str:
    if isinstance(expr, NumLit):
        return "int" if expr.value.denominator == 1 else "ratio"
    if isinstance(expr, BoolLit):
        return "bool"
    if isinstance(expr, NameRef):
        decl = _resolve(expr.name, env, expr)
        if isinstance(decl, SignalDecl):
            return "bool"  # status reference
        if isinstance(decl, ContDecl):
            return "ratio"
        return "ratio"  # named constant
    if isinstance(expr, ValueRef):
        decl = _resolve(expr.name, env, expr)
        if not isinstance(decl, SignalDecl) or decl.pure:
            raise TypeError_(f"{expr.name!r} has no value to read", *_p(expr))
        return _value_type(decl.stype)
    if isinstance(expr, Unary):
        t = _check_expr(expr.operand, env)
        line, col = _p(expr)
        if expr.op == "!":
            if t != "bool":
                raise TypeError_("'!' needs a boolean operand", line, col)
            return "bool"
        if t not in _NUMERIC:
            raise TypeError_("negation needs a numeric operand", line, col)
        return t
    if isinstance(expr, Binary):
        lt = _check_expr(expr.left, env)
        rt = _check_expr(expr.right, env)
        line, col = _p(expr)
        if expr.op in ("&&", "||"):
            if lt != "bool" or rt != "bool":
                raise TypeError_(f"{expr.op!r} needs boolean operands", line, col)
            return "bool"
        if expr.op in ("==", "!="):
            both_bool = lt == "bool" and rt == "bool"
            both_num = lt in _NUMERIC and rt in _NUMERIC
            if not (both_bool or both_num):
                raise TypeError_(f"{expr.op!r} needs operands of one kind", line, col)
            return "bool"
        if expr.op in ("<", "<=", ">", ">="):
            if lt not in _NUMERIC or rt not in _NUMERIC:
                raise TypeError_(f"{expr.op!r} needs numeric operands", line, col)
            return "bool"
        # + - *
        if lt not in _NUMERIC or rt not in _NUMERIC:
            raise TypeError_(f"{expr.op!r} needs numeric operands", line, col)
        return "int" if lt == rt == "int" else "ratio"
    if isinstance(expr, TtlCall):
        for name, rate in expr.odes:
            decl = _resolve(name, env, expr)
            if not isinstance(decl, ContDecl):
                raise TypeError_(f"TTL target {name!r} is not continuous", *_p(expr))
            if not _is_constant(rate, env):
                raise NonConstantRateError(
                    f"TTL rate for {name!r} is not constant", *_p(expr)
                )
        targets = {name for name, _ in expr.odes}
        if set(expr.vars) != targets:
            raise TypeError_(
                f"TTL variable set {{{', '.join(expr.vars)}}} must name exactly "
                f"its rate targets {{{', '.join(sorted(targets))}}}",
                *_p(expr),
            )
        _reject_nested_ttl(expr.invariant)
        t = _check_expr(expr.invariant, env)
        if t != "bool":
            raise TypeError_("TTL invariant must be boolean", *_p(expr))
        rated = [name for name, _ in expr.odes]
        for name in expr.vars:
            if rated.count(name) > 1:
                _require_linear(env[name], expr)
        return "bool"
    raise AssertionError(f"unhandled expression {expr!r}")


def _reject_nested_ttl(invariant: Expr) -> None:
    """A flow invariant becomes a TTL invariant when the flow is rewritten,
    so neither may contain a TTL of its own."""
    for sub in sub_exprs(invariant):
        if isinstance(sub, TtlCall):
            raise TypeError_("TTL cannot appear inside a flow or TTL invariant", *_p(sub))


def _is_constant(expr: Expr, env: dict) -> bool:
    """Structurally constant: literals, named constants, and `+`, `-` and
    `*` on those. Signal and continuous references disqualify."""
    for sub in sub_exprs(expr):
        if isinstance(sub, NameRef):
            if not isinstance(env.get(sub.name), ParamDecl):
                return False
        elif isinstance(sub, (Unary, Binary)):
            if sub.op not in ("+", "-", "*"):
                return False
        elif not isinstance(sub, NumLit):
            return False
    return True


def fold_constant(expr: Expr) -> Fraction:
    """Fold a parameter-free constant expression to a rational."""
    if isinstance(expr, NumLit):
        return expr.value
    if isinstance(expr, Unary) and expr.op == "-":
        return -fold_constant(expr.operand)
    if isinstance(expr, Binary) and expr.op in ("+", "-", "*"):
        left = fold_constant(expr.left)
        right = fold_constant(expr.right)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise NonConstantRateError(f"expression does not fold to a constant: {expr!r}")


# --- write-write legality ----------------------------------------------------


def _require_linear(decl: ContDecl, node) -> None:
    """Refuse the continuous variable `decl`, which has simultaneous writers,
    at `node`'s position unless it is declared `op+`."""
    if decl.combine is None:
        raise CombineError(
            f"continuous variable {decl.name!r} has simultaneous writers "
            "but no combine operator",
            *_p(node),
        )
    if decl.combine != "plus":
        raise CombineError(
            f"continuous variable {decl.name!r} combines simultaneous "
            "writers with a non-linear operator",
            *_p(node),
        )


def _p(node) -> tuple:
    """The (line, col) a node was parsed at, or (None, None)."""
    return node.pos if node.pos else (None, None)
