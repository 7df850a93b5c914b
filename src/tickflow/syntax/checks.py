"""Static validation: name resolution, typing, loop and combine checks.

`check_program` is the one definition of a valid program: `parse`, the
rewrite pass and the kernel's compiler all run it. Its last check is the
simultaneous-writer gate: a continuous variable with more than one
simultaneous write site, or with several rates in one `TTL` call, must be
declared with the linear combine operator `op+`, since the look-ahead
folds simultaneous rates linearly (`ttl.affine_form`).
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
    children,
    sub_exprs,
    walk_stmt,
)

# expression types: 'bool' | 'int' | 'ratio'
_NUMERIC = ("int", "ratio")


def check_program(program: Program) -> None:
    """Resolution, typing, loop non-instantaneity and rate constancy
    checks, then the simultaneous-writer gate; the parser refuses duplicate
    declarations. Raises on the first violation."""
    _check_stmt(program.root, {})
    _check_loops(program.root)
    offenders: list = []
    _writes(program.root, {}, offenders)
    for decl in offenders:
        _require_linear(decl, decl)


def _value_type(stype: str) -> str:
    return {"ratio": "ratio", "int": "int", "boolean": "bool"}[stype]


def _check_stmt(stmt: Stmt, env: dict) -> None:
    """env: name -> declaration node."""
    if isinstance(stmt, (Nothing, Pause)):
        return
    if isinstance(stmt, Emit):
        decl = _resolve(stmt.name, env, stmt)
        if not isinstance(decl, SignalDecl):
            raise TypeError_(f"emit target {stmt.name!r} is not a signal", *_p(stmt))
        return
    if isinstance(stmt, ValueWrite):
        decl = _resolve(stmt.name, env, stmt)
        if not isinstance(decl, SignalDecl) or decl.pure:
            raise TypeError_(
                f"{stmt.name!r} is not a valued signal", *_p(stmt)
            )
        t = _check_expr(stmt.expr, env)
        _require_assignable(t, _value_type(decl.stype), stmt.name, stmt)
        return
    if isinstance(stmt, ContAssign):
        decl = _resolve(stmt.name, env, stmt)
        if not isinstance(decl, ContDecl):
            raise TypeError_(
                f"assignment target {stmt.name!r} is not a continuous variable",
                *_p(stmt),
            )
        t = _check_expr(stmt.expr, env)
        if t not in _NUMERIC:
            raise TypeError_(f"cannot assign a {t} value to {stmt.name!r}", *_p(stmt))
        return
    if isinstance(stmt, (Abort, Suspend)):
        t = _check_expr(stmt.guard, env)
        if t != "bool":
            raise TypeError_("preemption guard must be boolean", *_p(stmt))
        _check_stmt(stmt.body, env)
        return
    if isinstance(stmt, If):
        t = _check_expr(stmt.cond, env)
        if t != "bool":
            raise TypeError_("if condition must be boolean", *_p(stmt))
        _check_stmt(stmt.then, env)
        _check_stmt(stmt.orelse, env)
        return
    if isinstance(stmt, SignalDecl):
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
        _check_stmt(stmt.body, {**env, stmt.name: stmt})
        return
    if isinstance(stmt, ContDecl):
        if stmt.init is not None:
            t = _check_expr(stmt.init, env)
            if t not in _NUMERIC:
                raise TypeError_(
                    f"continuous variable {stmt.name!r} needs a numeric initial value",
                    *_p(stmt),
                )
        _check_stmt(stmt.body, {**env, stmt.name: stmt})
        return
    if isinstance(stmt, ParamDecl):
        if stmt.default is not None:
            if not _is_constant(stmt.default, env):
                raise TypeError_(
                    f"default for constant {stmt.name!r} must itself be constant",
                    *_p(stmt),
                )
        _check_stmt(stmt.body, {**env, stmt.name: stmt})
        return
    if isinstance(stmt, Loop):
        _check_stmt(stmt.body, env)
        return
    if isinstance(stmt, Seq):
        for s in stmt.stmts:
            _check_stmt(s, env)
        return
    if isinstance(stmt, Parallel):
        for b in stmt.branches:
            _check_stmt(b, env)
        return
    if isinstance(stmt, DoUntil):
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
        _reject_nested_ttl(stmt.invariant)
        t = _check_expr(stmt.invariant, env)
        if t != "bool":
            raise TypeError_("until expression must be boolean", *_p(stmt))
        return
    if isinstance(stmt, Label):
        _check_stmt(stmt.body, env)
        return
    raise AssertionError(f"unhandled statement {stmt!r}")


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
    """Structurally constant: literals, named constants, and arithmetic on
    those. Signal and continuous references disqualify."""
    if isinstance(expr, NumLit):
        return True
    if isinstance(expr, NameRef):
        decl = env.get(expr.name)
        return isinstance(decl, ParamDecl)
    if isinstance(expr, Unary):
        return expr.op == "-" and _is_constant(expr.operand, env)
    if isinstance(expr, Binary):
        return (
            expr.op in ("+", "-", "*")
            and _is_constant(expr.left, env)
            and _is_constant(expr.right, env)
        )
    return False


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


# --- loop non-instantaneity --------------------------------------------------


def _check_loops(root: Stmt) -> None:
    for node in walk_stmt(root):
        if isinstance(node, Loop) and _may_be_instantaneous(node.body):
            raise InstantaneousLoopError(
                "loop body has a path that consumes no tick", *_p(node)
            )


def _may_be_instantaneous(stmt: Stmt) -> bool:
    if isinstance(stmt, (Nothing, Emit, ValueWrite, ContAssign)):
        return True
    if isinstance(stmt, (Pause, DoUntil, Loop)):
        return False
    if isinstance(stmt, Abort):
        # an immediate abort may terminate on entry if its guard holds
        return True if stmt.immediate else _may_be_instantaneous(stmt.body)
    if isinstance(stmt, Suspend):
        return _may_be_instantaneous(stmt.body)
    if isinstance(stmt, If):
        return _may_be_instantaneous(stmt.then) or _may_be_instantaneous(stmt.orelse)
    if isinstance(stmt, (SignalDecl, ContDecl, ParamDecl)):
        return _may_be_instantaneous(stmt.body)
    if isinstance(stmt, Seq):
        return all(_may_be_instantaneous(s) for s in stmt.stmts)
    if isinstance(stmt, Parallel):
        return all(_may_be_instantaneous(b) for b in stmt.branches)
    if isinstance(stmt, Label):
        return _may_be_instantaneous(stmt.body)
    raise AssertionError(f"unhandled statement {stmt!r}")


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


def _writes(stmt: Stmt, env: dict, offenders: list) -> dict:
    """The continuous variables written inside `stmt`, as id(declaration) ->
    (declaration, written by a flow?), in order of first write. Appends the
    variables with simultaneous writers inside `stmt` to `offenders`, in
    preorder: a parallel composition's own offenders before those inside its
    branches, and a do-block's in its ODE order.

    Simultaneous write sites are several ODEs for one variable inside one
    do-block, or writes to one variable from distinct branches of one
    parallel composition, one of them a do-block."""
    if isinstance(stmt, ContAssign):
        decl = env.get(stmt.name)
        return {id(decl): (decl, False)} if isinstance(decl, ContDecl) else {}
    if isinstance(stmt, DoUntil):
        written: dict = {}
        for name, _ in stmt.odes:
            decl = env.get(name)
            if isinstance(decl, ContDecl):
                if id(decl) in written:
                    offenders.append(decl)
                written[id(decl)] = (decl, True)
        return written
    if isinstance(stmt, (SignalDecl, ContDecl, ParamDecl)):
        env = {**env, stmt.name: stmt}
    mark = len(offenders)
    written = {}
    writers: dict = {}  # id(declaration) -> how many children write it
    for child in children(stmt):
        for key, (decl, via_flow) in _writes(child, env, offenders).items():
            writers[key] = writers.get(key, 0) + 1
            written[key] = (decl, via_flow or written.get(key, (decl, False))[1])
    if isinstance(stmt, Parallel):
        # flag a variable written from several branches only when a flow
        # drives it somewhere; simultaneous plain assignments are legal and
        # resolved (or rejected) when the writes settle
        offenders[mark:mark] = [
            decl for key, (decl, via_flow) in written.items() if via_flow and writers[key] > 1
        ]
    return written


def _p(node) -> tuple:
    """The (line, col) a node was parsed at, or (None, None)."""
    return node.pos if node.pos else (None, None)
