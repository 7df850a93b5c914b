"""Tick-by-tick execution under delayed synchronous semantics.

One tick: latch inputs, evaluate preemption guards of every paused abort
and suspend against previous-tick snapshots (an abort whose guard holds
discards its body before the body runs; neither kind evaluates its guard
on the tick its body was entered unless marked immediate), run all active
branches to their next pause or termination while every read observes only
previous-tick snapshots, then fold the tick's pending writes with the
declared combine operators and promote them to the visible snapshot.

The machine state between ticks is a residue, an immutable tree that
mirrors the paused part of the program, and a store mapping each live
declaration instance to its settled (status, value) in registration order.
A tick builds a new residue and a new store and never mutates the old ones,
so states share them and `TickState.clone` copies only fields. Identical
(program, config, schedule) triples produce identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import KernelError
from .rewrite import FlowSite, RewriteConfig, flow_site
from .syntax.nodes import (
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
from . import ttl as ttl_mod
from .trace import TickRecord, Trace

Value = Union[Fraction, bool]


# --- input assignments -------------------------------------------------------


@dataclass(frozen=True)
class InputAssignment:
    """Statuses and values the environment supplies for one tick."""

    present: frozenset = frozenset()
    values: tuple = ()  # ((name, value), ...) sorted by name

    @staticmethod
    def make(present=(), values=None) -> "InputAssignment":
        pairs = tuple(sorted((values or {}).items()))
        return InputAssignment(frozenset(present), pairs)

    def value_map(self) -> dict:
        return dict(self.values)

    def is_empty(self) -> bool:
        return not self.present and not self.values


EMPTY_INPUTS = InputAssignment()


# --- declaration instances ---------------------------------------------------


class SignalInstance:
    """One entry of a signal declaration's scope: an identity token whose
    settled (status, value) lives in `TickState.store`."""

    __slots__ = ("decl",)

    def __init__(self, decl: SignalDecl):
        self.decl = decl


class ContInstance:
    """One entry of a continuous variable's scope; its settled status in
    the store is always False."""

    __slots__ = ("decl",)

    def __init__(self, decl: ContDecl):
        self.decl = decl


# --- residues ----------------------------------------------------------------
#
# Residues are values: built once by `run` or `resume`, never mutated, and
# shared between states. Equality and hashing ignore `node`, which is exact
# within one program: from the root, a residue's class and its Seq index, If
# branch or Par slot fix its node. A declaration has at most one live
# instance, so a DeclRes is fixed by its node too, and its `instance` is
# left out as well.


@dataclass(slots=True, unsafe_hash=True)
class _Res:
    node: Stmt = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class PauseRes(_Res):
    pass


@dataclass(slots=True, unsafe_hash=True)
class SeqRes(_Res):
    index: int
    child: "_Res"


@dataclass(slots=True, unsafe_hash=True)
class ParRes(_Res):
    children: tuple  # per branch: residue, or None once the branch finished


@dataclass(slots=True, unsafe_hash=True)
class IfRes(_Res):
    branch: int
    child: "_Res"


@dataclass(slots=True, unsafe_hash=True)
class LoopRes(_Res):
    child: "_Res"


@dataclass(slots=True, unsafe_hash=True)
class AbortRes(_Res):
    child: "_Res"


@dataclass(slots=True, unsafe_hash=True)
class SuspendRes(_Res):
    child: Optional["_Res"]  # None: immediate guard froze it before entry


@dataclass(slots=True, unsafe_hash=True)
class DeclRes(_Res):
    instance: object = field(compare=False)
    child: "_Res"


@dataclass(slots=True, unsafe_hash=True)
class LabelRes(_Res):
    child: "_Res"


@dataclass(slots=True, unsafe_hash=True)
class FlowRes(_Res):
    stop: bool  # computed last tick: terminate on resume without running


def _live_in(res, labels: list, instances: list):
    """Collect the names of the labels and the instances a residue holds."""
    if res is None:
        return
    cls = res.__class__
    if cls is ParRes:
        for child in res.children:
            _live_in(child, labels, instances)
        return
    if cls is DeclRes:
        instances.append(res.instance)
    elif cls is LabelRes:
        labels.append(res.node.name)
    elif cls is PauseRes or cls is FlowRes:
        return
    _live_in(res.child, labels, instances)


# --- the machine -------------------------------------------------------------


class TickState:
    """Full machine state at a tick boundary. Its residue and store are
    never mutated once a tick has built them, so clones share both."""

    def __init__(self, program: Program, cfg: RewriteConfig, native_flows: bool = False):
        if program.params():
            raise KernelError("named constants must be bound before execution")
        if not native_flows and program.has_flows():
            raise KernelError(
                "program still contains flow actions; rewrite it or enable "
                "native flow interpretation"
            )
        self.program = program
        self.cfg = cfg
        self.native_flows = native_flows
        self.residue = None  # None before tick 1 and after termination
        self.tick = 0
        self.terminated = False
        self.termination_tick: Optional[int] = None
        # live instance -> settled (status, value), in registration order
        self.store: dict = {}
        self.initial_conts: dict = {}  # first initial value per cont name
        self.input_names = {d.name for d in program.inputs()}
        self.sites: dict = {}  # id(flow or TTL node) -> its FlowSite
        self.read_log: Optional[list] = None

    # -- state duplication (for search) --

    def clone(self) -> "TickState":
        dup = TickState.__new__(TickState)
        dup.__dict__.update(self.__dict__)
        dup.read_log = None
        return dup

    # -- one tick --

    def advance(self, inputs: InputAssignment = EMPTY_INPUTS) -> TickRecord:
        if self.terminated:
            raise KernelError("program already terminated", self.tick)
        t = self.tick + 1
        self._validate_inputs(inputs, t)
        ctx = _TickCtx(self, inputs, t)
        try:
            if self.tick == 0:
                self.residue = ctx.run(self.program.root, {})
            else:
                self.residue = ctx.resume(self.residue, {})
        except KernelError as err:
            if err.tick is None:
                raise KernelError(err.message, t) from None
            raise
        record = ctx.settle()
        self.tick = t
        if self.residue is None:
            self.terminated = True
            self.termination_tick = t
        return record

    def _validate_inputs(self, inputs: InputAssignment, t: int):
        for name in inputs.present:
            if name not in self.input_names:
                raise KernelError(f"{name!r} is not a declared input", t)
        for name, _ in inputs.values:
            if name not in self.input_names:
                raise KernelError(f"{name!r} is not a declared input", t)

    def snapshot(self) -> dict:
        """Settled previous-tick values of every live instance, by name."""
        out = {}
        seen: dict = {}
        live: list = []
        _live_in(self.residue, [], live)
        for inst in live:
            name = _disambiguate(inst.decl.name, seen)
            status, value = self.store[inst]
            out[name] = (status, value) if inst.__class__ is SignalInstance else value
        return out


def _disambiguate(name: str, seen: dict) -> str:
    count = seen.get(name, 0) + 1
    seen[name] = count
    return name if count == 1 else f"{name}:{count}"


class _TickCtx:
    """Per-tick scratch: the settled values reads observe, pending emissions
    and writes, plus the evaluator."""

    def __init__(self, state: TickState, inputs: InputAssignment, t: int):
        self.state = state
        self.inputs = inputs
        self.input_values = inputs.value_map()
        self.t = t
        # instance -> previous-tick (status, value); settle walks it, so it
        # also gains the instances registered during this tick, in order
        self.prev: dict = dict(state.store)
        self.emitted: set = set()  # instances
        self.writes: dict = {}  # instance -> [value, ...]
        for inst in state.store:
            self.latch_input(inst)

    # -- effects --

    def latch_input(self, inst):
        if not isinstance(inst, SignalInstance):
            return
        if inst.decl.direction != "input":
            return
        name = inst.decl.name
        if name in self.inputs.present:
            self.emitted.add(inst)
        if name in self.input_values:
            if inst.decl.pure:
                raise KernelError(f"value supplied for pure input {name!r}", self.t)
            self.writes.setdefault(inst, []).append(
                _adapt_value(self.input_values[name], inst.decl, self.t)
            )

    def emit(self, inst):
        self.emitted.add(inst)

    def write(self, inst, value):
        self.writes.setdefault(inst, []).append(value)

    def register(self, inst, value):
        self.prev[inst] = (False, value)
        if isinstance(inst, ContInstance):
            name = inst.decl.name
            if name not in self.state.initial_conts:
                # copy on write: clones share the dict
                self.state.initial_conts = {**self.state.initial_conts, name: value}
        self.latch_input(inst)

    def kill(self, res):
        """Discard a residue subtree: its instances vanish unsettled. A
        killed subtree has not run this tick (guards are evaluated top-down
        before bodies), so it holds no pending effects."""
        gone: list = []
        _live_in(res, [], gone)
        for inst in gone:
            self.prev.pop(inst, None)
            self.writes.pop(inst, None)
            self.emitted.discard(inst)

    # -- reads --

    def read_status(self, inst) -> bool:
        status = self.prev[inst][0]
        if self.state.read_log is not None:
            self.state.read_log.append((self.t, inst.decl.name, "status", status))
        return status

    def read_value(self, inst):
        value = self.prev[inst][1]
        if self.state.read_log is not None:
            self.state.read_log.append((self.t, inst.decl.name, "value", value))
        return value

    # -- expression evaluation (previous-tick snapshots only) --

    def eval(self, expr: Expr, frame: dict):
        if isinstance(expr, NumLit):
            return expr.value
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, NameRef):
            inst = self._lookup(expr.name, frame)
            if isinstance(inst, SignalInstance):
                return self.read_status(inst)
            if isinstance(inst, ContInstance):
                return self.read_value(inst)
            return inst  # a look-ahead prediction, not a read
        if isinstance(expr, ValueRef):
            inst = self._lookup(expr.name, frame)
            if not isinstance(inst, SignalInstance) or inst.decl.pure:
                raise KernelError(f"{expr.name!r} has no value", self.t)
            return self.read_value(inst)
        if isinstance(expr, Unary):
            operand = self.eval(expr.operand, frame)
            return (not operand) if expr.op == "!" else -operand
        if isinstance(expr, Binary):
            left = self.eval(expr.left, frame)
            right = self.eval(expr.right, frame)
            op = expr.op
            if op == "&&":
                return left and right
            if op == "||":
                return left or right
            if op == "==":
                return left == right
            if op == "!=":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            return left * right
        if isinstance(expr, TtlCall):
            return self._eval_ttl(self._site(expr), expr.invariant, frame)
        raise KernelError(f"cannot evaluate {expr!r}", self.t)

    def _lookup(self, name: str, frame: dict):
        inst = frame.get(name)
        if inst is None:
            raise KernelError(f"unbound name {name!r}", self.t)
        return inst

    def _site(self, node) -> FlowSite:
        """The flow site of a flow action or TTL call, derived once per
        program."""
        site = self.state.sites.get(id(node))
        if site is None:
            site = self.state.sites[id(node)] = flow_site(node.odes)
        return site

    def _eval_ttl(self, site: FlowSite, invariant: Expr, frame: dict) -> bool:
        """The two-tick look-ahead: the invariant, evaluated with the site's
        variables bound to their predicted values."""
        vals = {}
        combine = {}
        for name in site.vars:
            inst = self._lookup(name, frame)
            if not isinstance(inst, ContInstance):
                raise KernelError(f"{name!r} is not a continuous variable", self.t)
            vals[name] = self.read_value(inst)
            if inst.decl.combine is not None:
                combine[name] = inst.decl.combine
        delta = ttl_mod.delta_combined(
            site.odes, site.vars, combine, vals, self.state.cfg.wcrt
        )
        result = self.eval(invariant, {**frame, **delta})
        if not isinstance(result, bool):
            raise KernelError("invariant did not evaluate to a boolean", self.t)
        return result

    # -- fresh entry ----------------------------------------------------------

    def run(self, node: Stmt, frame: dict):
        if isinstance(node, Nothing):
            return None
        if isinstance(node, Pause):
            return PauseRes(node)
        if isinstance(node, Emit):
            inst = self._lookup(node.name, frame)
            if not isinstance(inst, SignalInstance):
                raise KernelError(f"cannot emit {node.name!r}", self.t)
            self.emit(inst)
            return None
        if isinstance(node, ValueWrite):
            inst = self._lookup(node.name, frame)
            if not isinstance(inst, SignalInstance) or inst.decl.pure:
                raise KernelError(f"{node.name!r} is not a valued signal", self.t)
            self.write(inst, _adapt_value(self.eval(node.expr, frame), inst.decl, self.t))
            return None
        if isinstance(node, ContAssign):
            inst = self._lookup(node.name, frame)
            if not isinstance(inst, ContInstance):
                raise KernelError(f"{node.name!r} is not a continuous variable", self.t)
            value = self.eval(node.expr, frame)
            if isinstance(value, bool):
                raise KernelError(f"boolean written to {node.name!r}", self.t)
            self.write(inst, Fraction(value))
            return None
        if isinstance(node, Seq):
            for i, stmt in enumerate(node.stmts):
                res = self.run(stmt, frame)
                if res is not None:
                    return SeqRes(node, i, res)
            return None
        if isinstance(node, Parallel):
            children = tuple([self.run(branch, frame) for branch in node.branches])
            if all(c is None for c in children):
                return None
            return ParRes(node, children)
        if isinstance(node, If):
            if self.eval(node.cond, frame):
                res = self.run(node.then, frame)
                return IfRes(node, 0, res) if res is not None else None
            res = self.run(node.orelse, frame)
            return IfRes(node, 1, res) if res is not None else None
        if isinstance(node, Loop):
            res = self.run(node.body, frame)
            if res is None:
                raise KernelError("loop body completed without pausing", self.t)
            return LoopRes(node, res)
        if isinstance(node, Abort):
            if node.immediate and self.eval(node.guard, frame):
                return None
            res = self.run(node.body, frame)
            return AbortRes(node, res) if res is not None else None
        if isinstance(node, Suspend):
            if node.immediate and self.eval(node.guard, frame):
                return SuspendRes(node, None)
            res = self.run(node.body, frame)
            return SuspendRes(node, res) if res is not None else None
        if isinstance(node, SignalDecl):
            inst = SignalInstance(node)
            self.register(inst, self._signal_init(node, frame))
            res = self.run(node.body, {**frame, node.name: inst})
            return DeclRes(node, inst, res) if res is not None else None
        if isinstance(node, ContDecl):
            init = (
                Fraction(self.eval(node.init, frame)) if node.init is not None else Fraction(0)
            )
            inst = ContInstance(node)
            self.register(inst, init)
            res = self.run(node.body, {**frame, node.name: inst})
            return DeclRes(node, inst, res) if res is not None else None
        if isinstance(node, ParamDecl):
            raise KernelError("unbound named constant at runtime", self.t)
        if isinstance(node, Label):
            res = self.run(node.body, frame)
            return LabelRes(node, res) if res is not None else None
        if isinstance(node, DoUntil):
            if not self.state.native_flows:
                raise KernelError(
                    "flow action reached the kernel without being rewritten", self.t
                )
            return self._flow_step(node, frame)
        raise KernelError(f"unhandled statement {node!r}", self.t)

    def _signal_init(self, node: SignalDecl, frame: dict):
        if node.pure:
            return None
        if node.init is not None:
            return _adapt_value(self.eval(node.init, frame), node, self.t)
        if node.stype == "boolean":
            return False
        return Fraction(0)

    # -- resumption -----------------------------------------------------------

    def resume(self, res, frame: dict):
        if isinstance(res, PauseRes):
            return None
        if isinstance(res, SeqRes):
            node = res.node
            child = self.resume(res.child, frame)
            if child is not None:
                return SeqRes(node, res.index, child)
            for i in range(res.index + 1, len(node.stmts)):
                nxt = self.run(node.stmts[i], frame)
                if nxt is not None:
                    return SeqRes(node, i, nxt)
            return None
        if isinstance(res, ParRes):
            children = tuple([
                None if c is None else self.resume(c, frame) for c in res.children
            ])
            if all(c is None for c in children):
                return None
            return ParRes(res.node, children)
        if isinstance(res, IfRes):
            child = self.resume(res.child, frame)
            return IfRes(res.node, res.branch, child) if child is not None else None
        if isinstance(res, LoopRes):
            child = self.resume(res.child, frame)
            if child is not None:
                return LoopRes(res.node, child)
            child = self.run(res.node.body, frame)
            if child is None:
                raise KernelError("loop body completed without pausing", self.t)
            return LoopRes(res.node, child)
        if isinstance(res, AbortRes):
            if self.eval(res.node.guard, frame):
                self.kill(res.child)
                return None
            child = self.resume(res.child, frame)
            return AbortRes(res.node, child) if child is not None else None
        if isinstance(res, SuspendRes):
            if self.eval(res.node.guard, frame):
                return res  # frozen: no micro-steps this tick
            if res.child is None:
                child = self.run(res.node.body, frame)
            else:
                child = self.resume(res.child, frame)
            return SuspendRes(res.node, child) if child is not None else None
        if isinstance(res, DeclRes):
            child = self.resume(res.child, {**frame, res.node.name: res.instance})
            return DeclRes(res.node, res.instance, child) if child is not None else None
        if isinstance(res, LabelRes):
            child = self.resume(res.child, frame)
            return LabelRes(res.node, child) if child is not None else None
        if isinstance(res, FlowRes):
            if res.stop:
                return None
            return self._flow_step(res.node, frame)
        raise AssertionError(f"unhandled residue {res!r}")

    def _flow_step(self, node: DoUntil, frame: dict):
        """One iteration of a natively interpreted flow: assignments in
        source order, then the look-ahead; a failed look-ahead terminates
        the flow on the next resume, exactly like the rewritten form."""
        site = self._site(node)
        for name, rate in site.odes:
            inst = self._lookup(name, frame)
            if not isinstance(inst, ContInstance):
                raise KernelError(f"{name!r} is not a continuous variable", self.t)
            self.write(inst, self.read_value(inst) + rate * self.state.cfg.wcrt)
        if isinstance(node.invariant, BoolLit) and node.invariant.value:
            return FlowRes(node, stop=False)
        ok = self._eval_ttl(site, node.invariant, frame)
        return FlowRes(node, stop=not ok)

    # -- end of tick ----------------------------------------------------------

    def settle(self) -> TickRecord:
        """Fold the tick's writes into every instance that was live during
        it and name them in registration order; the store keeps the ones
        still live. An instance whose scope ended this tick settles once."""
        labels: list = []
        live: list = []
        _live_in(self.state.residue, labels, live)
        live = set(live)
        statuses: dict = {}
        values: dict = {}
        conts: dict = {}
        seen: dict = {}
        store: dict = {}
        for inst, (status, value) in self.prev.items():
            name = _disambiguate(inst.decl.name, seen)
            writes = self.writes.get(inst)
            if writes:
                value = _fold_writes(inst, writes, self.t)
            if isinstance(inst, SignalInstance):
                status = inst in self.emitted
                statuses[name] = status
                if not inst.decl.pure:
                    values[name] = value
            else:
                conts[name] = value
            if inst in live:
                store[inst] = (status, value)
        self.state.store = store
        return TickRecord(
            tick=self.t,
            time=self.t * self.state.cfg.wcrt,
            statuses=statuses,
            values=values,
            conts=conts,
            labels=tuple(sorted(labels)),
        )


def _adapt_value(value, decl: SignalDecl, t: int):
    kind = decl.stype
    if kind == "boolean":
        if not isinstance(value, bool):
            raise KernelError(f"{decl.name!r} holds a boolean value", t)
        return value
    if isinstance(value, bool):
        raise KernelError(f"{decl.name!r} holds a numeric value", t)
    value = Fraction(value)
    if kind == "int" and value.denominator != 1:
        raise KernelError(f"{decl.name!r} holds an integer value", t)
    return value


def _fold_writes(inst, writes: list, t: int):
    if len(writes) == 1:
        return writes[0]
    op = inst.decl.combine
    if op is None:
        raise KernelError(
            f"{inst.decl.name!r} written {len(writes)} times in one tick "
            "with no combine operator",
            t,
        )
    return ttl_mod.combine_fold(op, writes)


# --- module-level operations -------------------------------------------------


def init(program: Program, cfg: RewriteConfig, native_flows: bool = False) -> TickState:
    """Machine state at tick 0: nothing has run, nothing is visible."""
    return TickState(program, cfg, native_flows=native_flows)


def normalize_schedule(schedule) -> dict:
    """Accept a list (index i = tick i+1), a dict {tick: assignment}, or
    None; return a dict."""
    if schedule is None:
        return {}
    if isinstance(schedule, dict):
        return schedule
    return {i + 1: a for i, a in enumerate(schedule) if a is not None}


def run(
    program: Program,
    cfg: RewriteConfig,
    schedule=None,
    max_ticks: int = 1000,
    native_flows: bool = False,
    record_reads: bool = False,
) -> Trace:
    """Run to termination or max_ticks; ticks past the end of the schedule
    see all inputs absent."""
    state = init(program, cfg, native_flows=native_flows)
    by_tick = normalize_schedule(schedule)
    if record_reads:
        state.read_log = []
    records = []
    for t in range(1, max_ticks + 1):
        records.append(state.advance(by_tick.get(t, EMPTY_INPUTS)))
        if state.terminated:
            break
    return Trace(
        wcrt=cfg.wcrt,
        records=records,
        terminated=state.terminated,
        termination_tick=state.termination_tick,
        initial_conts=dict(state.initial_conts),
        read_log=state.read_log,
    )
