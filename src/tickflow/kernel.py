"""Tick-by-tick execution under delayed synchronous semantics.

One tick: latch inputs, evaluate preemption guards of every paused abort
and suspend against previous-tick snapshots (an abort whose guard holds
discards its body before the body runs; neither kind evaluates its guard
on the tick its body was entered unless marked immediate), run all active
branches to their next pause or termination while every read observes only
previous-tick snapshots, then fold the tick's pending writes with the
declared combine operators and promote them to the visible snapshot.

The machine state between ticks is a residue tree mirroring the program
structure, with live declaration instances embedded. Identical
(program, config, schedule) triples produce identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    __slots__ = ("decl", "status_prev", "value_prev")

    def __init__(self, decl: SignalDecl, value_prev):
        self.decl = decl
        self.status_prev = False
        self.value_prev = value_prev

    @property
    def name(self):
        return self.decl.name

    def copy(self):
        inst = SignalInstance(self.decl, self.value_prev)
        inst.status_prev = self.status_prev
        return inst


class ContInstance:
    __slots__ = ("decl", "value_prev")

    def __init__(self, decl: ContDecl, value_prev: Fraction):
        self.decl = decl
        self.value_prev = value_prev

    @property
    def name(self):
        return self.decl.name

    def copy(self):
        return ContInstance(self.decl, self.value_prev)


# --- residues ----------------------------------------------------------------


@dataclass
class _Res:
    node: Stmt


@dataclass
class PauseRes(_Res):
    pass


@dataclass
class SeqRes(_Res):
    index: int
    child: "_Res"


@dataclass
class ParRes(_Res):
    children: list  # per branch: residue, or None once the branch finished


@dataclass
class IfRes(_Res):
    branch: int
    child: "_Res"


@dataclass
class LoopRes(_Res):
    child: "_Res"


@dataclass
class AbortRes(_Res):
    child: "_Res"


@dataclass
class SuspendRes(_Res):
    child: Optional["_Res"]  # None: immediate guard froze it before entry


@dataclass
class DeclRes(_Res):
    instance: object
    child: "_Res"


@dataclass
class LabelRes(_Res):
    child: "_Res"


@dataclass
class FlowRes(_Res):
    stop: bool  # computed last tick: terminate on resume without running


def _copy_res(res, copies: dict):
    """Copy a residue tree; `copies` maps id(instance) -> its copy."""
    if res is None:
        return None
    if isinstance(res, PauseRes):
        return PauseRes(res.node)
    if isinstance(res, SeqRes):
        return SeqRes(res.node, res.index, _copy_res(res.child, copies))
    if isinstance(res, ParRes):
        return ParRes(res.node, [_copy_res(c, copies) for c in res.children])
    if isinstance(res, IfRes):
        return IfRes(res.node, res.branch, _copy_res(res.child, copies))
    if isinstance(res, LoopRes):
        return LoopRes(res.node, _copy_res(res.child, copies))
    if isinstance(res, AbortRes):
        return AbortRes(res.node, _copy_res(res.child, copies))
    if isinstance(res, SuspendRes):
        return SuspendRes(res.node, _copy_res(res.child, copies))
    if isinstance(res, DeclRes):
        return DeclRes(res.node, copies[id(res.instance)], _copy_res(res.child, copies))
    if isinstance(res, LabelRes):
        return LabelRes(res.node, _copy_res(res.child, copies))
    if isinstance(res, FlowRes):
        return FlowRes(res.node, res.stop)
    raise AssertionError(f"unhandled residue {res!r}")


def _instances_in(res, out: list):
    if res is None:
        return
    if isinstance(res, DeclRes):
        out.append(res.instance)
        _instances_in(res.child, out)
    elif isinstance(res, (SeqRes, IfRes, LoopRes, AbortRes, SuspendRes, LabelRes)):
        _instances_in(res.child, out)
    elif isinstance(res, ParRes):
        for child in res.children:
            _instances_in(child, out)


def _labels_in(res, out: list):
    if res is None:
        return
    if isinstance(res, LabelRes):
        out.append(res.node.name)
        _labels_in(res.child, out)
    elif isinstance(res, DeclRes):
        _labels_in(res.child, out)
    elif isinstance(res, (SeqRes, IfRes, LoopRes, AbortRes, SuspendRes)):
        _labels_in(res.child, out)
    elif isinstance(res, ParRes):
        for child in res.children:
            _labels_in(child, out)


_UNSTARTED = object()


# --- the machine -------------------------------------------------------------


class TickState:
    """Full machine state at a tick boundary."""

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
        self.residue = _UNSTARTED
        self.tick = 0
        self.terminated = False
        self.termination_tick: Optional[int] = None
        self.registry: dict = {}  # id(instance) -> instance, insertion ordered
        self.initial_conts: dict = {}  # first initial value per cont name
        self.input_names = {d.name for d in program.inputs()}
        self.output_names = [d.name for d in program.outputs()]
        self.sites: dict = {}  # id(flow or TTL node) -> its FlowSite
        self.read_log: Optional[list] = None

    # -- state duplication (for search) --

    def clone(self) -> "TickState":
        dup = TickState.__new__(TickState)
        dup.program = self.program
        dup.cfg = self.cfg
        dup.native_flows = self.native_flows
        # copy in registry order: settle names same-named instances by it
        copies = {key: inst.copy() for key, inst in self.registry.items()}
        dup.residue = (
            self.residue if self.residue is _UNSTARTED else _copy_res(self.residue, copies)
        )
        dup.tick = self.tick
        dup.terminated = self.terminated
        dup.termination_tick = self.termination_tick
        dup.registry = {id(inst): inst for inst in copies.values()}
        dup.initial_conts = dict(self.initial_conts)
        dup.input_names = self.input_names
        dup.output_names = self.output_names
        dup.sites = self.sites
        dup.read_log = None
        return dup

    # -- one tick --

    def advance(self, inputs: InputAssignment = EMPTY_INPUTS) -> TickRecord:
        if self.terminated:
            raise KernelError("program already terminated", self.tick)
        t = self.tick + 1
        self._validate_inputs(inputs, t)
        ctx = _TickCtx(self, inputs, t)
        for inst in list(self.registry.values()):
            ctx.latch_input(inst)
        try:
            if self.residue is _UNSTARTED:
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
        _instances_in(None if self.residue is _UNSTARTED else self.residue, live)
        for inst in live:
            name = _disambiguate(inst.name, seen)
            if isinstance(inst, SignalInstance):
                out[name] = (inst.status_prev, inst.value_prev)
            else:
                out[name] = inst.value_prev
        return out


def _disambiguate(name: str, seen: dict) -> str:
    count = seen.get(name, 0) + 1
    seen[name] = count
    return name if count == 1 else f"{name}:{count}"


class _TickCtx:
    """Per-tick scratch: pending emissions and writes, plus the evaluator."""

    def __init__(self, state: TickState, inputs: InputAssignment, t: int):
        self.state = state
        self.inputs = inputs
        self.input_values = inputs.value_map()
        self.t = t
        self.emitted: set = set()  # id(instance)
        self.writes: dict = {}  # id(instance) -> [value, ...]

    # -- effects --

    def latch_input(self, inst):
        if not isinstance(inst, SignalInstance):
            return
        if inst.decl.direction != "input":
            return
        name = inst.name
        if name in self.inputs.present:
            self.emitted.add(id(inst))
        if name in self.input_values:
            if inst.decl.pure:
                raise KernelError(f"value supplied for pure input {name!r}", self.t)
            self.writes.setdefault(id(inst), []).append(
                _adapt_value(self.input_values[name], inst.decl, self.t)
            )

    def emit(self, inst):
        self.emitted.add(id(inst))

    def write(self, inst, value):
        self.writes.setdefault(id(inst), []).append(value)

    def register(self, inst):
        self.state.registry[id(inst)] = inst
        if isinstance(inst, ContInstance):
            self.state.initial_conts.setdefault(inst.name, inst.value_prev)
        self.latch_input(inst)

    def kill(self, res):
        """Discard a residue subtree: its instances vanish unsettled. A
        killed subtree has not run this tick (guards are evaluated top-down
        before bodies), so it holds no pending effects."""
        gone: list = []
        _instances_in(res, gone)
        for inst in gone:
            self.state.registry.pop(id(inst), None)
            self.writes.pop(id(inst), None)
            self.emitted.discard(id(inst))

    # -- reads --

    def read_status(self, inst) -> bool:
        if self.state.read_log is not None:
            self.state.read_log.append((self.t, inst.name, "status", inst.status_prev))
        return inst.status_prev

    def read_value(self, inst):
        if self.state.read_log is not None:
            self.state.read_log.append((self.t, inst.name, "value", inst.value_prev))
        return inst.value_prev

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
            children = [self.run(branch, frame) for branch in node.branches]
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
            inst = SignalInstance(node, self._signal_init(node, frame))
            self.register(inst)
            res = self.run(node.body, {**frame, node.name: inst})
            return DeclRes(node, inst, res) if res is not None else None
        if isinstance(node, ContDecl):
            init = (
                Fraction(self.eval(node.init, frame)) if node.init is not None else Fraction(0)
            )
            inst = ContInstance(node, init)
            self.register(inst)
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
            children = [
                None if c is None else self.resume(c, frame) for c in res.children
            ]
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
        statuses: dict = {}
        values: dict = {}
        conts: dict = {}
        seen: dict = {}
        for inst in self.state.registry.values():
            name = _disambiguate(inst.name, seen)
            if isinstance(inst, SignalInstance):
                inst.status_prev = id(inst) in self.emitted
                writes = self.writes.get(id(inst))
                if writes:
                    inst.value_prev = _fold_writes(inst, writes, self.t)
                statuses[name] = inst.status_prev
                if not inst.decl.pure:
                    values[name] = inst.value_prev
            else:
                writes = self.writes.get(id(inst))
                if writes:
                    inst.value_prev = _fold_writes(inst, writes, self.t)
                conts[name] = inst.value_prev
        labels: list = []
        _labels_in(self.state.residue if self.state.residue is not _UNSTARTED else None,
                   labels)
        # prune instances whose scope ended this tick (they settled once)
        live: list = []
        _instances_in(
            self.state.residue if self.state.residue is not _UNSTARTED else None, live
        )
        live_ids = {id(inst) for inst in live}
        for key in list(self.state.registry):
            if key not in live_ids:
                del self.state.registry[key]
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
            f"{inst.name!r} written {len(writes)} times in one tick "
            "with no combine operator",
            t,
        )
    return ttl_mod.combine_fold(op, writes)


# --- module-level operations -------------------------------------------------


def init(program: Program, cfg: RewriteConfig, native_flows: bool = False) -> TickState:
    """Machine state at tick 0: nothing has run, nothing is visible."""
    return TickState(program, cfg, native_flows=native_flows)


def tick(state: TickState, inputs: InputAssignment = EMPTY_INPUTS):
    """Advance one tick. Returns (state, outputs) where outputs carries the
    settled status (and value, for valued signals) of every output signal."""
    record = state.advance(inputs)
    outputs = {}
    for name in state.output_names:
        if name in record.statuses:
            outputs[name] = (record.statuses[name], record.values.get(name))
    return state, outputs


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
