"""Tick-by-tick execution under delayed synchronous semantics.

One tick: evaluate preemption guards of every paused abort and suspend
against previous-tick settled values (an abort whose guard holds discards
its body before the body runs; neither kind evaluates its guard on the
tick its body was entered unless marked immediate), run all active
branches to their next pause or termination while every read observes
only previous-tick settled values, fold the tick's pending writes with
the declared combine operators, latch the tick's inputs, and settle, so
that all of it is visible from the next tick on.

Since no read sees the tick's own inputs, the code of a tick, the residue
it leaves, its labels, the scopes it ends and every write but an input's
are the same under every input choice. So the code runs once, latching
nothing (a declaration of an input only notes the instance it registers),
and every choice, the empty one included, is latched after it by one
path (`_TickCtx.latch`): a present input instance is emitted, and a
supplied value is the first write of its instance, folded with the
code's writes by the one `fold`. The instances latched are those live at
the tick's start and those the code registered; one the tick killed is
checked but not latched. The empty choice's tick is the run itself, with
the code's writes folded once; any other choice is a plain `_Tick` view
of the run with its own emissions and folded values, and the search
latches every choice of its alphabet onto one run of each state's tick.
Errors are raised per choice, in the order a tick that latched before
its code would meet them.

A program is compiled once per program object, tick length and flow
mode, when the first `TickState` of it is built: `Program.derived` keeps
the code on the object (not on its value, since the code names the
object's own nodes), so later runs, searches and replays of it, and every
state they reach, share it. Only a checked program is compiled:
`_compile` runs `syntax.check_program` on it first, so the code never
meets an unbound name, a statement used against its declaration's kind or
a loop body that can complete without pausing. What depends on values
stays a runtime `KernelError` at the tick that meets it: a value that does
not fit its signal's type (an `int` signal given `1/2`, or an input of
the wrong kind), two writes to one instance with no combine operator, and
several rates of one variable with no operator.

Each statement becomes a pair of closures: `run(ctx)` enters it afresh
and `resume(ctx, res)` continues it from the residue it left. A parent
picks the child that resumes a residue by its index (a Seq's statement or
an If's branch) or Par slot, so a tick dispatches on nothing. Each
expression becomes a closure too. Names resolve to slots at compile time:
a declaration has at most one live instance across ticks, so the per-tick
list `ctx.env` holds it in the declaration's slot. A tick fills `env` from
the store it starts from, a declaration's run puts its new instance there,
and its resume and its scope's end read it there; an abort that fires
drops the live instances of the declarations its body declares, a list
fixed at compile time.

A look-ahead compiles to reads of its site's variables, in site order,
into slots of its own that shadow them, then its invariant. A variable
whose prediction is affine in its settled value (`ttl.affine_form`;
every variable of a rewritten flow is) keeps that value in its slot: the
invariant's `name <op> literal` compiles to one integer cross-multiplication
against the threshold `(literal - shift)/scale`, folded at compile time,
and any other use of the name computes `scale*value + shift`. A
comparison of a continuous variable with a literal compiles to the same
integer test. Any other variable's slot holds its prediction, computed
once every variable is read. So the look-ahead of a rewritten flow does
no `Fraction` arithmetic: a flow tick's only `Fraction`s are its steps,
one per variable (see the fused run below).

A statement compiled with resume None can never pause, and the compiler
uses that to emit straight-line code for five shapes:

- an If whose branches cannot pause is one closure with resume None; a
  `!e` condition compiles `e` and swaps the branches, and a `nothing`
  branch is not called;
- a Seq whose statements cannot pause is one closure with resume None,
  and a Seq whose only pause is its final `pause` runs its other
  statements and returns one residue built at compile time, with resume
  `_none`;
- a Loop whose body resumes with `_none` (a body that pauses whenever it
  runs and terminates whenever it resumes) re-runs the body directly;
- `v = w + c`, `w` a continuous variable and `c` a literal (every step of
  a rewritten flow, and the native flow's step), reads `w` through the
  same logged read and builds `ratio(n*q + p*d, d*q)` from integers, where
  `n/d` and `p/q` are `w`'s and `c`'s `as_integer_ratio()`;
- a run of such steps on one `op+` variable, consecutive in a
  straight-line Seq or in a native flow's rates (a flow with two rates on
  `v` has the body `v = v + c1; v = v + c2; if (!TTL..) emit; pause`), is
  one closure: it reads each `w` in order and writes one `ratio`, the
  exact sum its writes fold to under `op+`, from integer cross-products.
  With no other writer of `v` in the tick, that write settles as it is.

None of them changes a residue's value. An If that cannot pause left no
residue before either; the shared residue equals the one a tick built
(same index, and a pause's leaf is `True`); a Loop adds no residue of its
own; a Seq's residue indexes its source statements, fused or not. An If
that can pause keeps its branches and their numbering, `!` or not. Reads
happen in the same order, and writes fold to the same values and raise
the same errors, so traces, read logs, state keys and verdicts are what
the generic code gives.

A machine state is a value, and holds only what a tick reads or decides:
the code, the input names and the read log it shares with its run, a
residue (a tuple tree of the paused points of the program; see
"residues" below), a store mapping each live declaration instance to its
settled (status, value) in registration order, and the tick it follows.
A loop, an abort or a declaration resumes its body's residue, so none
adds a node of its own. `TickState.step`
runs one tick from a state and leaves the state as it was; the tick's
`settle` builds the next state. A tick builds its own residue and store
and never mutates the old ones, so states share the residue subtrees a
tick did not rebuild and the code. A state has terminated when a tick
left it no residue. The first initial value of each continuous variable
belongs to the run, not to a state: each tick lists the instances it
registered (`fresh`), and `run` keeps the first value of each name. A
record's time, `wcrt × tick`, is computed where it is printed. The tick
records the labels that hold a paused point as it builds the residue, and
each declaration records its scope ending, so settling walks no residue.
Identical (program, config, schedule) triples produce identical traces.

`TickState.advance` is `step` then `record`, which a caller that reads
less can take apart. `step` runs the tick and latches its inputs, which
folds each instance's writes once; `record` names the folded writes in a
`TickRecord` and builds the next state in the same pass over the
instances, and returns both. `settle` returns the next state and its
key, the tuple `verify.fingerprint` gives it, both built in one pass.
The search steps each state it expands on its first choice, latches
every other choice onto that tick (`latch`), reads the one status it
checks, settles only a state it keys and records only a witness.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Optional

from .errors import ArgumentError, KernelError
from .rational import ratio
from .rewrite import RewriteConfig, flow_site
from .struct import Struct
from .syntax.checks import check_program
from .syntax.nodes import (
    Binary,
    BoolLit,
    ContAssign,
    NameRef,
    NumLit,
    Pause,
    Program,
    SignalDecl,
    Stmt,
    Unary,
    ValueRef,
)
from . import ttl as ttl_mod
from .trace import TickRecord, Trace


# --- input assignments -------------------------------------------------------


class InputAssignment(Struct):
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


class Instance:
    """One entry of a declaration's scope: an identity token whose settled
    (status, value) lives in `TickState.store`. `decl` tells a signal from
    a continuous variable, whose settled status is always False; `slot`,
    the declaration's environment slot, finds it at a tick's start and
    names it in a state key."""

    __slots__ = ("decl", "slot")

    def __init__(self, decl, slot):
        self.decl = decl
        self.slot = slot


# --- residues ----------------------------------------------------------------
#
# A residue is a plain value built of tuples, ints, bools and strs, so a
# state key hashes and compares in C. A leaf (a pause, or a native flow) is
# its `stop` bool: terminate on resume without running, always true for a
# pause and computed last tick by a native flow's look-ahead. A Seq or an If
# leaves `(index, child)`, the index of the statement or branch that paused;
# a Par the tuple of its branches' residues, None for a finished branch; a
# label `(name, child)`; and a suspend `(child,)`, whose child is None when
# an immediate guard froze the body before entry. A loop, an abort and a
# declaration leave their body's residue and add nothing of their own.
# Residues name no node, and that is exact within one program: walking down
# from the root, the statements passed on the way and each residue's index
# or Par position fix its node. Nor do they name an instance: a declaration
# has at most one live instance across ticks, so a tick finds it by its
# slot in the store (`_TickCtx.env`).


def _labels_in(res, labels: list):
    """Collect the names of the labels a residue holds. Its shapes tell
    themselves apart: a label's head is a str, a Seq's or an If's an int,
    and a Par's or a suspend's a residue or None, never an int."""
    if res.__class__ is not tuple:
        return
    head = res[0]
    if head.__class__ is str:
        labels.append(head)
        _labels_in(res[1], labels)
    elif head.__class__ is int:
        _labels_in(res[1], labels)
    else:
        for child in res:
            _labels_in(child, labels)


# --- the machine -------------------------------------------------------------


class TickState:
    """Machine state at a tick boundary, a value: `step` leaves it as it
    was, and the tick it returns builds the next state. Every state of one
    run shares the compiled code and `read_log`, the list reads are logged
    to, or None."""

    __slots__ = ("code", "input_names", "read_log", "tick", "residue", "store")

    def __init__(
        self, program: Program, cfg: RewriteConfig, native_flows: bool = False,
        read_log: Optional[list] = None,
    ):
        self.code, self.input_names = program.derived(
            ("code", cfg.wcrt, native_flows), lambda: _compile(program, cfg, native_flows)
        )
        self.read_log = read_log
        self.tick = 0
        self.residue = None  # None before tick 1 and after termination
        # live instance -> settled (status, value), in registration order
        self.store: dict = {}

    @property
    def terminated(self) -> bool:
        return self.residue is None and self.tick > 0

    # -- one tick --

    def advance(self, inputs: InputAssignment = EMPTY_INPUTS) -> tuple:
        """Run one tick: the next state and the tick's record."""
        return self.step(inputs).record()

    def step(self, inputs: InputAssignment = EMPTY_INPUTS) -> "_Tick":
        """Run one tick and latch `inputs` onto it, but build neither the
        next state nor the record: the returned tick's `settle` builds the
        state and its key, and its `record` the state and the record, from
        what it folded. The code runs once, whatever the inputs; `inputs`
        are latched onto the run after it (`_TickCtx.latch`), and the
        tick's `latch` latches any other choice onto the same run."""
        if self.terminated:
            raise KernelError("program already terminated", self.tick)
        run, resume, slots = self.code
        ctx = _TickCtx(self, self.tick + 1, slots)
        try:
            ctx.residue = run(ctx) if self.tick == 0 else resume(ctx, self.residue)
        except KernelError as err:
            ctx.error = err if err.tick is not None else KernelError(err.message, ctx.t)
        return ctx.latch(inputs)

    def _validate_inputs(self, inputs: InputAssignment, t: int):
        for name in inputs.present:
            if name not in self.input_names:
                raise KernelError(f"{name!r} is not a declared input", t)
        for name, _ in inputs.values:
            if name not in self.input_names:
                raise KernelError(f"{name!r} is not a declared input", t)

    def _after(self, tick: "_Tick", store: dict) -> "TickState":
        """The state the tick `tick` ran from this one leads to."""
        state = object.__new__(TickState)
        state.code = self.code
        state.input_names = self.input_names
        state.read_log = self.read_log
        state.tick = tick.t
        state.residue = tick.residue
        state.store = store
        return state


class _Tick:
    """A tick that has run and folded its writes: `residue` is what it
    left, `prev` maps every instance live during it, in registration order,
    to its previous-tick (status, value), `emitted` holds the instances it
    made present, `folded` the value each written instance settles to and
    `fresh` the instances it registered, in registration order (their
    `prev` entries hold their initial values). `settle`, `record` and
    `settles_present` read only these. The run itself is a `_TickCtx`; one
    input choice latched onto it is a plain `_Tick`, a view that shares the
    run's residue, labels, ended scopes and instances, keeps its own
    `emitted` and `folded`, and holds the run in `run`."""

    __slots__ = (
        "state", "t", "residue", "prev", "emitted", "folded", "ended", "labels", "fresh",
        "run",
    )

    def settle(self) -> tuple:
        """The next state and its key, `verify.fingerprint` of it. Its
        store holds every instance whose scope did not end this tick, in
        registration order, with its settled status and value; the same
        pass lays each out in the key as its slot, status and value, a
        rational value as its (numerator, denominator)."""
        folded, emitted, ended = self.folded, self.emitted, self.ended
        store, flat = {}, []
        for inst, (_, value) in self.prev.items():
            if inst in ended:
                continue
            present = inst in emitted
            if inst in folded:
                value = folded[inst]
            store[inst] = (present, value)
            if value.__class__ is Fraction:
                flat += (inst.slot, present, value.as_integer_ratio())
            else:
                flat += (inst.slot, present, value)
        residue = self.residue
        return self.state._after(self, store), (residue is None, residue, tuple(flat))

    def record(self) -> tuple:
        """The next state and the tick's record. The record names every
        instance that was live during the tick in registration order, the
        second of a name `S` as `S:2`, with its settled status or value; an
        instance whose scope ended this tick is recorded too. The same pass
        builds the store `settle` builds (a continuous variable is never
        emitted, so it settles absent)."""
        t, folded, emitted, ended = self.t, self.folded, self.emitted, self.ended
        statuses, values, conts, seen, store = {}, {}, {}, {}, {}
        for inst, (_, value) in self.prev.items():
            decl = inst.decl
            name = decl.name
            if name in seen:
                count = seen[name] = seen[name] + 1
                name = f"{name}:{count}"
            else:
                seen[name] = 1
            if inst in folded:
                value = folded[inst]
            if decl.__class__ is SignalDecl:
                present = statuses[name] = inst in emitted
                if decl.stype is not None:
                    values[name] = value
            else:
                present = False
                conts[name] = value
            if inst not in ended:
                store[inst] = (present, value)
        labels = tuple(sorted(self.labels))
        return self.state._after(self, store), TickRecord(t, statuses, values, conts, labels)

    def settles_present(self, name: str) -> bool:
        """Whether the record shows `name` present: the record names the
        first instance in registration order whose declaration is `name`
        by that name, whether or not its scope ended this tick."""
        for inst in self.prev:
            if inst.decl.name == name:
                return inst in self.emitted
        return False

    def latch(self, inputs: InputAssignment) -> _Tick:
        """Another input choice, latched onto the same run."""
        return self.run.latch(inputs)


class _TickCtx(_Tick):
    """One run of a tick's code from `state`, which it never writes: the
    slot environment, the settled values reads observe, pending emissions
    and writes, and what the tick records. Every read sees the previous
    tick, so the run is the same for every input choice: it latches no
    input. `latch` lays one input choice over it, and `fold` turns its
    writes, with the choice's values first, into settled values.

    A run that raised keeps its error in `error` and the instances
    registered before it in `fresh`; `latch` raises it after the checks of
    the choice's own values. `folded` holds the code's own writes folded,
    once the first choice that latches no value needs them."""

    __slots__ = ("env", "writes", "log", "latchable", "error")

    def __init__(self, state: TickState, t: int, slots: int):
        self.state = state
        self.t = t
        # declaration slot -> instance; TTL slot -> prediction
        self.env = env = [None] * slots
        for inst in state.store:  # at most one live instance per slot
            env[inst.slot] = inst
        # instance -> previous-tick (status, value), plus this tick's registrations
        self.prev: dict = dict(state.store)
        self.emitted: set = set()  # instances
        self.writes: dict = {}  # instance -> [value, ...]
        self.labels: list = []  # names of the labels holding a paused point
        self.ended: set = set()  # instances whose scope ended this tick
        self.log = state.read_log
        self.fresh: list = []  # instances registered this tick
        self.latchable = None  # every input instance a choice is latched onto
        self.error = None
        self.folded = None

    def kill(self, slots: tuple):
        """Discard an aborted body, which declares the declarations in
        `slots`: their live instances vanish unsettled. The body has not
        run this tick (guards are evaluated top-down before bodies), so
        each slot holds None or the instance live at the tick's start, and
        no pending effects."""
        env, prev, writes, emitted = self.env, self.prev, self.writes, self.emitted
        for slot in slots:
            inst = env[slot]
            if inst is not None:
                del prev[inst]
                writes.pop(inst, None)
                emitted.discard(inst)

    def latch(self, inputs: InputAssignment) -> _Tick:
        """This tick under the input choice `inputs`: the run itself when
        the choice is empty, else a `_Tick` view of it. An input instance
        the choice names is made present or given its value unless the tick
        killed it; a killed one is checked all the same. Errors come in the
        order a tick that latched before its code would meet them: an input
        the program does not declare; the value of each input instance live
        at the tick's start, in registration order (`value supplied for
        pure input`, `_adapt`); those of the instances the code registered
        before it raised, if it did; the code's error; and last a double
        write with no combine operator (`fold`)."""
        if not inputs.present and not inputs.values:
            if self.error is not None:
                raise self.error
            if self.folded is None:
                self.folded = self.fold()
            return self
        self.state._validate_inputs(inputs, self.t)
        present, values = inputs.present, dict(inputs.values)
        live, emitted, latched = self.prev, self.emitted, []
        try:
            for inst in self.input_instances():
                decl = inst.decl
                name = decl.name
                if name in values:
                    value = input_value(values[name], decl)
                    if inst in live:
                        latched.append((inst, value))
                if name in present and inst in live:
                    if emitted is self.emitted:
                        emitted = set(emitted)
                    emitted.add(inst)
        except KernelError as err:
            raise KernelError(err.message, self.t) from None
        if self.error is not None:
            raise self.error
        view = _Tick()
        if latched:
            view.folded = self.fold(latched)
        elif self.folded is None:
            view.folded = self.folded = self.fold()
        else:
            view.folded = self.folded
        view.emitted = emitted
        view.run = self
        view.state, view.t, view.residue = self.state, self.t, self.residue
        view.prev, view.ended, view.labels = live, self.ended, self.labels
        view.fresh = self.fresh
        return view

    def input_instances(self) -> list:
        """The input instances live at the tick's start, then those the
        code registered, each in registration order; kept once built."""
        if self.latchable is None:
            self.latchable = [
                inst for inst in [*self.state.store, *self.fresh]
                if inst.decl.__class__ is SignalDecl and inst.decl.direction == "input"
            ]
        return self.latchable

    def fold(self, latched=()) -> dict:
        """The value each written instance settles to: its writes folded
        with its combine operator, each latched (instance, value) as the
        first write of its instance. Raises for the first instance in
        registration order written twice with no combine operator, whether
        its second write came from the code or its first from a latch."""
        writes = self.writes
        if latched:
            writes = dict(writes)
            for inst, value in latched:
                writes[inst] = [value, *writes.get(inst, ())]
        folded = {}
        for inst, pending in writes.items():
            if len(pending) == 1:
                folded[inst] = pending[0]
            elif inst.decl.combine is not None:
                folded[inst] = ttl_mod.combine_fold(inst.decl.combine, pending)
            else:
                first = next(
                    i for i in self.prev
                    if i.decl.combine is None and len(writes.get(i, ())) > 1
                )
                raise KernelError(
                    f"{first.decl.name!r} written {len(writes[first])} times in one "
                    "tick with no combine operator",
                    self.t,
                )
        return folded


def input_value(value, decl: SignalDecl):
    """`value`, supplied by the environment for the input `decl`, checked
    and converted as its latch does: a pure input holds no value, and a
    valued one holds only a value of its type."""
    if decl.pure:
        raise KernelError(f"value supplied for pure input {decl.name!r}")
    return _adapt(value, decl)


def _adapt(value, decl: SignalDecl):
    """Check and convert a value written to a valued signal."""
    kind = decl.stype
    if kind == "boolean":
        if value.__class__ is not bool:
            raise KernelError(f"{decl.name!r} holds a boolean value")
        return value
    if value.__class__ is not Fraction:
        if value.__class__ is bool:
            raise KernelError(f"{decl.name!r} holds a numeric value")
        value = Fraction(value)
    if kind == "int" and value.as_integer_ratio()[1] != 1:
        raise KernelError(f"{decl.name!r} holds an integer value")
    return value


# --- compilation -------------------------------------------------------------


def _compile(program: Program, cfg: RewriteConfig, native_flows: bool):
    """The code of `program` for `TickState.code`, and its input names. The
    program must pass the static checks, which raise their located error
    when it does not."""
    if program.params():
        raise KernelError("named constants must be bound before execution")
    if not native_flows and program.has_flows():
        raise KernelError(
            "program still contains flow actions; rewrite it or enable "
            "native flow interpretation"
        )
    check_program(program)
    compiler = _Compiler(cfg)
    run, resume = compiler.stmt(program.root, {})
    return (run, resume, compiler.slots), frozenset(d.name for d in program.inputs())


def _none(ctx, res=None):
    """Code that leaves no residue, as a run or as a resume."""
    return None


def _plus(reads: list, c: Fraction):
    """The code of `w1 + .. + wk + c` for reads `wi` of continuous variables
    and a `Fraction` constant `c`: the exact sum from integer cross-products,
    each value's integers read by one `as_integer_ratio()` and the result
    built by one `ratio` (its denominator, a product of denominators, is
    positive), without `Fraction.__add__`'s dispatch or `Fraction.__new__`.
    The reads run, and are logged, in order. The one-read form is the step
    `v + c`. With `c = c1 + .. + ck`, the k-read form is the value
    `(w1 + c1) + .. + (wk + ck)` that the k writes of a run of steps on one
    `op+` variable fold to."""
    p, q = c.as_integer_ratio()
    if len(reads) == 1:
        (read,) = reads

        def step(ctx):
            n, d = read(ctx).as_integer_ratio()
            return ratio(n * q + p * d, d * q)

        return step

    def fused(ctx):
        n, d = p, q
        for read in reads:
            m, e = read(ctx).as_integer_ratio()
            n, d = n * e + m * d, d * e
        return ratio(n, d)

    return fused


def _literal_step(node):
    """`(v, w, c)` for a statement `v = w + c`, `w` a name and `c` a
    `Fraction` literal (every step of a rewritten flow), else None. `w` is
    a continuous variable: the checks type a signal's name boolean."""
    if node.__class__ is not ContAssign:
        return None
    expr = node.expr
    if (
        expr.__class__ is not Binary
        or expr.op != "+"
        or expr.left.__class__ is not NameRef
        or expr.right.__class__ is not NumLit
        or expr.right.value.__class__ is not Fraction
    ):
        return None
    return node.name, expr.left.name, expr.right.value


def _write(slot: int, value):
    """The code of a write of `value`'s result to the instance in `slot`."""

    def run(ctx):
        ctx.writes.setdefault(ctx.env[slot], []).append(value(ctx))

    return run


def _reader(slot: int, name: str, kind: str, index: int):
    """A read of the previous-tick status (index 0) or value (index 1) of
    the instance in `slot`, logged when the state records reads."""

    def read(ctx):
        value = ctx.prev[ctx.env[slot]][index]
        if ctx.log is not None:
            ctx.log.append((ctx.t, name, kind, value))
        return value

    return read


_BINARY = {  # any other operator multiplies
    "&&": lambda a, b: a and b,  # both operands are evaluated first
    "||": lambda a, b: a or b,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge, "+": operator.add, "-": operator.sub,
}

_COMPARE = frozenset(("==", "!=", "<", "<=", ">", ">="))


class _Compiler:
    """Translates statements into (run, resume) closure pairs and
    expressions into closures. A scope maps each visible name to
    (kind, slot, declaration), kind being "signal", "cont" or "pred" (a
    look-ahead prediction, whose third entry is its affine form or None);
    `slots` counts the environment slots, and `declared` lists the
    declarations' slots in compile order (a look-ahead's are left out)."""

    def __init__(self, cfg: RewriteConfig):
        self.wcrt = cfg.wcrt
        self.slots = 0
        self.declared: list = []

    def slot(self) -> int:
        self.slots += 1
        return self.slots - 1

    def stmt(self, node: Stmt, scope: dict):
        return getattr(self, "stmt_" + node.__class__.__name__)(node, scope)

    # -- leaves --

    def stmt_Nothing(self, node, scope):
        return _none, None

    def stmt_Pause(self, node, scope):
        return (lambda ctx: True), _none

    def stmt_Emit(self, node, scope):
        slot = scope[node.name][1]

        def run(ctx):
            ctx.emitted.add(ctx.env[slot])

        return run, None

    def stmt_ValueWrite(self, node, scope):
        _, slot, decl = scope[node.name]
        expr = self.expr(node.expr, scope)

        def run(ctx):
            inst = ctx.env[slot]
            ctx.writes.setdefault(inst, []).append(_adapt(expr(ctx), decl))

        return run, None

    def stmt_ContAssign(self, node, scope):
        step = _literal_step(node)
        if step is not None:
            ((slot, value),) = self._steps([step], scope)
            return _write(slot, value), None
        slot = scope[node.name][1]
        expr = self.expr(node.expr, scope)

        def run(ctx):
            value = expr(ctx)
            if value.__class__ is not Fraction:
                value = Fraction(value)
            ctx.writes.setdefault(ctx.env[slot], []).append(value)

        return run, None

    def _steps(self, steps, scope) -> list:
        """The code of the steps `v = w + c`, given as `(v, w, c)` in source
        order, as (slot of `v`, code of the value written) pairs: one per
        step, but one per run of consecutive steps on one `op+` variable,
        which writes the sum the run's writes fold to (`_plus`)."""
        runs = []
        for target, name, c in steps:
            _, slot, decl = scope[target]
            read = _reader(scope[name][1], name, "value", 1)
            if runs and runs[-1][0] == slot and decl.combine == "plus":
                runs[-1][1].append(read)
                runs[-1][2] += c
            else:
                runs.append([slot, [read], c])
        return [(slot, _plus(reads, c)) for slot, reads, c in runs]

    def _fuse(self, stmts, runs, scope) -> list:
        """`runs`, the code of the straight-line statements `stmts`, with
        each run of consecutive steps `v = w + c` compiled together by
        `_steps`, so that a run on one `op+` variable is one closure."""
        fused, steps = [], []
        for stmt, run in zip(stmts, runs):
            step = _literal_step(stmt)
            if step is not None:
                steps.append(step)
                continue
            if steps:
                fused += [_write(slot, value) for slot, value in self._steps(steps, scope)]
                steps = []
            fused.append(run)
        fused += [_write(slot, value) for slot, value in self._steps(steps, scope)]
        return fused

    # -- control --

    def block(self, nodes, scope):
        """The run and the resume code of each statement of `nodes`."""
        return tuple(zip(*[self.stmt(node, scope) for node in nodes]))

    def stmt_Seq(self, node, scope):
        runs, resumes = self.block(node.stmts, scope)
        count = len(runs)
        last = node.stmts[-1]
        if all(r is None for r in resumes[:-1]) and (
            resumes[-1] is None or last.__class__ is Pause
        ):
            # straight-line code: no statement but a final pause can pause,
            # so the residue is None or always the pause's
            if resumes[-1] is None:
                effects, res, resume = runs, None, None
            else:
                res = (count - 1, True)
                effects, resume = runs[:-1], _none
            effects = self._fuse(node.stmts, effects, scope)

            def straight(ctx):
                for r in effects:
                    r(ctx)
                return res

            return straight, resume

        def run(ctx, start=0):
            for i in range(start, count):
                res = runs[i](ctx)
                if res is not None:
                    return (i, res)
            return None

        def resume(ctx, res):
            i, child = res
            child = resumes[i](ctx, child)
            if child is not None:
                return (i, child)
            return run(ctx, i + 1)

        return run, resume

    def stmt_Parallel(self, node, scope):
        runs, resumes = self.block(node.branches, scope)
        count = len(runs)

        def run(ctx):
            children = tuple([r(ctx) for r in runs])
            return None if children.count(None) == count else children

        def resume(ctx, res):
            children = tuple([None if c is None else r(ctx, c) for r, c in zip(resumes, res)])
            return None if children.count(None) == count else children

        return run, resume

    def stmt_If(self, node, scope):
        runs, resumes = self.block((node.then, node.orelse), scope)
        if resumes == (None, None):
            return self._choice(node.cond, *runs, scope), None
        cond = self.expr(node.cond, scope)

        def run(ctx):
            branch = 0 if cond(ctx) else 1
            res = runs[branch](ctx)
            return (branch, res) if res is not None else None

        def resume(ctx, res):
            branch, child = res
            child = resumes[branch](ctx, child)
            return (branch, child) if child is not None else None

        return run, resume

    def _choice(self, cond, then, orelse, scope):
        """An If whose branches cannot pause: no residue, one closure. A
        `!e` condition is `e` with the branches swapped, and a `nothing`
        branch is not called."""
        while cond.__class__ is Unary and cond.op == "!":
            cond, then, orelse = cond.operand, orelse, then
        test = self.expr(cond, scope)
        if then is _none and orelse is _none:

            def run(ctx):
                test(ctx)

        elif orelse is _none:

            def run(ctx):
                if test(ctx):
                    then(ctx)

        elif then is _none:

            def run(ctx):
                if not test(ctx):
                    orelse(ctx)

        else:

            def run(ctx):
                if test(ctx):
                    then(ctx)
                else:
                    orelse(ctx)

        return run

    def stmt_Loop(self, node, scope):
        body_run, body_resume = self.stmt(node.body, scope)
        if body_resume is _none:  # the body pauses whenever it runs
            return body_run, lambda ctx, res: body_run(ctx)

        def resume(ctx, res):  # the checks ensure a fresh body run pauses
            child = body_resume(ctx, res)
            return child if child is not None else body_run(ctx)

        return body_run, resume

    def stmt_Abort(self, node, scope):
        guard = self.expr(node.guard, scope)
        immediate = node.immediate
        first = len(self.declared)
        body_run, body_resume = self.stmt(node.body, scope)
        slots = tuple(self.declared[first:])  # the body's declarations

        def run(ctx):
            if immediate and guard(ctx):
                return None
            return body_run(ctx)

        def resume(ctx, res):
            if guard(ctx):
                ctx.kill(slots)
                return None
            return body_resume(ctx, res)

        return run, resume

    def stmt_Suspend(self, node, scope):
        guard = self.expr(node.guard, scope)
        immediate = node.immediate
        body_run, body_resume = self.stmt(node.body, scope)

        def run(ctx):
            if immediate and guard(ctx):
                return (None,)
            res = body_run(ctx)
            return (res,) if res is not None else None

        def resume(ctx, res):
            if guard(ctx):
                # frozen: no micro-steps this tick, but its labels still hold
                _labels_in(res[0], ctx.labels)
                return res
            child = res[0]
            child = body_run(ctx) if child is None else body_resume(ctx, child)
            return (child,) if child is not None else None

        return run, resume

    def stmt_Label(self, node, scope):
        body_run, body_resume = self.stmt(node.body, scope)
        name = node.name

        def run(ctx):
            res = body_run(ctx)
            if res is None:
                return None
            ctx.labels.append(name)
            return (name, res)

        def resume(ctx, res):
            child = body_resume(ctx, res[1])
            if child is None:
                return None
            ctx.labels.append(name)
            return (name, child)

        return run, resume

    # -- declarations --

    def stmt_SignalDecl(self, node, scope):
        if node.pure:
            init = _none
        elif node.init is not None:
            expr = self.expr(node.init, scope)
            init = lambda ctx: _adapt(expr(ctx), node)  # noqa: E731
        else:
            default = False if node.stype == "boolean" else Fraction(0)
            init = lambda ctx: default  # noqa: E731
        return self._declare(node, scope, "signal", init)

    def stmt_ContDecl(self, node, scope):
        expr = self.expr(NumLit(Fraction(0)) if node.init is None else node.init, scope)

        def init(ctx):
            value = expr(ctx)
            return value if value.__class__ is Fraction else Fraction(value)

        return self._declare(node, scope, "cont", init)

    def _declare(self, node, scope, kind, init):
        """A declaration's code: a new instance in a fresh slot, registered
        with its initial value (read in the outer scope) before the body
        runs; the instance ends with the body. The instance is noted in
        `fresh`: the latch after the tick reads the inputs there, and `run`
        the initial values. A resume finds the instance in its slot, and
        the declaration leaves its body's residue."""
        slot = self.slot()
        self.declared.append(slot)
        body_run, body_resume = self.stmt(node.body, {**scope, node.name: (kind, slot, node)})

        def run(ctx):
            value = init(ctx)
            inst = Instance(node, slot)
            ctx.prev[inst] = (False, value)
            ctx.fresh.append(inst)
            ctx.env[slot] = inst
            child = body_run(ctx)
            if child is None:
                ctx.ended.add(inst)
            return child

        def resume(ctx, res):
            child = body_resume(ctx, res)
            if child is None:
                ctx.ended.add(ctx.env[slot])
            return child

        return run, resume

    # -- flows --

    def stmt_DoUntil(self, node, scope):
        """A natively interpreted flow: per iteration the steps in source
        order, built by `_steps` as the rewritten form's are, then the
        look-ahead; a failed look-ahead terminates the flow on the next
        resume, exactly like the rewritten form. Only a state built with
        native flows holds one."""
        site = flow_site(node.odes)
        steps = self._steps([(name, name, rate * self.wcrt) for name, rate in site.odes], scope)
        always = isinstance(node.invariant, BoolLit) and node.invariant.value
        lookahead = None if always else self._lookahead(site, node.invariant, scope)

        def run(ctx):
            env, writes = ctx.env, ctx.writes
            for slot, step in steps:
                writes.setdefault(env[slot], []).append(step(ctx))
            if lookahead is None or lookahead(ctx):
                return False  # going on
            return True  # stopping on the next resume

        def resume(ctx, res):
            return None if res else run(ctx)

        return run, resume

    def _lookahead(self, site, invariant, scope):
        """The two-tick look-ahead: reads the site's variables in site order
        into slots of its own that shadow them for the whole invariant, and
        evaluates the invariant. A variable with an affine prediction keeps
        its settled value in the slot, and the invariant applies the form
        where it uses the name; any other variable's slot holds its
        prediction, computed once every variable is read."""
        reads, predicted, combine = [], [], {}
        inner = dict(scope)
        for name in site.vars:
            _, slot, decl = scope[name]
            if decl.combine is not None:
                combine[name] = decl.combine
            reads.append((self.slot(), _reader(slot, name, "value", 1)))
        predicts = ttl_mod.predictors(site.odes, site.vars, combine, self.wcrt)
        for name, (slot, _), predict in zip(site.vars, reads, predicts):
            form = ttl_mod.affine_form(site.odes, name, combine.get(name), self.wcrt)
            if form is None:
                predicted.append((slot, predict))
            inner[name] = ("pred", slot, form)
        check = self.expr(invariant, inner)

        def lookahead(ctx):
            env = ctx.env
            for slot, read in reads:
                env[slot] = read(ctx)
            for slot, predict in predicted:
                env[slot] = predict(env[slot])
            return check(ctx)

        return lookahead

    # -- expressions (previous-tick settled values only) --

    def expr(self, node, scope):
        cls = node.__class__
        if cls is NumLit or cls is BoolLit:
            value = node.value
            return lambda ctx: value
        if cls is NameRef:
            kind, slot, form = scope[node.name]
            if kind == "signal":
                return _reader(slot, node.name, "status", 0)
            if kind == "cont":
                return _reader(slot, node.name, "value", 1)
            if form is None:  # a look-ahead prediction, not a read
                return lambda ctx: ctx.env[slot]
            scale, shift = form
            return lambda ctx: scale * ctx.env[slot] + shift
        if cls is ValueRef:
            return _reader(scope[node.name][1], node.name, "value", 1)
        if cls is Unary:
            operand = self.expr(node.operand, scope)
            if node.op == "!":
                return lambda ctx: not operand(ctx)
            return lambda ctx: -operand(ctx)
        if cls is Binary:
            if (
                node.op in _COMPARE
                and node.left.__class__ is NameRef
                and node.right.__class__ is NumLit
                and node.right.value.__class__ is Fraction
            ):
                test = self._bound_test(node, scope)
                if test is not None:
                    return test
            fn = _BINARY.get(node.op, operator.mul)
            left = self.expr(node.left, scope)
            if node.right.__class__ in (NumLit, BoolLit):
                constant = node.right.value
                return lambda ctx: fn(left(ctx), constant)
            right = self.expr(node.right, scope)
            return lambda ctx: fn(left(ctx), right(ctx))
        # a TtlCall, the one kind of expression left
        return self._lookahead(flow_site(node.odes), node.invariant, scope)

    def _bound_test(self, node, scope):
        """`name <op> literal` on a continuous variable or an affine
        prediction, as one integer cross-multiplication, or None for any
        other name. For a prediction `scale*v + shift` the literal becomes
        the threshold `(c - shift)/scale`; both denominators are positive,
        so with `n, d = v.as_integer_ratio()`, `v <op> p/q` is
        `n*q <op> p*d`."""
        name, bound = node.left.name, node.right.value
        kind, slot, form = scope[name]
        if kind == "cont":
            read = _reader(slot, name, "value", 1)
        elif kind == "pred" and form is not None:
            scale, shift = form
            bound = (bound - shift) / scale
            read = None
        else:
            return None
        (p, q), cmp = bound.as_integer_ratio(), _BINARY[node.op]
        if read is None:

            def test(ctx):
                n, d = ctx.env[slot].as_integer_ratio()
                return cmp(n * q, p * d)
        else:

            def test(ctx):
                n, d = read(ctx).as_integer_ratio()
                return cmp(n * q, p * d)

        return test


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
    see all inputs absent. The trace keeps the first initial value of each
    continuous variable's name, in registration order."""
    if max_ticks < 0:
        raise ArgumentError("max_ticks", f"must be non-negative, got {max_ticks}")
    state = TickState(program, cfg, native_flows, [] if record_reads else None)
    by_tick = normalize_schedule(schedule)
    records, initial_conts = [], {}
    for t in range(1, max_ticks + 1):
        tick = state.step(by_tick.get(t, EMPTY_INPUTS))
        for inst in tick.fresh:
            decl = inst.decl
            if decl.__class__ is not SignalDecl and decl.name not in initial_conts:
                initial_conts[decl.name] = tick.prev[inst][1]
        state, record = tick.record()
        records.append(record)
        if state.terminated:
            break
    return Trace(
        wcrt=cfg.wcrt,
        records=records,
        terminated=state.terminated,
        initial_conts=initial_conts,
        read_log=state.read_log,
    )
