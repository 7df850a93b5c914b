"""Tick-by-tick execution under delayed synchronous semantics.

One tick: evaluate preemption guards of every paused abort and suspend
against previous-tick settled values (an abort whose guard holds discards
its body before the body runs; neither kind evaluates its guard on the
tick its body was entered unless marked immediate), run all active
branches to their next pause or termination while every read observes
only previous-tick settled values, fold the tick's pending writes with
the declared combine operators, latch the tick's inputs, and settle, so
that all of it is visible from the next tick on.

A tick's pending writes are one list of (key, value) pairs, which `fold`
settles with one `dict` call; it groups them by key, to combine or refuse
an instance's writes, only when that call shows one written twice.

Since no read sees the tick's own inputs, the code of a tick, the residue
it leaves, its labels, the scopes it ends and every write but an input's
are the same under every input choice. So the code runs once, latching
nothing (a declaration of an input only notes the instance it registers),
and that run (`_TickCtx`) is the one tick object: every choice, the empty
one included, is checked against it by one path (`_TickCtx.check`), and
settled, recorded or read through its methods that take the choice. A
present input instance is emitted, and a supplied value is the first
write of its instance, folded with the code's writes by the one `fold`
when the code wrote it. The instances given a value are those live at the
tick's start and those the code registered; one the tick killed is
checked but given none. Errors are raised per choice, in the order a tick
that latched before its code would meet them. A choice's names are
checked where they enter: by `TickState.step`, before the code runs, by
`run` for its whole schedule (`require_inputs`), and by the search for
its whole alphabet. A choice's next store, key and record are the empty
choice's, with only the entries of its input instances rewritten. A run
keeps one cache of its settled pass (`_TickCtx.settled`: the data, the
store, the plan and the next layout) and, for a key, one of that store
flattened (`keyed`).

A program is compiled once per program object, tick length, flow mode
and read logging, when the first `TickState` of it is built:
`Program.derived` keeps the code on the object (not on its value, since
the code names the object's own nodes), so later runs, searches and
replays of it, and every state they reach, share it. Only a checked
program is compiled: `_compile` runs `syntax.check_program` on it first,
so the code never meets an unbound name, a statement used against its
declaration's kind, a loop body that can complete without pausing or
simultaneous rates of a variable not declared `op+`. Only what depends on
values stays a runtime `KernelError` at the tick that meets it: a value
that does not fit its signal's type (an `int` signal given `1/2`, or an
input of the wrong kind) and two writes to one instance with no combine
operator.

A program compiles to Python source that `compile()` turns into two
functions: `run(ctx)` enters the program afresh and `resume(ctx, res)`
continues it from the residue it left. Each statement gives a part of
each, one line per read, write, emission, `_adapt` check, operation or
residue it builds, and a part leaves its residue in the local `r`. A Seq's
resume dispatches on its residue's index and goes on into the statements
after the one it resumed, in O(sqrt k) tests for k statements that can
pause (`_select`, `_chunks`); a Par resumes each live branch in turn; an
abort's or a suspend's guard is tested in place; a declaration registers
its instance in three lines; a label appends its name. Run code that two
sites need is one function that both call: a loop's body, restarted when
it ends, and a Seq's statements after its first that can pause, a
function of the index they start after, which the Seq's run and the
resume of each of its statements that ends call. So is a statement whose
code would be indented past 50 levels, since Python refuses 100: the
source grows linearly with the program. A Seq whose only pause is a final `pause`
leaves a residue built at compile time. The functions' file name is
`kernel.generated` beside this module, so a profile counts them as the
kernel's. Only the code of a state that logs reads logs them: a program
is compiled apart for that.

Names resolve to slots at compile time: a declaration has at most one
live instance across ticks, so the store holds it at a literal index,
the declaration's slot: a read is `prev[slot]` in the tick's copy of the
store, and `env[slot]` keys the instance for emissions, writes and the
scope's end (`_TickCtx`). An abort that fires drops the live instances
of the declarations its body declares, a list fixed at compile time.
Program text reaches the source only as the `repr` of a str or a number,
or as a constant bound into the functions' globals.

A look-ahead reads its site's variables, in site order, into slots of its
own that shadow them, then evaluates its invariant. Every prediction is
affine in its variable's settled value (`ttl.affine_form`), so the slot
keeps that value: the invariant's `name <op> literal` compiles to one
integer cross-multiplication against the threshold
`(literal - shift)/scale`, folded at compile time, and any other use of
the name computes `scale*value + shift`. A comparison of a continuous
variable with a literal is the same integer test. A step `v = w + c`
(every step of a rewritten or native flow), `w` a continuous variable and
`c` a literal, builds `ratio(p*d + n*q, q*d)` from `w`'s integers `n/d`,
read from its slots with no call (`rational.INTEGERS`), and `c`'s `p/q`,
folded at compile time; the integer test reads them so too. For an
integer `c` it builds `coprime(c*d + n, d)`, already in lowest terms, with
no gcd. A run of such steps on one `op+` variable, consecutive in
straight-line code or in a native flow's rates, writes once, by `ratio`,
the exact sum its writes fold to. So a flow tick's only `Fraction`s are
its steps.

None of this changes a residue: a region that cannot pause leaves none,
and a Seq's residue indexes its source statements. Reads, writes and
errors come in the same order, so traces, read logs, state keys and
verdicts are what evaluating one statement at a time gives.

A machine state is a value, and holds only what a tick reads or decides:
the code (which holds the program's input names) and the read log it
shares with its run, a residue (a tuple tree of the paused points of the
program; see "residues" below), a store, the settled (status, value) of
each slot's live instance or None, its layout, the live slots in
registration order (interned, so states share it), and the tick it
follows. Registration order names instances, the second live one of a
name `S` as `S:2`, and a re-registered slot moves after the others. A loop, an abort or a
declaration resumes its body's residue, so none adds a node of its own.
`TickState.step` runs one tick from a state and leaves the state as it
was; the tick's `settle` builds the next state. A tick builds its own
residue and store and never mutates the old ones, so states share the
code and the residue subtrees and (status, value) pairs a tick did not
rebuild. A state has terminated when a tick left it no residue. The
first initial value of each continuous variable belongs to the run, not
to a state: each tick lists the instances it registered (`fresh`), and
`run` keeps the first value of each name. A record's time, `wcrt ×
tick`, is computed where it is printed. The tick
records the labels that hold a paused point as it builds the residue, and
each declaration records its scope ending, so settling walks no residue.
Identical (program, config, schedule) triples produce identical traces.

A state stores whether it terminated, set where it is built. One tick
is `step(inputs)`, then `record()` or `settle()`, so a caller that reads
less builds less. `step` runs the tick and checks `inputs` against it,
which folds each instance's writes once; the run remembers the choice.
`record` returns the next state and the record, whose data tuple and
store come from straight-line code planned per order of a tick's
instances and shared by the orders of one kind signature (`_settler`).
`settle` returns the next state and its key, the tuple
`verify.fingerprint` gives it; both flatten a store by the one
`flat_key`. That is a key pass per run, over the next layout, that
`record` never makes, and per choice a pass over its input instances
(`patch`, which gives the store first, so that the search builds a state
only for a key it keeps). The search runs each state it expands on its
first choice, patches every choice from that run, reads the one status
it checks, and records only a witness.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from types import FunctionType
from typing import Optional

from .errors import ArgumentError, KernelError, NestingError
from .rational import INTEGERS, coprime, format_value, ratio
from .rewrite import RewriteConfig, flow_site
from .struct import Struct
from .syntax.checks import check_program
from .syntax.nodes import (
    BINARY,
    COMPARISONS,
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
from .trace import Layout, Trace, made_record


# --- input assignments -------------------------------------------------------


class InputAssignment(Struct):
    """Statuses and values the environment supplies for one tick."""

    present: frozenset = frozenset()
    values: tuple = ()  # ((name, value), ...) sorted by name

    @staticmethod
    def make(present=(), values=None) -> "InputAssignment":
        """The assignment of the names `present` and the {name: value} map
        `values`, built past the generic constructor, as `trace.made_record`
        builds a record: a search builds one per choice of its alphabet."""
        choice = object.__new__(InputAssignment)
        fields = choice.__dict__
        fields["present"] = frozenset(present)
        fields["values"] = tuple(sorted(values.items())) if values else ()
        return choice

    def value_map(self) -> dict:
        return dict(self.values)

    def is_empty(self) -> bool:
        return not self.present and not self.values


EMPTY_INPUTS = InputAssignment()

_NO_VALUES: dict = {}  # the values of every choice that gives none; never written


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
# slot in the store.


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


class _Code:
    """A program's `run` and `resume` and what its ticks share: each slot's
    declaration (None for a look-ahead's), the input slots and names, the
    slots of each declared name, a tick's first `env`, the store of tick 0,
    the interned layouts of its states and a plan per order of a tick's
    instances, which holds the tick's settle."""

    __slots__ = (
        "run", "resume", "decls", "inputs", "input_names", "name_slots", "keys", "empty",
        "layouts", "plans",
    )

    def __init__(self, run, resume, decls: list):
        self.run, self.resume, self.decls = run, resume, tuple(decls)
        self.inputs = {
            s for s, d in enumerate(decls) if d.__class__ is SignalDecl and d.direction == "input"
        }
        self.input_names = frozenset(decls[s].name for s in self.inputs)
        self.name_slots: dict = {}
        for s, d in enumerate(decls):
            if d is not None:
                self.name_slots.setdefault(d.name, set()).add(s)
        self.keys, self.empty = tuple(range(len(decls))), (None,) * len(decls)
        self.layouts, self.plans = {(): ()}, {}

    def plan(self, order: tuple) -> tuple:
        """For the instance keys `order`, the `trace.Layout` of the
        data a record lays out, each instance's status and value, the
        (key, at, slot, name) of each input instance, `at` its status's
        entry in the data, the order's settle (`_settler`), straight-line
        code, and the next layout, interned, of a tick where no scope ends."""
        plan = self.plans.get(order)
        if plan is None:
            tables, seen, entries, kinds, bound = ([], [], []), {}, [], [], []
            for at, key in enumerate(order):
                slot = key if key >= 0 else ~key
                decl = self.decls[slot]
                count = seen[decl.name] = seen.get(decl.name, 0) + 1
                name = f"{decl.name}:{count}" if count > 1 else decl.name
                bound += (key, slot)
                kind = decl.stype if decl.__class__ is SignalDecl else "cont"
                kinds.append((kind, key >= 0 and ~key in order))  # shadowed: slot registered again
                if kind == "cont":  # its status is never read
                    tables[2].append((name, 2 * at + 1))
                    continue
                tables[0].append((name, 2 * at))
                if decl.stype is not None:
                    tables[1].append((name, 2 * at + 1))
                if slot in self.inputs:
                    entries.append((key, 2 * at, slot, decl.name))
            layout = tuple(bound[1::2])
            plan = self.plans[order] = (
                Layout(tables), tuple(entries), _settler(kinds, (self.empty, *bound)),
                self.layouts.setdefault(layout, layout),
            )
        return plan


class TickState:
    """Machine state at a tick boundary, a value: `step` leaves it as it
    was, and the tick it returns builds the next state. Every state of one
    run shares the compiled code and `read_log`, the list reads are logged
    to, or None."""

    __slots__ = ("code", "read_log", "tick", "residue", "store", "layout", "terminated")

    def __init__(
        self, program: Program, cfg: RewriteConfig, native_flows: bool = False,
        read_log: Optional[list] = None,
    ):
        logged = read_log is not None
        self.code = program.derived(
            ("code", cfg.wcrt, native_flows, logged),
            lambda: _compile(program, cfg, native_flows, logged),
        )
        self.read_log = read_log
        self.tick = 0
        self.residue = None  # None before tick 1 and after termination
        self.store = self.code.empty  # per slot, its live instance's settled (status, value)
        self.layout = ()  # the live slots, in registration order
        self.terminated = False  # whether a tick left no residue

    # -- one tick --

    def step(self, inputs: InputAssignment = EMPTY_INPUTS) -> "_TickCtx":
        """Run one tick under the input choice `inputs`, but build neither
        the next state nor the record: the returned run's `settle` builds
        the state and its key, and its `record` the state and the record.
        The run remembers `inputs`, and settles, records or reads any other
        choice too. The choice's names are checked here, before the code
        runs; its values are checked against the run (`_TickCtx.check`)."""
        if self.terminated:
            raise KernelError("program already terminated", self.tick)
        self._validate_inputs(inputs, self.tick + 1)
        return _TickCtx(self, inputs)

    def _validate_inputs(self, inputs: InputAssignment, t: int):
        for name in [*inputs.present, *dict(inputs.values)]:
            if name not in self.code.input_names:
                raise KernelError(f"{name!r} is not a declared input", t)


class _TickCtx:
    """One run of a tick's code from `state`, which it never writes, and
    the one tick object. Every read sees the previous tick, so the run is
    the same for every input choice: it latches no input, and settles,
    records or reads any choice from its own settled pass (`settled`).
    It is built under the choice it was stepped with, `choice`, checked
    (`check`) with the values it gives in `values`; `patch`, `settle` and
    `record` take that one when given none, and check any other once.

    An instance live at the tick's start is keyed by its slot, one it
    registers by `~slot`, so a slot may hold one that ended and a new one.
    Per slot, `env` holds the key of its current instance (or a
    look-ahead's prediction) and `prev` its previous-tick (status, value);
    `live` and `fresh` list the keys of the instances live at the start
    that it did not kill and of those it registered, in registration order.
    `residue` is what the code left, `emitted` holds the keys of the
    instances it made present and `folded` the value each written one
    settles to.

    A run that raised keeps its error in `error` and the instances
    registered before it in `fresh`; `check` raises it after the checks of
    the choice's own values."""

    __slots__ = (
        "state", "t", "residue", "emitted", "folded", "env", "prev", "live", "writes", "labels",
        "ended", "fresh", "log", "error", "choice", "values", "_settled", "_keyed",
    )

    def __init__(self, state: TickState, inputs: InputAssignment):
        self.state = state
        self.t = state.tick + 1
        self.env = list(state.code.keys)
        self.prev = list(state.store)
        self.live = state.layout
        self.emitted: set = set()
        self.writes: list = []  # (key, value) per write, in the order made
        self.labels: list = []  # names of the labels holding a paused point
        self.ended: set = set()  # keys of the instances whose scope ended this tick
        self.fresh: list = []
        self.log = state.read_log
        self.error = None
        self.folded = None
        self._settled = self._keyed = None
        try:
            code = state.code
            self.residue = code.run(self) if state.tick == 0 else code.resume(self, state.residue)
        except KernelError as err:
            self.error = err if err.tick is not None else KernelError(err.message, self.t)
        self.values = self.check(inputs)
        self.choice = inputs

    def settled(self) -> tuple:
        """The tick settled under the empty choice, once per run, by the
        settle of the order of the instances live during it, in
        registration order (`_Code.plan`): the record's data, each
        instance's status and value, one whose scope ended included; the
        next store, with each instance that outlives the tick at its slot;
        the order's plan, which holds the record's layout and input
        entries; and the next layout, interned: the slots of the instances
        that outlive the tick, a re-registered one after the others. An
        instance neither emitted nor written, and not leaving a present
        status, keeps its pair."""
        if self._settled is None:
            code, ended = self.state.code, self.ended
            order = self.live + tuple(self.fresh) if self.fresh else self.live
            plan = code.plan(order)
            layout = plan[3]
            if ended:
                layout = tuple([key if key >= 0 else ~key for key in order if key not in ended])
                layout = code.layouts.setdefault(layout, layout)
            self._settled = (*plan[2](self), plan, layout)
        return self._settled

    def keyed(self) -> tuple:
        """The `settled` store, its flat key (`flat_key`) through the next
        layout, and the (key, at, slot, name) of each input instance in it,
        `at` its status's entry in the key. Built once per run, only for a
        settle: a record needs no key."""
        if self._keyed is None:
            _, store, _, layout = self.settled()
            code, env = self.state.code, self.env
            flat, found = flat_key(store, layout, code.inputs)
            entries = [(env[slot], at, slot, code.decls[slot].name) for slot, at in found]
            self._keyed = store, flat, entries
        return self._keyed

    def check(self, inputs: InputAssignment) -> dict:
        """Check the input choice `inputs`, whose names are declared
        inputs, against this run, and return the value each input instance
        the choice gives one settles to, by key: the choice's, folded with
        the code's writes (`fold`) only when the code wrote the instance.
        An instance the tick killed is checked but given no value. Errors
        come in the order a tick that latched before its code would meet
        them: the value of each input instance live at the tick's start, in
        registration order (`value supplied for pure input`, `_adapt`);
        those of the instances the code registered before it raised, if it
        did; the code's error; and last a double write with no combine
        operator. A choice with no values, once the run has folded without
        error, is given none at once: the shared `_NO_VALUES`."""
        if not inputs.values and self.folded is not None:
            return _NO_VALUES
        latched = {}
        if inputs.values:
            given, code, live = dict(inputs.values), self.state.code, self.live
            try:
                for key in (*self.state.layout, *self.fresh):
                    slot = key if key >= 0 else ~key
                    decl = code.decls[slot]
                    if slot in code.inputs and decl.name in given:
                        value = input_value(given[decl.name], decl)
                        if key < 0 or key in live:
                            latched[key] = value
            except KernelError as err:
                raise KernelError(err.message, self.t) from None
        if self.error is not None:
            raise self.error
        if self.folded is None:
            try:
                self.folded = self.fold()
            except KernelError:
                if latched:  # the first double write may be a latched one's
                    self.fold(latched.items())
                raise
        if latched and not latched.keys().isdisjoint(self.folded):
            folded = self.fold(latched.items())
            latched = {key: folded[key] for key in latched}
        return latched

    def patch(self, inputs: Optional[InputAssignment] = None) -> tuple:
        """The next store under the input choice `inputs`, as a list, and
        its key, `verify.fingerprint` of the state `after` builds from it;
        raises what `check` raises. Both are the run's `settled` store and
        its `keyed` key with only the input instances' entries rewritten:
        the code reads only the previous tick, so every other instance
        settles alike under every choice. An input instance is present if
        the code emitted it or the choice names it, and holds the value
        `check` gives it, else its settled value; so a choice with no values
        only flips statuses."""
        inputs = self.choice if inputs is None else inputs
        values = self.values if inputs is self.choice else self.check(inputs)
        store, flat, entries = self._keyed or self.keyed()
        present = inputs.present
        if entries and (present or values):
            store, flat, emitted = list(store), list(flat), self.emitted
            for key, at, slot, name in entries:
                if key in values:
                    status, value = key in emitted or name in present, values[key]
                    store[slot] = (status, value)
                    flat[at] = status
                    if value.__class__ is Fraction:
                        value = (value._numerator, value._denominator)
                    flat[at + 1] = value
                elif name in present and key not in emitted:
                    store[slot] = (True, store[slot][1])
                    flat[at] = True
        residue = self.residue
        return store, (residue is None, residue, tuple(flat))

    def settle(self, inputs: Optional[InputAssignment] = None) -> tuple:
        """The next state under the input choice `inputs` and its key: the
        state `after` builds from `patch`'s store."""
        store, key = self.patch(inputs)
        return self.after(store), key

    def record(self, inputs: Optional[InputAssignment] = None) -> tuple:
        """The next state under the input choice `inputs` and the tick's
        record, whose data holds the settled status and value of every
        instance live during the tick, in registration order, one whose
        scope ended included: the run's `settled` data and store with only
        the input instances' entries rewritten, as `patch` rewrites them."""
        inputs = self.choice if inputs is None else inputs
        values = self.values if inputs is self.choice else self.check(inputs)
        data, store, (layout, entries, _, _), _ = self.settled()
        present = inputs.present
        if entries and (present or values):
            data, store, emitted, ended = list(data), list(store), self.emitted, self.ended
            for key, at, slot, name in entries:
                if key in values:
                    pair = (key in emitted or name in present, values[key])
                elif name in present and key not in emitted:
                    pair = (True, data[at + 1])
                else:
                    continue
                data[at:at + 2] = pair
                if key not in ended:
                    store[slot] = pair
        record = made_record(self.t, layout, tuple(data), tuple(sorted(self.labels)))
        return self.after(store), record

    def settles_present(self, name: str, inputs: InputAssignment) -> bool:
        """Whether the record under the input choice `inputs`, which this
        does not check, shows `name` present: the record names the first
        instance in registration order whose declaration is `name` by that
        name, whether or not its scope ended this tick, and an input
        instance is present also when the choice names it. The name's
        slots were resolved once per program (`_Code.name_slots`)."""
        code, named = self.state.code, name in inputs.present
        slots = code.name_slots.get(name, ())
        for key in self.live:
            if key in slots:
                return key in self.emitted or (named and key in code.inputs)
        for key in self.fresh:
            if ~key in slots:
                return key in self.emitted or (named and ~key in code.inputs)
        return False

    def after(self, store: list) -> TickState:
        """The state this tick leads to, holding `store`."""
        state = object.__new__(TickState)
        before = self.state
        state.code = before.code
        state.read_log = before.read_log
        state.tick = self.t
        state.residue = self.residue
        state.store = tuple(store)
        state.layout = self._settled[3]
        state.terminated = self.residue is None
        return state

    def kill(self, slots: tuple):
        """Discard an aborted body, which declares the declarations in
        `slots`: their live instances vanish unsettled. The body has not
        run this tick (guards are evaluated top-down before bodies), so
        each slot holds no instance or the one live at the tick's start,
        keyed by the slot, and no pending effects: only the body names its
        declarations."""
        live = self.live
        for slot in slots:
            if slot in live:
                at = live.index(slot)
                live = live[:at] + live[at + 1:]
        self.live = live

    def fold(self, latched=()) -> dict:
        """The value each written instance settles to, by key: its writes
        folded with its combine operator, each latched (key, value) as the
        first write of its instance. The pending writes are (key, value)
        pairs, so when no instance is written twice one `dict` call folds
        them; else they are grouped by key. Raises for the first instance
        in registration order written twice with no combine operator,
        whether its second write came from the code or its first from a
        latch."""
        pending = [*latched, *self.writes] if latched else self.writes
        folded = dict(pending)
        if len(folded) == len(pending):
            return folded
        writes: dict = {}
        for key, value in pending:
            writes.setdefault(key, []).append(value)
        for key, values in writes.items():
            if len(values) == 1:  # `dict` folded it
                continue
            decls = self.state.code.decls
            decl = decls[key if key >= 0 else ~key]
            if decl.combine is not None:
                folded[key] = ttl_mod.combine_fold(decl.combine, values)
                continue
            for key in (*self.live, *self.fresh):
                decl = decls[key if key >= 0 else ~key]
                if decl.combine is None and len(writes.get(key, ())) > 1:
                    raise KernelError(
                        f"{decl.name!r} written {len(writes[key])} times in one "
                        "tick with no combine operator",
                        self.t,
                    )
        return folded


def flat_key(store: tuple, layout: tuple, inputs=()) -> tuple:
    """The store `store` read through the layout `layout` as the flat part
    of a state key, a list: each live instance, in registration order, as
    its slot, settled status and value, a rational value as its
    (numerator, denominator), read from its slots with no call; and the
    (slot, at) of each slot in `inputs`, `at` its status's entry. The one
    function that flattens a store into a key: `verify.fingerprint` keys a
    state by it, and a tick's run the store it settles (`_TickCtx.keyed`)."""
    flat, found = [], []
    for slot in layout:
        status, value = store[slot]
        if slot in inputs:
            found.append((slot, len(flat) + 1))
        if value.__class__ is Fraction:
            value = (value._numerator, value._denominator)
        flat += (slot, status, value)
    return flat, found


def input_value(value, decl: SignalDecl):
    """`value`, supplied by the environment for the input `decl`, checked
    and converted as its latch does: a pure input holds no value, and a
    valued one holds only a value of its type."""
    if decl.pure:
        raise KernelError(f"value supplied for pure input {decl.name!r}")
    return _adapt(value, decl)


def require_inputs(program: Program, param: str, where: str, names=(), values=()) -> None:
    """Refuse the first name, sorted, of `names` and of the (name, value) pairs
    `values` that no input of `program` declares, then a value no input of its
    name can hold: an `ArgumentError` naming `param`, its message after `where`."""
    inputs = program.derived("inputs", program.inputs)
    undeclared = sorted({*names, *(name for name, _ in values)} - {d.name for d in inputs})
    if undeclared:
        raise ArgumentError(param, f"{where}{undeclared[0]!r} is not a declared input")
    for name, datum in values:
        errors = []
        for decl in inputs:
            if decl.name == name:
                try:
                    input_value(datum, decl)
                    break
                except KernelError as err:
                    errors.append(err.message)
        else:
            # format_value renders only the classes an input can hold
            exact = datum.__class__ in (bool, int, Fraction)
            shown = format_value(datum) if exact else repr(datum)
            raise ArgumentError(param, f"{where}value {shown}: {errors[0]}")


def _adapt(value, decl: SignalDecl):
    """Check and convert a value written to a valued signal: a numeric one
    holds only an exact `Fraction` or `int`, never a float, a string or a
    bool."""
    kind = decl.stype
    if kind == "boolean":
        if value.__class__ is not bool:
            raise KernelError(f"{decl.name!r} holds a boolean value")
        return value
    if value.__class__ is not Fraction:
        if value.__class__ is not int:
            raise KernelError(f"{decl.name!r} holds a numeric value")
        value = Fraction(value)
    if kind == "int" and value.as_integer_ratio()[1] != 1:
        raise KernelError(f"{decl.name!r} holds an integer value")
    return value


# --- compilation -------------------------------------------------------------

# The file name of generated code: a profile counts its time as the kernel's.
_GENERATED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel.generated")

_SETTLE_GLOBALS: dict = {}  # a settle reads no global; `list` is a builtin

_DEEPEST = " " * 50  # code indented this deep is a function of its own

# the tick's fields, each loaded once by a function whose source names it
_FIELDS = ("env", "prev", "writes", "emitted", "log", "labels", "ended", "fresh")

_WRITE = "writes.append((env[{0}], {1}))"  # of {1} to the instance in slot {0}

# Python's spelling of each binary operator: its own, but for `&&` and `||`
_OPERATORS = {**{op: op for ops in BINARY for op in ops}, "&&": "and", "||": "or"}

# per signal type, the values `_adapt` passes unchanged; it sees only others
_ADAPTED = {
    "boolean": "{0}.__class__ is bool",
    "int": "{0}.__class__ is Fraction and {0}.as_integer_ratio()[1] == 1",
    "ratio": "{0}.__class__ is Fraction",
}

_ENDED = ([], "None", True)  # the code of a statement that does nothing


def _compile(program: Program, cfg: RewriteConfig, native_flows: bool, logged: bool):
    """The code of `program` for `TickState.code`, which logs its reads if
    `logged`. The program must pass the static
    checks, which raise their located error when it does not, and one
    nested past the recursion limit raises NestingError."""
    try:
        if program.params():
            raise KernelError("named constants must be bound before execution")
        if not native_flows and program.has_flows():
            raise KernelError(
                "program still contains flow actions; rewrite it or enable "
                "native flow interpretation"
            )
        check_program(program)
        compiler = _Compiler(cfg, logged)
        run, resume = compiler.stmt(program.root, {})
        run, resume = (compiler.function(*code[:2]) for code in (run, resume or _ENDED))
    except RecursionError:
        raise NestingError("nested too deep to process") from None
    return _Code(run, resume, compiler.decls)


@lru_cache(maxsize=512)
def _code(source: str, mode: str = "exec"):
    """`source` compiled: programs alike in shape share their code."""
    return compile(source, _GENERATED, mode)


def _settler(kinds: list, bound: tuple):
    """The settle of a tick whose instances have the (kind, shadowed)
    `kinds` in registration order, a kind "cont" or a signal's type (None
    if pure): it maps the tick's run `ctx` to its record's data and next
    store, its other parameters defaulting to `bound`, the empty store and
    each instance's key and slot. Orders of one kind signature share one
    code object, the function that the source's compiled module (`_code`)
    defines, its first constant, and one globals dict. A pair is at its
    slot in `prev`, a shadowed instance's (live at the tick's start, its
    slot registered again) in the old store."""
    lines = [f"{name} = ctx.{name}" for name in ("prev", "folded", "emitted", "ended")]
    for at, (kind, shadowed) in enumerate(kinds):
        k, p, q = f"k{at}", f"p{at}", f"ctx.state.store[k{at}]" if shadowed else f"prev[s{at}]"
        if kind == "cont":  # never emitted: its status stays false
            lines.append(f"{p} = (False, folded[{k}]) if {k} in folded else {q}")
        elif kind is None:  # a pure signal: never written, its value stays None
            lines.append(f"{p} = (True, None) if {k} in emitted else (False, None)")
        else:
            lines.append(f"e = {k} in emitted")
            lines.append(f"{p} = (e, folded[{k}]) if {k} in folded else {q}")
            lines.append(f"if {p}[0] is not e: {p} = (e, {p}[1])")
    stores = [f"store[s{at}] = p{at}" for at in range(len(kinds))]
    lines += ["if ended:", " store = list(empty)"]
    lines += [f" if k{at} not in ended: {line}" for at, line in enumerate(stores)]
    lines += ["else:", " store = list(empty)", *(f" {line}" for line in stores)]
    data = "".join(f"p{at}[0], p{at}[1], " for at in range(len(kinds)))
    params = "".join(f", k{at}, s{at}" for at in range(len(kinds)))
    body = "\n ".join([*lines, f"return ({data}), store"])
    code = _code(f"def settle(ctx, empty{params}):\n {body}").co_consts[0]
    return FunctionType(code, _SETTLE_GLOBALS, "settle", bound)


def _times(a: str, b: str) -> str:
    """The source of `a * b`, a factor `1` left out."""
    return b if a == "1" else a if b == "1" else f"{a} * {b}"


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


# A code (see `_Compiler`) is `(lines, result, ends)`: what holds the residue
# after `lines` is `result`, "None" for none, "r" for the local `r`, or any
# other expression, never None; `ends` tells whether it can be None.


def _indent(lines: list) -> list:
    return [" " + line for line in lines]


def _prefix(lines: list, code) -> tuple:
    return [*lines, *code[0]], code[1], code[2]


def _into(code, target: str = "r") -> list:
    """The lines of `code`, then its residue put in `target`."""
    return code[0] if code[1] == target else [*code[0], f"{target} = {code[1]}"]


def _either(test: str, then, orelse) -> tuple:
    """The code that runs `then` if `test` holds, else `orelse`."""
    lines = [f"if {test}:", *_indent(_into(then)), "else:", *_indent(_into(orelse))]
    return lines, "r", then[2] or orelse[2]


def _wrap(code, residue: str, marks=()) -> tuple:
    """`code`, its residue made `residue` (a tuple of `r`) after the lines
    `marks` when it leaves one."""
    lines, result, ends = code
    if result == "None":
        return code
    if result != "r":
        lines = [*lines, f"r = {result}"]
    if not ends:
        return [*lines, *marks, f"r = {residue}"], "r", False
    return [*lines, "if r is not None:", *_indent([*marks, f"r = {residue}"])], "r", True


def _then(code, index: int, tail) -> tuple:
    """The code of a Seq's statement `index` that can pause, then `tail`,
    the code that runs the statements after it (a call, or none), if it
    ended."""
    lines, result, ends = code
    if result == "None":
        return _prefix(lines, tail)
    if not ends or tail == _ENDED:
        return _wrap(code, f"({index}, r)")
    return [*lines, "if r is None:", *_indent(tail[0]), "else:", f" r = ({index}, r)"], "r", tail[2]


def _par(lines: list, values: list, maybe: list) -> tuple:
    """`lines`, then the residue of a Par whose branches left `values`:
    None if each of `maybe`, the values that can be None, is, unless it
    holds None for a branch that cannot end."""
    residue = f"({', '.join(values)})"
    if None in maybe:
        return [*lines, f"r = {residue}"], "r", False
    test = " and ".join(f"{value} is None" for value in maybe)
    return [*lines, f"r = None if {test} else {residue}"], "r", True


def _end(code, key: int) -> list:
    """The line that ends the scope of the instance keyed `key` if `code`
    ended."""
    if code[1] == "None":
        return [f"ended.add({key})"]
    return [f"if r is None: ended.add({key})"] if code[2] else []


def _select(index: str, branches: list) -> list:
    """The lines that run the code of the `(i, code)` branch, sorted by `i`,
    whose `i` the local `index` holds: a tree of `<` tests down to chains of
    at most 8 `==` tests, since Python nests `elif`s."""
    if len(branches) > 8:
        half = len(branches) // 2
        return [
            f"if {index} < {branches[half][0]}:", *_indent(_select(index, branches[:half])),
            "else:", *_indent(_select(index, branches[half:])),
        ]
    lines = []
    for k, (i, code) in enumerate(branches):
        test = "else" if k == len(branches) - 1 else f"{'el' if k else ''}if {index} == {i}"
        lines += [f"{test}:", *_indent(_into(code))]
    return lines


def _chunks(blocks: list) -> list:
    """The lines that run each of the `(i, lines)` blocks with `i > res`
    while none has paused (left `r` not None): past 8 blocks, in chunks of
    about the square root of their number, each skipped by one test."""
    if len(blocks) > 8:
        size = isqrt(len(blocks) - 1) + 1
        chunks = [blocks[c:c + size] for c in range(0, len(blocks), size)]
        blocks = [(chunk[-1][0], _chunks(chunk)) for chunk in chunks]
    lines = []
    for k, (i, block) in enumerate(blocks):
        lines += [f"if {'r is None and ' if k else ''}res < {i}:", *_indent(block)]
    return lines


class _Compiler:
    """Translates statements and expressions into generated source (see the
    module docstring). A statement becomes a run and a resume code: the run
    enters it afresh, the resume continues it from the residue in the local
    `res`, which it may rebind, and each leaves its residue in its result.
    One that cannot pause has the resume None. An expression appends its
    lines to a list and returns the local, global or literal holding its
    value (`expr`). A scope maps each visible name to (kind, slot,
    declaration), kind being "signal", "cont" or "pred" (a look-ahead
    prediction, whose third entry is its affine form); `decls` lists the
    declaration of each slot, None for a look-ahead's, and `names` holds the
    generated code's globals."""

    def __init__(self, cfg: RewriteConfig, logged: bool):
        self.wcrt = cfg.wcrt
        self.logged = logged
        self.decls: list = []
        self.count = 0
        self.names = {
            "Fraction": Fraction, "adapt": _adapt, "ratio": ratio, "coprime": coprime,
            "labels_in": _labels_in,
        }

    def slot(self, decl=None) -> int:
        self.decls.append(decl)
        return len(self.decls) - 1

    # -- generated code --

    def fresh(self, prefix: str) -> str:
        """A new name in generated code: `v` a value, `n` and `d` its
        integers, `k` a bound constant, `f` a function."""
        self.count += 1
        return f"{prefix}{self.count}"

    def bind(self, value) -> str:
        """A global of the generated code bound to `value`."""
        name = self.fresh("k")
        self.names[name] = value
        return name

    def function(self, lines: list, result: str = "None"):
        """`lines`, then `return result`, as a function of `ctx` and of a
        residue `res` that first loads the fields of the tick its source
        names."""
        name = self.fresh("f")
        text = "\n".join(lines)
        head = [f"{field} = ctx.{field}" for field in _FIELDS if field in text]
        source = "\n ".join([f"def {name}(ctx, res=None):", *head, *lines, f"return {result}"])
        exec(_code(source), self.names)
        return self.names[name]

    def call(self, code, args: str = "ctx") -> tuple:
        """`code` as one call of a function of it, made by every site that
        needs the code; a code of at most one line is left as it is."""
        lines, result, ends = code
        if len(lines) < 2:
            return code
        call = f"{self.function(lines, result).__name__}({args})"
        if result == "None" or result in self.names or result in ("True", "False"):
            return [call], result, ends
        return [f"r = {call}"], "r", ends

    def let(self, lines: list, source: str) -> str:
        value = self.fresh("v")
        lines.append(f"{value} = {source}")
        return value

    def read(self, lines: list, slot: int, name: str, kind: str) -> str:
        """A read of the previous-tick status or value in `slot`, logged if
        the code logs reads."""
        value = self.let(lines, f"prev[{slot}][{0 if kind == 'status' else 1}]")
        if self.logged:
            lines.append(f"log.append((ctx.t, {name!r}, {kind!r}, {value}))")
        return value

    def passes(self, lines: list, value: str, test: str, otherwise: str) -> str:
        """`value` if it passes `test`, a test of `{0}`, else `otherwise`,
        tested at compile time if `value` is a bound constant."""
        if value not in self.names:
            return self.let(lines, f"{value} if {test.format(value)} else {otherwise}")
        scope = {"Fraction": Fraction, "x": self.names[value]}
        return value if eval(_code(test.format("x"), "eval"), scope) else self.let(lines, otherwise)

    def fraction(self, lines: list, value: str) -> str:
        """`value` as a `Fraction`."""
        return self.passes(lines, value, _ADAPTED["ratio"], f"Fraction({value})")

    def stmt(self, node: Stmt, scope: dict):
        """The run and the resume code of `node`, each a call of a function
        of it if it nests too deep."""
        run, resume = getattr(self, "stmt_" + node.__class__.__name__)(node, scope)
        if any(line.startswith(_DEEPEST) for line in run[0]):
            run = self.call(run)
        if resume is not None and any(line.startswith(_DEEPEST) for line in resume[0]):
            resume = self.call(resume, "ctx, res")
        return run, resume

    # -- leaves --

    def stmt_Nothing(self, node, scope):
        return _ENDED, None

    def stmt_Pause(self, node, scope):
        return ([], "True", False), _ENDED

    def stmt_Emit(self, node, scope):
        return ([f"emitted.add(env[{scope[node.name][1]}])"], "None", True), None

    def stmt_ValueWrite(self, node, scope):
        _, slot, decl = scope[node.name]
        lines: list = []
        value = self.adapt(lines, self.expr(node.expr, scope, lines), decl)
        return ([*lines, _WRITE.format(slot, value)], "None", True), None

    def adapt(self, lines: list, value: str, decl: SignalDecl) -> str:
        """`value`, written to `decl`, unless `_adapt` passes it unchanged."""
        otherwise = f"adapt({value}, {self.bind(decl)})"
        return self.passes(lines, value, _ADAPTED[decl.stype], otherwise)

    def stmt_ContAssign(self, node, scope):
        step = _literal_step(node)
        if step is not None:
            return (self.steps([step], scope), "None", True), None
        lines: list = []
        value = self.fraction(lines, self.expr(node.expr, scope, lines))
        return ([*lines, _WRITE.format(scope[node.name][1], value)], "None", True), None

    def steps(self, steps, scope) -> list:
        """The lines of the steps `v = w + c`, given as `(v, w, c)`: a write
        per step, or per run of consecutive steps on one `op+` variable, of
        the sum its writes fold to, by integer cross-products. A run of one
        step with an integer `c` builds `w + c` by `coprime`, with no gcd:
        its terms `n + c*d` and `d` are coprime as `n` and `d` are."""
        runs: list = []
        for target, name, c in steps:
            _, slot, decl = scope[target]
            if runs and runs[-1][0] == slot and decl.combine == "plus":
                runs[-1][1].append(name)
                runs[-1][2] += c
            else:
                runs.append([slot, [name], c])
        lines: list = []
        for slot, names, c in runs:
            num, den = map(str, c.as_integer_ratio())
            build = "coprime" if len(names) == 1 and den == "1" else "ratio"
            for k, name in enumerate(names):
                if k:
                    num, den = self.let(lines, num), self.let(lines, den)
                n, d = self.fresh("n"), self.fresh("d")
                value = self.read(lines, scope[name][1], name, "value")
                lines.append(f"{n}, {d} = {INTEGERS.format(value)}")
                num, den = f"{_times(num, d)} + {_times(n, den)}", _times(den, d)
            lines.append(_WRITE.format(slot, f"{build}({num}, {den})"))
        return lines

    # -- control --

    def block(self, nodes, scope):
        """The run and the resume code of each statement of `nodes`."""
        return tuple(zip(*[self.stmt(node, scope) for node in nodes]))

    def straight(self, stmts, codes, scope) -> list:
        """The lines of the run codes `codes` of statements that cannot
        pause, each run of consecutive steps `v = w + c` compiled together
        by `steps`."""
        lines, steps = [], []
        for stmt, code in zip(stmts, codes):
            step = _literal_step(stmt)
            if step is not None:
                steps.append(step)
                continue
            lines += [*self.steps(steps, scope), *code[0]]
            steps = []
        return lines + self.steps(steps, scope)

    def dispatch(self, branches: list) -> tuple:
        """The resume of a Seq or an If: of its `(index, code)` branches,
        the code of the one the residue's index names, on its child."""
        if len(branches) == 1:
            return _prefix(["res = res[1]"], branches[0][1])
        index = self.fresh("v")
        lines = [f"{index}, res = res", *_select(index, branches)]
        return lines, "r", any(code[2] for _, code in branches)

    def stmt_Seq(self, node, scope):
        stmts = node.stmts
        runs, resumes = self.block(stmts, scope)
        pausing = [i for i, resume in enumerate(resumes) if resume is not None]
        if not pausing:
            return (self.straight(stmts, runs, scope), "None", True), None
        last = len(stmts) - 1
        if pausing == [last] and stmts[-1].__class__ is Pause:  # the residue is always the pause's
            lines = self.straight(stmts[:-1], runs[:-1], scope)
            return (lines, self.bind((last, True)), False), _ENDED
        # the statements after the first that can pause are one function of
        # the index of the one after which they start, passed as `res`: the
        # run calls it after that one ends, and so does the resume of each
        # one that ends. It runs each that can pause, after the statements
        # before it, while none has paused (`_chunks`)
        start, first, blocks = pausing[0] + 1, pausing[0], []
        for i in pausing[1:]:
            block = self.straight(stmts[start:i], runs[start:i], scope)
            blocks.append((i, [*block, *_into(_wrap(runs[i], f"({i}, r)"))]))
            start = i + 1
        lines = ["r = None", *_chunks(blocks)]
        rest = self.straight(stmts[start:], runs[start:], scope)
        lines += ["if r is None:", *_indent(rest)] if rest and len(pausing) > 1 else rest
        go = self.function(lines, "r").__name__ if first < last else None

        def tail(i: int) -> tuple:
            if i == last:
                return _ENDED
            return [f"r = {go}(ctx, {i})"], "r", all(runs[j][2] for j in pausing if j > i)

        lines = self.straight(stmts[:first], runs[:first], scope)
        run = _prefix(lines, _then(runs[first], first, tail(first)))
        return run, self.dispatch([(i, _then(resumes[i], i, tail(i))) for i in pausing])

    def stmt_Parallel(self, node, scope):
        runs, resumes = self.block(node.branches, scope)
        if resumes.count(None) == len(resumes):
            return ([line for run in runs for line in run[0]], "None", True), None
        names = [self.fresh("v") for _ in runs]
        lines, values, maybe = [], [], []
        for name, run in zip(names, runs):
            lines += _into(run, name) if run[1] == "r" else run[0]
            values.append(name if run[1] == "r" else run[1])
            if run[1] != "None":
                maybe.append(name if run[2] else None)
        code = _par(lines, values, maybe)
        lines, values, maybe = [f"{', '.join(names)} = res"], [], []
        for name, run, resume in zip(names, runs, resumes):
            values.append("None" if resume is None else name)
            if resume is not None:  # None after a resume if it can end at all
                lines += [f"if {name} is not None:", f" res = {name}"]
                lines += _indent(_into(resume, name))
                maybe.append(name if run[2] or resume[1] == "None" or resume[2] else None)
        return code, _par(lines, values, maybe)

    def stmt_If(self, node, scope):
        runs, resumes = self.block((node.then, node.orelse), scope)
        if resumes == (None, None):
            return (self.choice(node.cond, runs[0][0], runs[1][0], scope), "None", True), None
        lines: list = []
        test = self.expr(node.cond, scope, lines)
        then, orelse = (_wrap(run, f"({b}, r)") for b, run in enumerate(runs))
        branches = [(b, _wrap(code, f"({b}, r)")) for b, code in enumerate(resumes) if code]
        return _prefix(lines, _either(test, then, orelse)), self.dispatch(branches)

    def choice(self, cond, then: list, orelse: list, scope) -> list:
        """The lines of an If whose branches cannot pause, which leaves no
        residue. A `!e` condition is `e` with the branches swapped, and an
        empty branch is left out."""
        while cond.__class__ is Unary and cond.op == "!":
            cond, then, orelse = cond.operand, orelse, then
        lines: list = []
        test = self.expr(cond, scope, lines)
        if then:
            lines += [f"if {test}:", *_indent(then)]
            if orelse:
                lines += ["else:", *_indent(orelse)]
        elif orelse:
            lines += [f"if not {test}:", *_indent(orelse)]
        return lines

    def stmt_Loop(self, node, scope):
        run, resume = self.stmt(node.body, scope)
        lines, result, ends = resume
        if result == "None" or ends:  # restarted: the run at a second site
            run = self.call(run)
        run = run[0], run[1], False  # the checks ensure a fresh body run pauses
        if result == "None":
            return run, _prefix(lines, run)
        if ends:
            return run, ([*lines, "if r is None:", *_indent(_into(run))], "r", False)
        return run, resume

    def stmt_Abort(self, node, scope):
        guard: list = []
        test = self.expr(node.guard, scope, guard)
        first = len(self.decls)
        run, resume = self.stmt(node.body, scope)
        # the slots of the body's declarations
        slots = tuple(s for s in range(first, len(self.decls)) if self.decls[s] is not None)
        if node.immediate:
            run = _prefix(guard, _either(test, _ENDED, run))
        if resume is None:
            return run, None
        kill = [f"ctx.kill({self.bind(slots)})"] if slots else []
        return run, _prefix(guard, _either(test, (kill, "None", True), resume))

    def stmt_Suspend(self, node, scope):
        guard: list = []
        test = self.expr(node.guard, scope, guard)
        run, resume = self.stmt(node.body, scope)
        if not node.immediate:
            if resume is None:
                return run, None
            body = resume
        else:  # a body frozen before entry runs on resume
            run = self.call(run)
            body = run if resume is None else _either("res is None", run, resume)
        run = _wrap(run, "(r,)")
        if node.immediate:
            run = _prefix(guard, _either(test, ([], "(None,)", False), run))
        # frozen: no micro-steps this tick, but its labels still hold
        frozen = (["labels_in(res[0], labels)"], "res", False)
        thawed = _prefix(["res = res[0]"], _wrap(body, "(r,)"))
        return run, _prefix(guard, _either(test, frozen, thawed))

    def stmt_Label(self, node, scope):
        run, resume = self.stmt(node.body, scope)
        if resume is None:
            return run, None
        name = self.bind(node.name)
        marks = [f"labels.append({name})"]
        resume = _prefix(["res = res[1]"], _wrap(resume, f"({name}, r)", marks))
        return _wrap(run, f"({name}, r)", marks), resume

    # -- declarations --

    def stmt_SignalDecl(self, node, scope):
        lines: list = []
        if node.pure:
            value = "None"
        elif node.init is not None:
            value = self.adapt(lines, self.expr(node.init, scope, lines), node)
        else:
            value = self.bind(False if node.stype == "boolean" else Fraction(0))
        return self._declare(node, scope, "signal", lines, value)

    def stmt_ContDecl(self, node, scope):
        lines: list = []
        value = self.expr(NumLit(Fraction(0)) if node.init is None else node.init, scope, lines)
        return self._declare(node, scope, "cont", lines, self.fraction(lines, value))

    def _declare(self, node, scope, kind, lines, value):
        """A declaration's code: after `lines`, a new instance in a fresh
        slot, registered with its initial value `value` (read in the outer
        scope) before the body runs, under the key `~slot`; the instance
        ends with the body. The key is noted in `fresh`: a choice's check
        after the tick reads the inputs there, and `run` the initial values. A resume
        continues the instance live at the tick's start, keyed by the slot,
        and the declaration leaves its body's residue."""
        slot = self.slot(node)
        run, resume = self.stmt(node.body, {**scope, node.name: (kind, slot, node)})
        lines = [
            *lines, f"prev[{slot}] = (False, {value})", f"env[{slot}] = {~slot}",
            f"fresh.append({~slot})", *run[0], *_end(run, ~slot),
        ]
        if resume is not None:
            resume = [*resume[0], *_end(resume, slot)], resume[1], resume[2]
        return (lines, run[1], run[2]), resume

    # -- flows --

    def stmt_DoUntil(self, node, scope):
        """A natively interpreted flow: per iteration the steps in source
        order, compiled by `steps` as the rewritten form's are, then the
        look-ahead; a failed look-ahead terminates the flow on the next
        resume, exactly like the rewritten form. Only a state built with
        native flows holds one."""
        site = flow_site(node.odes)
        lines = self.steps([(name, name, rate * self.wcrt) for name, rate in site.odes], scope)
        if isinstance(node.invariant, BoolLit) and node.invariant.value:
            stop = "False"  # going on
        else:  # stopping on the next resume when the look-ahead fails
            stop = f"not {self.lookahead(site, node.invariant, scope, lines)}"
        run = self.call((lines, stop, False))  # its run and its resume's
        return run, _either("res", _ENDED, run)  # a stopped flow resumes to its end

    def lookahead(self, site, invariant, scope, lines: list) -> str:
        """The two-tick look-ahead (see the module docstring): the site's
        variables read into slots of their own, then the invariant."""
        inner = dict(scope)
        for name in site.vars:
            slot = self.slot()
            lines.append(f"env[{slot}] = {self.read(lines, scope[name][1], name, 'value')}")
            inner[name] = ("pred", slot, ttl_mod.affine_form(site.odes, name, self.wcrt))
        return self.expr(invariant, inner, lines)

    # -- expressions (previous-tick settled values only) --

    def expr(self, node, scope, lines: list) -> str:
        """Appends to `lines` the lines that evaluate `node`, one operation
        each, so that no expression nests in the source; returns what holds
        its value. Every operand is evaluated, and every read logged, in
        the order of the source, `&&` and `||` included."""
        cls = node.__class__
        if cls is NumLit or cls is BoolLit:
            return self.bind(node.value)
        if cls is NameRef:
            kind, slot, form = scope[node.name]
            if kind == "signal":
                return self.read(lines, slot, node.name, "status")
            if kind == "cont":
                return self.read(lines, slot, node.name, "value")
            scale, shift = form  # a look-ahead prediction, not a read
            return self.let(lines, f"{scale!r} * env[{slot}] + {self.bind(shift)}")
        if cls is ValueRef:
            return self.read(lines, scope[node.name][1], node.name, "value")
        if cls is Unary:
            operand = self.expr(node.operand, scope, lines)
            return self.let(lines, f"{'not ' if node.op == '!' else '-'}{operand}")
        if cls is Binary:
            if (
                node.op in COMPARISONS
                and node.left.__class__ is NameRef
                and node.right.__class__ is NumLit
                and node.right.value.__class__ is Fraction
            ):
                return self.bound(node, scope, lines)
            left = self.expr(node.left, scope, lines)
            right = self.expr(node.right, scope, lines)
            return self.let(lines, f"{left} {_OPERATORS[node.op]} {right}")
        # a TtlCall, the one kind of expression left
        return self.lookahead(flow_site(node.odes), node.invariant, scope, lines)

    def bound(self, node, scope, lines: list) -> str:
        """`name <op> p/q` on a continuous variable, or on a look-ahead
        prediction with `p/q` the threshold, as `n*q <op> p*d` for `v`'s
        integers `n, d`, read from its slots (both denominators are
        positive). A signal's status is never compared with a number (a
        type error)."""
        name, bound = node.left.name, node.right.value
        kind, slot, form = scope[name]
        if kind == "cont":
            value = self.read(lines, slot, name, "value")
        else:
            scale, shift = form
            bound = (bound - shift) / scale
            value = f"env[{slot}]"
        p, q = map(str, bound.as_integer_ratio())
        n, d = self.fresh("n"), self.fresh("d")
        lines.append(f"{n}, {d} = {INTEGERS.format(value)}")
        return self.let(lines, f"{_times(n, q)} {node.op} {_times(p, d)}")


# --- module-level operations -------------------------------------------------


def init(program: Program, cfg: RewriteConfig, native_flows: bool = False) -> TickState:
    """Machine state at tick 0: nothing has run, nothing is visible."""
    return TickState(program, cfg, native_flows=native_flows)


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
    continuous variable's name, in registration order. The schedule is a
    dict {tick: InputAssignment}, a list (index i for tick i + 1, None for
    none) or None; each entry is checked first: its tick, its type and its
    inputs (`require_inputs`), so no tick checks its names again."""
    by_tick = schedule if isinstance(schedule, dict) else {
        i + 1: a for i, a in enumerate(schedule or ()) if a is not None
    }
    for t, entry in by_tick.items():
        if t.__class__ is not int or t < 1:
            raise ArgumentError("schedule", f"bad tick {t!r}")
        if not isinstance(entry, InputAssignment):
            raise ArgumentError("schedule", f"tick {t}: {entry!r} is not an InputAssignment")
        require_inputs(program, "schedule", f"tick {t}: ", entry.present, entry.values)
    if max_ticks < 0:
        raise ArgumentError("max_ticks", f"must be non-negative, got {max_ticks}")
    state = TickState(program, cfg, native_flows, [] if record_reads else None)
    records, initial_conts = [], {}
    for t in range(1, max_ticks + 1):
        tick = _TickCtx(state, by_tick.get(t, EMPTY_INPUTS))
        for key in tick.fresh:
            decl = state.code.decls[~key]
            if decl.__class__ is not SignalDecl and decl.name not in initial_conts:
                initial_conts[decl.name] = tick.prev[~key][1]
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
