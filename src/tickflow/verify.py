"""Bounded explicit-state reachability over the deterministic kernel.

Programs are deterministic once their inputs are fixed, so the search tree
branches only on the per-tick input choice. Verdicts are relative to the
tick bound. States are keyed by `fingerprint`, an exact tuple of the shared
residue and the store, each declaration named by its environment slot,
which the compiler gives it once, and each rational value by its
(numerator, denominator); the search builds no index of the program. A
residue is itself a tuple tree, so a key holds only tuples, ints, bools,
strs and None, and CPython hashes and compares it in C. The cache maps each key to the earliest tick the state was
reached at, and a state is expanded again only when reached strictly
earlier (it then has more ticks left), so depth-first order is as sound
as breadth-first. Breadth-first order reaches states in tick order, so its
first witness is a shortest one: the alphabet's choices are every
assignment a schedule can give over its names and values
(`InputAlphabet.choices`, built once per alphabet), a value with either
status included. A state is a value, and no read in a tick sees that
tick's inputs, so the expanded state's tick runs once, on the first
input choice (the run, `kernel._TickCtx`), and every choice is settled,
recorded or read through that run. A choice changes only input
instances, so the target is read once per tick, on the first choice,
unless it is an input, which is read under every choice from the run and
the choice's names; a read tests the instances' slots against the
target's, resolved once per program. The alphabet's names and values are
checked once, before the search (`InputAlphabet.require`), and no
choice's names are checked again; every choice not counted at once
(below) is checked against the run once (`_TickCtx.check`, which returns
at once for a choice with no values). A leaf, a
tick that terminated or sits at the bound, builds no state and is never
keyed. Once a leaf's first choice has run, a later choice can fail only
for a value it carries; so when no later choice carries one and the
target is not an input, they are counted in one step. Only a witness
builds a `TickRecord`, from which its snapshot is read. A transition is
one state under one choice, whether the choice ran the tick, was settled
as a patch of it or was only counted.

A kept successor costs one hash, a pass over the input instances that
outlive its tick and the state built for it: the run settles the empty
choice's store and key once (`_TickCtx.settled` and `keyed`), and each
choice rewrites only its input instances' entries of copies of them
(`_TickCtx.patch`), so a choice with no values only flips statuses. The
key comes first, and only a successor whose key is kept is built into a
state (`_TickCtx.after`). The search never calls `fingerprint`, which
builds the same key from a state; both flatten the store by the one
`kernel.flat_key`. One `setdefault` probes the cache, and only a known
key reached strictly earlier is stored again.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Optional

from .errors import ArgumentError, ScheduleError, SearchLimitError, TickflowError
from .kernel import InputAssignment, TickState, _TickCtx, flat_key, init, require_inputs
from .rewrite import RewriteConfig
from .struct import Struct
from .syntax.nodes import Program
from .trace import settled_rows


# --- input alphabets -----------------------------------------------------------


class InputAlphabet(Struct):
    """Finite per-signal choices: each listed input takes one of its
    statuses, with no value or, for a valued input, one of finitely many
    values, as a schedule may give it."""

    statuses: tuple  # ((name, ("absent","present")), ...) sorted by name
    values: tuple  # ((name, (Fraction, ...)), ...) sorted by name

    @staticmethod
    def closed() -> "InputAlphabet":
        return InputAlphabet((), ())

    @staticmethod
    def make(statuses=None, values=None) -> "InputAlphabet":
        st = tuple(sorted((n, tuple(c)) for n, c in (statuses or {}).items()))
        vl = tuple(sorted((n, tuple(v)) for n, v in (values or {}).items()))
        return InputAlphabet(st, vl)

    def choices(self) -> list:
        """Every admissible InputAssignment for one tick: each input's
        statuses × (no value, then each of its values), which is every
        assignment a schedule can give over the alphabet's names and
        values. In a canonical order: the first input varies slowest, each
        through its statuses in the order given (all-absent first). Built
        once per alphabet object, kept on it, and returned as a new list.
        Not once per value: equal alphabets may hold values of different
        classes (`True == 1 == Fraction(1)`), which a choice keeps."""
        built = self.__dict__.get("_choices")
        if built is None:
            value_map = dict(self.values)
            per_input = [
                [(name, status, v) for status in statuses for v in (None, *value_map.get(name, ()))]
                for name, statuses in self.statuses
            ]
            built = self.__dict__["_choices"] = tuple(
                InputAssignment.make(
                    present=[name for name, status, _ in combo if status == "present"],
                    values={name: v for name, _, v in combo if v is not None},
                )
                for combo in product(*per_input)
            )
        return list(built)

    def require(self, program: Program) -> None:
        """Refuse an entry with no status or one not "absent" or "present",
        then an input `program` cannot take (`kernel.require_inputs`)."""
        for name, statuses in self.statuses:
            if not statuses or not all(s in ("absent", "present") for s in statuses):
                must = "'statuses' must be a non-empty list of 'absent' and 'present'"
                raise ArgumentError("alphabet", f"alphabet entry {name!r}: {must}")
        require_inputs(program, "alphabet", "alphabet entry ", [name for name, _ in self.statuses])
        for name, picks in self.values:
            pairs = [(name, value) for value in picks]
            require_inputs(program, "alphabet", f"alphabet entry {name!r}: ", (), pairs)


def alphabet_for(program: Program, values_per_input: Optional[dict] = None) -> InputAlphabet:
    """Default alphabet: every declared input free to be present or absent;
    valued inputs need a finite value list."""
    statuses = {}
    values = {}
    for decl in program.inputs():
        statuses[decl.name] = ("absent", "present")
        if not decl.pure:
            supplied = (values_per_input or {}).get(decl.name)
            if not supplied:
                raise ScheduleError(
                    f"valued input {decl.name!r} needs a finite value set"
                )
            values[decl.name] = tuple(supplied)
    return InputAlphabet.make(statuses, values)


# --- verdicts -----------------------------------------------------------------


class Witness(Struct):
    """An input schedule prefix that makes the target signal settle present
    at `tick`, plus the settled snapshot at that tick."""

    schedule: tuple  # InputAssignment per tick, 1-based
    tick: int
    snapshot: tuple  # sorted ((name, printed value), ...)


class Unreachable(Struct):
    """No schedule makes the target settle present within `bound` ticks.
    `states_explored` counts transitions (one state under one input
    choice), not distinct states."""

    bound: int
    states_explored: int


# --- state keys -----------------------------------------------------------------


def fingerprint(state: TickState) -> tuple:
    """Exact key of a settled state: equal keys mean equal states, however
    they were reached. A tuple of the termination flag, the residue (a
    value of tuples, ints, bools and strs; see `kernel` on why its
    equality is exact within one program) and the store read through the
    state's layout: one flat tuple that gives each live instance, in
    registration order, its declaration's slot (a declaration has at most
    one live instance, and equal programs number their slots alike),
    settled status and value, a rational value as its (numerator,
    denominator), as `kernel.flat_key` flattens it. Registration order
    decides which of two same-named instances settles as `S` and which as
    `S:2`. A declaration fixes its value's type (boolean, rational or
    none), so a pair never meets a bool. The key holds only tuples, ints,
    bools, strs and None, which CPython hashes and compares in C. A tick's
    run builds the same key from the next store by the same `flat_key`
    (`_TickCtx.keyed`, `_TickCtx.patch`): once per run, and for each input
    choice by rewriting only the entries of its input instances."""
    return (state.terminated, state.residue, tuple(flat_key(state.store, state.layout)[0]))


# --- the search -----------------------------------------------------------------


def check_reachable(
    program: Program,
    cfg: RewriteConfig,
    alphabet: Optional[InputAlphabet],
    bound: int,
    target: str,
    strategy: str = "bfs",
    node_limit: int = 200_000,
    native_flows: bool = False,
):
    """Can any admissible input schedule make `target` settle present
    within `bound` ticks? Returns a Witness or an Unreachable verdict.

    With an empty alphabet the program is closed and the search degenerates
    to a single run. The alphabet is checked first (`InputAlphabet.require`).
    Raises SearchLimitError past `node_limit` transitions.
    """
    if strategy not in ("bfs", "dfs"):
        raise TickflowError(f"unknown search strategy {strategy!r} (bfs or dfs)")
    if alphabet is None:
        alphabet = InputAlphabet.closed()
    alphabet.require(program)
    if bound < 0:
        raise ArgumentError("bound", f"must be non-negative, got {bound}")
    if node_limit < 1:
        raise ArgumentError("node_limit", f"must be positive, got {node_limit}")
    signals, conts = program.derived("declared names", lambda: _declared_names(program))
    if target not in signals:
        if target in conts:
            raise ArgumentError("target", f"{target!r} is a continuous variable, not a signal")
        raise ArgumentError("target", f"{target!r} is not a declared signal")
    take = deque.popleft if strategy == "bfs" else deque.pop
    earliest: dict = {}  # state key -> earliest tick it was reached at
    start = init(program, cfg, native_flows=native_flows)
    choices = alphabet.choices()
    # a choice changes only input instances, so a target that names no
    # input settles alike under every choice of one tick
    per_choice = target in start.code.input_names
    # at a leaf whose first choice ran, a later choice can raise only for a
    # value it carries, so when none carries one they are counted at once
    later = len(choices) - 1 if not per_choice and not any(c.values for c in choices[1:]) else 0
    too_many = f"reachability search exceeded {node_limit} transitions"
    frontier = deque([(start, ())] if bound > 0 else [])
    explored = 0
    while frontier:
        state, prefix = take(frontier)  # never a leaf
        run = None
        for assignment in choices:
            explored += 1
            if explored > node_limit:
                raise SearchLimitError(too_many)
            if run is None:
                # the state's tick runs once, on the first choice, and each
                # choice is settled from that run; the alphabet's names
                # were checked before the search
                run = _TickCtx(state, assignment)
                t = run.t
                leaf = run.residue is None or t >= bound
                hit = run.settles_present(target, assignment)
                if leaf and later and not hit:
                    explored += later
                    if explored > node_limit:
                        raise SearchLimitError(too_many)
                    break
            else:
                hit = per_choice and run.settles_present(target, assignment)
                if leaf and not hit:
                    # the first choice raised the code's errors, so only a
                    # value can fail here
                    run.check(assignment)
                    continue
            if hit:
                _, record = run.record(assignment)
                return Witness(
                    schedule=prefix + (assignment,),
                    tick=record.tick,
                    snapshot=_snapshot_rows(record),
                )
            if leaf:
                continue  # never expanded, so never settled or keyed
            store, key = run.patch(assignment)
            # one probe: a new key is stored with its tick; a known one is
            # kept only when reached strictly earlier, and only then is
            # its state built
            known = len(earliest)
            reached = earliest.setdefault(key, t)
            if len(earliest) == known:
                if reached <= t:
                    continue
                earliest[key] = t
            frontier.append((run.after(store), prefix + (assignment,)))
    return Unreachable(bound=bound, states_explored=explored)


def _declared_names(program: Program) -> tuple:
    """The names the program declares as signals, and those it declares
    as continuous variables."""
    from .syntax.nodes import ContDecl, SignalDecl

    decls = list(program.declarations())
    return (
        {d.name for d in decls if isinstance(d, SignalDecl)},
        {d.name for d in decls if isinstance(d, ContDecl)},
    )


def _snapshot_rows(record) -> tuple:
    return tuple(sorted(settled_rows(record)))


def replay(program: Program, cfg: RewriteConfig, witness: Witness) -> bool:
    """Re-run a witness schedule; True iff the target tick's record is
    reproduced. A program that still holds flow actions can only have been
    searched with native flows, so it is replayed so; any other is
    replayed rewritten."""
    state = init(program, cfg, native_flows=program.has_flows())
    last = None
    for assignment in witness.schedule:
        state, last = state.step(assignment).record()
    return last is not None and _snapshot_rows(last) == witness.snapshot and last.tick == witness.tick
