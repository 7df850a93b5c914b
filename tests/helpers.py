"""Shared generators for the randomized suites."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

from tickflow.kernel import InputAssignment
from tickflow.rational import format_rational
from tickflow.syntax.nodes import SignalDecl
from tickflow.ttl import affine_form

WCRT_CHOICES = (F(1), F(1, 2), F(2), F(3))


@dataclass
class FlowCase:
    rate: F
    start: F
    wcrt: F
    op: str  # <=, <, >=, >
    bound: F
    holds_at_start: bool
    one_step_safe: bool  # invariant also holds one step from the start

    @property
    def source(self) -> str:
        return (
            f"cont a = {format_rational(self.start)};\n"
            f"do {{a' = {format_rational(self.rate)}}} "
            f"until (a {self.op} {format_rational(self.bound)})\n"
        )

    def holds(self, value: F) -> bool:
        if self.op == "<=":
            return value <= self.bound
        if self.op == "<":
            return value < self.bound
        if self.op == ">=":
            return value >= self.bound
        return value > self.bound


def prediction(odes, v: str, wcrt: F):
    """The look-ahead's prediction of `v` two ticks out, as a function of
    its snapshot, as the kernel compiles it: `scale*value + shift` from
    `ttl.affine_form`. `odes` are (name, rational rate) pairs."""
    scale, shift = affine_form(odes, v, wcrt)
    return lambda value: scale * value + shift


def random_rational(rng: random.Random, lo: int, hi: int, den: int = 6) -> F:
    return F(rng.randint(lo * den, hi * den), den) + F(rng.randint(0, den - 1), den * 7)


def random_flow(rng: random.Random, degenerate_start: bool = False) -> FlowCase:
    den = rng.choice((1, 2, 3, 4))
    rate = F(rng.randint(-5 * den, 5 * den), den)  # rate within [-5, 5]
    if rate == 0:
        rate = F(1)
    start = random_rational(rng, -10, 10)
    wcrt = rng.choice(WCRT_CHOICES)
    op = rng.choice(("<=", "<", ">=", ">"))
    upper = op in ("<=", "<")
    step = rate * wcrt
    if degenerate_start:
        # invariant already violated (or broken within one step) at entry
        slack = random_rational(rng, 0, 3)
        bound = start - slack if upper else start + slack
        case = FlowCase(rate, start, wcrt, op, bound, False, False)
        if case.holds(start):  # slack of zero with a non-strict operator
            bound = bound - F(1) if upper else bound + F(1)
            case = FlowCase(rate, start, wcrt, op, bound, False, False)
        return case
    # leave room for at least the first mandatory step
    room = abs(step) * rng.randint(1, 6) + random_rational(rng, 1, 3)
    bound = start + room if upper else start - room
    case = FlowCase(rate, start, wcrt, op, bound, True, True)
    assert case.holds(start) and case.holds(start + step)
    return case


# --- random programs with flows, for the rewrite-equivalence suite -------------


def random_program(rng: random.Random) -> tuple:
    """(source, schedule) pairs mixing flows with preemption, resets,
    parallel composition and an external input."""
    shape = rng.randrange(5)
    wcrt = rng.choice(WCRT_CHOICES)
    r1 = format_rational(F(rng.randint(1, 8), rng.choice((1, 2))))
    r2 = format_rational(F(rng.randint(-8, -1), rng.choice((1, 2))))
    b1 = format_rational(F(rng.randint(4, 30)))
    b2 = format_rational(F(rng.randint(-30, -4)))
    schedule = {}
    if shape == 0:
        source = f"cont a = 0;\ndo {{a' = {r1}}} until (a <= {b1})"
    elif shape == 1:
        source = (
            "cont a = 0, b = 0;\n"
            f"do {{a' = {r1} || b' = {r2}}} until (a <= {b1} && b >= {b2})"
        )
    elif shape == 2:
        source = (
            "cont a = 0, b = 1;\n"
            f"{{ do {{a' = {r1}}} until (a <= {b1}) || do {{b' = {r2}}} until (b >= {b2}) }};\n"
            f"do {{a' = {r2}}} until (a >= {b2})"
        )
    elif shape == 3:
        source = (
            "input signal STOP;\ncont a = 0;\n"
            f"abort (STOP) do {{a' = {r1}}} until (true)"
        )
        schedule = {rng.randint(1, 6): InputAssignment.make(present=["STOP"])}
    else:
        source = (
            "input signal FAULT;\ncont a op+ = 1;\n"
            "loop {\n"
            f"  abort (FAULT) {{ do {{a' = {r1}}} until (a <= {b1}) }};\n"
            "  a = 1"
            + (";\n  pause\n}" if rng.random() < 0.5 else "\n}")
        )
        if rng.random() < 0.7:
            schedule = {rng.randint(1, 4): InputAssignment.make(present=["FAULT"])}
    return source, wcrt, schedule


# --- flows with several op+ rates on one variable -----------------------------


@dataclass
class MultiRateCase:
    """A flow that gives the `op+` variable `a` 2 or 3 rates, and in the
    interleaved variant also the variable `b` one rate placed between two
    of them (`a' = r1 || b' = r2 || a' = r3`), stopped by `a <= bound`.
    The start and the rates of `a` are non-negative and its rates not all
    0, so `a` grows each flow tick and the flow stops."""

    start: F
    b_start: F
    odes: tuple  # ((name, rate), ...) in source order
    wcrt: F
    bound: F

    @property
    def rates(self) -> list:
        return [rate for name, rate in self.odes if name == "a"]

    @property
    def names(self) -> list:
        """The flow's variables, in first-occurrence order."""
        return list(dict.fromkeys(name for name, _ in self.odes))

    @property
    def flow(self) -> str:
        rates = " || ".join(f"{name}' = {format_rational(rate)}" for name, rate in self.odes)
        return f"do {{{rates}}} until (a <= {format_rational(self.bound)})"

    @property
    def decls(self) -> str:
        return (
            f"cont a op+ = {format_rational(self.start)}, "
            f"b = {format_rational(self.b_start)};\n"
        )

    @property
    def source(self) -> str:
        """The flow alone."""
        return self.decls + self.flow

    @property
    def looped(self) -> str:
        """The flow restarted from the start after it stops or the free
        input A preempts it, as a `flow_bank` branch is, beside a branch
        that emits HIT once `a` passes half the bound."""
        alarm = format_rational(self.bound / 2)
        return (
            "input signal A;\nsignal HIT;\n" + self.decls
            + f"{{ loop {{ abort (A) {{ {self.flow} }}; a = {format_rational(self.start)}; pause }} }}\n"
            + f"|| {{ loop {{ if (a >= {alarm}) emit HIT; pause }} }}"
        )


def random_multirate_flow(rng: random.Random, interleaved: bool) -> MultiRateCase:
    """A `MultiRateCase` with rates of `a` drawn from [0, 6] in halves and
    thirds (not all 0), a tick length from `WCRT_CHOICES` and a bound that
    `a`, which grows about m-fold a tick, passes within a few ticks."""
    rates = [F(rng.randint(0, 12), rng.choice((2, 3))) for _ in range(rng.choice((2, 3)))]
    if not any(rates):
        rates[0] = F(1)
    odes = [("a", rate) for rate in rates]
    if interleaved:
        odes.insert(rng.randint(1, len(odes) - 1), ("b", F(rng.randint(-6, 6), 2)))
    start = random_rational(rng, 0, 3)
    wcrt = rng.choice(WCRT_CHOICES)
    bound = (start + sum(rates) * wcrt) * len(rates) ** rng.randint(1, 6)
    return MultiRateCase(start, random_rational(rng, -3, 3), tuple(odes), wcrt, bound)


# the second branch's S registers after the first branch's S, whose slot
# comes first, and from tick 3 on the first branch re-registers its S every
# tick, so registration order and slot order disagree
REREGISTERED = "loop { signal S; pause } || { pause; signal S; loop { emit S; pause } }"


# the shape of the `flow_bank` benchmark: looping bounded flows in parallel,
# two of them with two `op+` rates, at wcrt 1/3
FLOW_BANK = (
    "cont x0 = 0;\ncont x1 op+ = 0;\ncont x2 op+ = 0;\n"
    "{ loop { do {x0' = 3} until (x0 <= 42/5); x0 = 0; pause } }\n"
    "|| { loop { do {x1' = 1/2 || x1' = 2} until (x1 <= 251/6); x1 = 0; pause } }\n"
    "|| { loop { do {x2' = 1/4 || x2' = 7} until (x2 <= 15631/60); x2 = 0; pause } }",
    F(1, 3),
)


def multirate_programs() -> list:
    """(source, wcrt) of `FLOW_BANK` and of the looped flows of six seeded
    `MultiRateCase`s, three of them interleaved."""
    cases = [FLOW_BANK]
    for seed in range(6):
        case = random_multirate_flow(random.Random(seed), interleaved=seed % 2 == 1)
        cases.append((case.looped, case.wcrt))
    return cases


# --- small programs for search-vs-enumeration checks ---------------------------


def random_search_program(rng: random.Random) -> tuple:
    """(source, wcrt) of a small program whose only inputs are the free
    pure signals A and B and whose target signal is HIT. The shapes mix
    input-dependent detours, preemption, suspension, a guarded flow and
    same-named signals declared in parallel branches."""
    shape = rng.randrange(4)
    wcrt = F(1)
    if shape == 0:
        body = _search_stmt(rng, 3)
    elif shape == 1:
        # the detour that made a fingerprint-only depth-first cache unsound
        detour = "; ".join(["pause"] * rng.randint(1, 4))
        tail = "; ".join(["pause"] * rng.randint(0, 3) + ["emit HIT"])
        body = f"pause; if ({_guard(rng)}) {{ {detour} }}; {tail}"
        if rng.random() < 0.5:
            body = f"{{ {body} }} || {{ {_search_stmt(rng, 2)} }}"
    elif shape == 2:
        # two HITs in parallel branches: which one settles as `HIT` (not
        # `HIT:2`) depends on which was declared first
        branches = []
        for _ in range(2):
            delay = "; ".join(["pause"] * rng.randint(1, 2))
            branches.append(
                f"{{ pause; if ({_guard(rng)}) {{ {delay} }}; signal HIT; "
                f"{{ {_search_stmt(rng, 2)} }} }}"
            )
        return "input signal A, B;\n" + " || ".join(branches), wcrt
    else:
        wcrt = rng.choice(WCRT_CHOICES)
        rate = format_rational(F(rng.randint(1, 4), rng.choice((1, 2))))
        limit = format_rational(F(rng.randint(2, 8)))
        alarm = format_rational(F(rng.randint(1, 6)) * wcrt)
        body = (
            "cont z = 0;\n"
            f"{{ loop {{ abort (A) {{ suspend (B) {{ do {{z' = {rate}}} until (z <= {limit}) }} }};"
            " z = 0; pause } }\n"
            f"|| {{ loop {{ if (z >= {alarm}) emit HIT; pause }} }}"
        )
    return "input signal A, B;\nsignal HIT;\n" + body, wcrt


# values the alphabet offers the valued inputs of `random_valued_program`
VALUED_INPUTS = {"ACC": (F(1), F(2)), "LEVEL": (F(3),)}


def random_valued_program(rng: random.Random) -> tuple:
    """(source, wcrt) of a small program with the free pure inputs A and B
    of `random_search_program`, a valued `op+` input ACC and an `int` input
    LEVEL, and the target HIT. One branch emits and writes ACC, so a latched
    value folds with the tick's own write. LEVEL is declared at the top, or
    inside an abort in a loop, so that its instances are registered during
    ticks, killed and registered again."""
    writer = (
        f"loop {{ if ({_guard(rng)}) {{ emit ACC; ?ACC = ?ACC + {rng.randint(1, 2)} }}; "
        "pause }"
    )
    watch = f"if (?LEVEL >= {rng.choice((2, 4))}) emit HIT"
    if rng.random() < 0.5:
        level = "input int signal LEVEL = 0;\n"
        reader = f"loop {{ {watch}; pause }}"
    else:
        level = ""
        reader = (
            f"loop {{ abort ({_guard(rng)}) {{ input int signal LEVEL = 0; "
            f"loop {{ {watch}; pause }} }}; pause }}"
        )
    alarm = f"loop {{ if (?ACC >= {rng.randint(2, 6)}) emit HIT; pause }}"
    branches = " || ".join(
        f"{{ {branch} }}" for branch in (writer, reader, alarm, _search_stmt(rng, 2))
    )
    source = "input signal A, B; input int signal ACC op+ = 0;\n" + level + "signal HIT;\n"
    return source + branches, F(1)


def random_status_value_program(rng: random.Random) -> tuple:
    """(source, wcrt, statuses, values) of a small program with the free
    pure inputs A and B of `random_search_program` and a valued input L,
    whose target HIT waits on L's status and its value, each of which a
    schedule gives on its own, and the alphabet entry of L: the statuses
    it may take and its values."""
    status = rng.choice(("L", "!L", "true", "A || L"))
    value = rng.choice(("?L == 0", "?L == 5", "?L != 0", "?L >= 2"))
    watch = f"loop {{ if ({status} && {value}) emit HIT; pause }}"
    if rng.random() < 0.5:
        watch = f"abort ({rng.choice(('A', 'L', '!B'))}) {{ {watch} }}"
    if rng.random() < 0.5:
        watch = f"pause; {watch}"
    source = (
        "input signal A, B; input int signal L = 0; signal HIT;\n"
        f"{{ {watch} }} || {{ {_search_stmt(rng, 2)} }}"
    )
    statuses = rng.choice((("absent", "present"), ("absent",), ("present",)))
    return source, F(1), statuses, rng.choice(((F(5),), (F(0), F(2)), (F(2),)))


# a tick with two faults: an input check, or a double write of the input,
# and the code's own double write of `a`; a run whose schedule gives L the
# value names the input, as a tick that latched first did, and the search
# raises what a run under its first choice, L with no value, raises; the
# static checks refuse the double write, so each is parsed raw. The `ratio`
# L of the nested block can hold 1/2, so the value passes the check made
# before anything runs and is refused only by the tick-1 latch
TWO_FAULTS = [
    (
        "input int signal L = 0; cont a = 0;\n"
        "{ a = 1 || a = 2 }; pause; { input ratio signal L = 0; pause }",
        F(1, 2), "'L' holds an integer value",
    ),
    (
        "input int signal L = 0; cont a = 0; signal HIT;\n{ a = 1 || a = 2 || ?L = 1 }; pause",
        F(1), "'L' written 2 times in one tick with no combine operator",
    ),
]


def _guard(rng: random.Random) -> str:
    return rng.choice(("A", "B", "!A", "A && B", "A || B"))


def _search_stmt(rng: random.Random, depth: int) -> str:
    kind = rng.randrange(8) if depth else rng.randrange(2)
    if kind == 0:
        return "pause"
    if kind == 1:
        return "emit HIT" if rng.random() < 0.3 else "pause; pause"

    def sub():
        return _search_stmt(rng, depth - 1)

    if kind == 2:
        return f"{sub()}; {sub()}"
    if kind == 3:
        return f"if ({_guard(rng)}) {{ {sub()} }} else {{ {sub()} }}"
    if kind == 4:
        return f"abort ({_guard(rng)}) {{ {sub()} }}"
    if kind == 5:
        return f"suspend ({_guard(rng)}) {{ {sub()} }}"
    if kind == 6:
        return f"{{ {sub()} }} || {{ {sub()} }}"
    return f"loop {{ {sub()}; pause }}"


# --- the settle as a loop over a tick's instances ------------------------------


def settled_by_loop(run, choice=InputAssignment()) -> tuple:
    """The tick of the kernel's run `run` settled under the input choice
    `choice` by one loop over its instances in registration order, as the
    kernel settled a tick before its settle was generated code: the
    record's data, the next store, the next layout (the one the program's
    code interned, or None), the record's layout and the (key, at, slot,
    name) of each input instance. An input instance is also present if the
    choice names it and holds the value `check` gives it, if any."""
    state, code = run.state, run.state.code
    folded = {**run.folded, **run.check(choice)}
    emitted = run.emitted | {
        key for key in (*state.layout, *run.fresh)
        for slot in [key if key >= 0 else ~key]
        if slot in code.inputs and code.decls[slot].name in choice.present
    }
    old, prev, ended = state.store, run.prev, run.ended
    store, data = list(code.empty), []
    tables, seen, entries = ([], [], []), {}, []
    order = run.live + tuple(run.fresh)
    for at, key in enumerate(order):
        slot, pair = (key, old[key]) if key >= 0 else (~key, prev[~key])
        present = key in emitted
        if key in folded:
            pair = (present, folded[key])
        elif pair[0] is not present:
            pair = (present, pair[1])
        data += pair
        if key not in ended:
            store[slot] = pair
        decl = code.decls[slot]
        count = seen[decl.name] = seen.get(decl.name, 0) + 1
        name = f"{decl.name}:{count}" if count > 1 else decl.name
        if decl.__class__ is not SignalDecl:
            tables[2].append((name, 2 * at + 1))
            continue
        tables[0].append((name, 2 * at))
        if decl.stype is not None:
            tables[1].append((name, 2 * at + 1))
        if slot in code.inputs:
            entries.append((key, 2 * at, slot, decl.name))
    layout = tuple([key if key >= 0 else ~key for key in order if key not in ended])
    return tuple(data), store, code.layouts.get(layout), tuple(map(tuple, tables)), tuple(entries)


# --- the target read by name --------------------------------------------------


def settles_present_by_name(run, name: str, choice: InputAssignment) -> bool:
    """Whether the record of the kernel's run `run` under the input choice
    `choice` shows `name` present, read as the kernel read it before it
    resolved names to slots: the first instance in registration order whose
    declaration's name is `name`, compared by name at every instance."""
    code, named = run.state.code, name in choice.present
    for key in run.live:
        if code.decls[key].name == name:
            return key in run.emitted or (named and key in code.inputs)
    for key in run.fresh:
        if code.decls[~key].name == name:
            return key in run.emitted or (named and ~key in code.inputs)
    return False
