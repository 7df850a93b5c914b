from __future__ import annotations

import cProfile
import json
import operator
import pstats
import random
from fractions import Fraction as F

import pytest

from tickflow.errors import ArgumentError, CombineError, CompileError, KernelError
from tickflow import kernel
from tickflow.kernel import InputAssignment, init, run
from tickflow.params import bind_params
from tickflow.rational import format_rational
from tickflow.rewrite import RewriteConfig, rewrite_flows
from tickflow.syntax import parse
from tickflow.syntax.parser import parse_raw
from tickflow.trace import to_csv, to_json
from tickflow.verify import alphabet_for, fingerprint

from conftest import CORPUS, corpus_sources
from helpers import (
    FLOW_BANK,
    REREGISTERED,
    TWO_FAULTS,
    VALUED_INPUTS,
    multirate_programs,
    random_program,
    random_search_program,
    random_status_value_program,
    random_valued_program,
    settled_by_loop,
    settles_present_by_name,
)

CFG1 = RewriteConfig(F(1))
CFG2 = RewriteConfig(F(2))


def _run(source: str, wcrt=F(1), schedule=None, max_ticks=20, **kw):
    cfg = RewriteConfig(wcrt)
    program = rewrite_flows(parse(source), cfg)
    return run(program, cfg, schedule=schedule, max_ticks=max_ticks, **kw)


# --- initialization -----------------------------------------------------------


def test_init_defaults():
    program = parse("signal S; int signal V = 7; cont a;\npause")
    state = init(program, CFG1)
    assert state.tick == 0 and not state.terminated
    state, record = state.step().record()
    assert record.statuses == {"S": False, "V": False}
    assert record.values == {"V": F(7)} and record.conts == {"a": F(0)}
    settled = [state.store[slot] for slot in state.layout]
    assert settled == [(False, None), (False, F(7)), (False, F(0))]


def test_init_declared_value():
    trace = _run("cont a op+ = 1;\npause")
    assert trace.initial_conts["a"] == F(1)


def test_nothing_terminates_first_tick():
    trace = _run("nothing")
    assert trace.terminated and trace.termination_tick == 1
    assert trace.effective_termination_tick == 0


def test_unbound_constant_refused():
    # a program that fails a check keeps no code, so it fails every call
    program = parse("param k;\ncont a;\na = k")
    for native in (False, False, True, True):
        with pytest.raises(KernelError):
            init(program, CFG1, native_flows=native)


def test_unrewritten_flow_refused():
    program = parse("cont a;\ndo {a' = 1} until (a <= 2)")
    for _ in range(2):
        with pytest.raises(KernelError):
            init(program, CFG1)
    init(program, CFG1, native_flows=True)
    # the native code kept for the program does not serve the other mode
    with pytest.raises(KernelError):
        run(program, CFG1)


# --- delayed reads ---------------------------------------------------------------


def test_emission_visible_next_tick():
    trace = _run("signal S; signal A; signal B;\nemit S;\nif (S) emit A else emit B;\npause")
    assert trace.status("B", 1) and not trace.status("A", 1)


def test_value_feedback_sequence():
    trace = _run("int signal S = 0;\nloop { ?S = ?S + 1; pause }", max_ticks=5)
    assert [trace.value("S", t) for t in (1, 2, 3, 4, 5)] == [1, 2, 3, 4, 5]


def test_every_read_returns_previous_settlement():
    source = """
    int signal S = 0;
    cont a;
    loop { ?S = ?S + 1; a = a + 1; pause }
    """
    # a flow's look-ahead reads snapshots; its prediction must not be logged
    flows = """
    signal OFF; cont a = 1, b op+;
    do {a' = 1 || b' = 1 || b' = 2} until (a <= 9 && b <= 30 && !OFF)
    """
    traces = [
        _run(source, max_ticks=8, record_reads=True),
        _run(flows, max_ticks=20, record_reads=True),
        run(parse(flows), CFG1, max_ticks=20, native_flows=True, record_reads=True),
    ]
    for trace in traces:
        settled = {0: {("S", "value"): F(0), ("OFF", "status"): False}}
        settled[0].update(((name, "value"), v) for name, v in trace.initial_conts.items())
        for rec in trace.records:
            settled[rec.tick] = {
                **{(name, "status"): status for name, status in rec.statuses.items()},
                **{(name, "value"): value for name, value in rec.values.items()},
                **{(name, "value"): value for name, value in rec.conts.items()},
            }
        assert trace.read_log
        for t, name, kind, value in trace.read_log:
            assert value == settled[t - 1][(name, kind)]
    assert traces[1].terminated and traces[2].terminated


def test_never_written_value_reads_default():
    trace = _run("int signal S = 0; signal OUT;\nif (?S == 0) emit OUT;\npause")
    assert trace.status("OUT", 1)


# --- write folding ----------------------------------------------------------------


def test_two_writes_without_operator_error():
    source = "cont a;\n{a = 1; pause} || {a = 2; pause}"
    with pytest.raises(KernelError) as err:
        _run(source)
    assert err.value.tick == 1


def test_combine_is_order_insensitive():
    left = _run("cont a op+ = 0;\n{a = 1; pause} || {a = 2; pause}")
    right = _run("cont a op+ = 0;\n{a = 2; pause} || {a = 1; pause}")
    assert left.cont("a", 1) == right.cont("a", 1) == F(3)


def test_times_operator_folds_product():
    trace = _run("cont a op* = 0;\n{a = 3; pause} || {a = 2; pause}")
    assert trace.cont("a", 1) == F(6)


def test_single_write_replaces():
    trace = _run("cont a op+ = 5;\na = 1;\npause")
    assert trace.cont("a", 1) == F(1)


def test_double_emission_is_idempotent():
    trace = _run("signal S;\n{emit S; pause} || {emit S; pause}")
    assert trace.status("S", 1)


def test_int_signal_rejects_fractional_write():
    with pytest.raises(KernelError):
        _run("int signal S = 0;\n?S = 1/2;\npause")


# --- runtime errors ----------------------------------------------------------------

# (source, the located error): programs the static checks reject, parsed
# unchecked; the kernel runs the checks when it first compiles a program
CHECKED_ERRORS = (
    ("signal S; pause; emit X", "1:18: undefined name 'X'"),
    ("signal S; pause; pause; if (Y) emit S", "1:29: undefined name 'Y'"),
    ("cont a; pause; emit a", "1:16: emit target 'a' is not a signal"),
    ("signal S; ?S = 1", "1:11: 'S' is not a valued signal"),
    ("signal S; pause; S = 1", "1:18: assignment target 'S' is not a continuous variable"),
    ("cont a; a = true", "1:9: cannot assign a bool value to 'a'"),
    ("signal S; loop { emit S; if (S) nothing else pause }",
     "1:11: loop body has a path that consumes no tick"),
    ("cont a; pause; do {a' = 1} until (a + 1)", "1:16: until expression must be boolean"),
    ("cont a; pause; do {a' = 1 || a' = 2} until (a <= 5)",
     "1:1: continuous variable 'a' has simultaneous writers but no combine operator"),
    ("cont a = 0; do {a' = 1 || a' = 1} until (a <= 5)",
     "1:1: continuous variable 'a' has simultaneous writers but no combine operator"),
)


@pytest.mark.parametrize("source,located", CHECKED_ERRORS)
def test_unchecked_program_fails_its_check(source, located):
    program = parse_raw(source)
    # the kernel refuses a flow it does not interpret before it checks
    modes = (True,) if program.has_flows() else (False, True)
    for native in modes:
        for _ in range(2):  # a program that fails a check keeps no code
            with pytest.raises(CompileError) as err:
                init(program, CFG1, native_flows=native)
            assert str(err.value) == located, (source, native)


# (source, message substring, tick): programs that pass the static checks
# and fail on a value, run rewritten and native
RUNTIME_ERRORS = (
    ("int signal S = 0; pause; ?S = 1/2", "'S' holds an integer value", 2),
    ("cont a; pause; { {a = 1} || {a = 2} }",
     "'a' written 2 times in one tick with no combine operator", 2),
    # b is written first, but a was declared first: the error names a
    ("cont a; cont b; pause; { {b = 1} || {b = 2} || {a = 1} || {a = 2} }",
     "'a' written 2 times in one tick with no combine operator", 2),
    # c, declared first, is written once and folds before a's two writes
    ("cont c; cont a; pause; { {c = 1} || {a = 1} || {a = 2} }",
     "'a' written 2 times in one tick with no combine operator", 2),
    # two steps in a row on a variable with no operator are two writes
    ("cont a = 0; a = a + 1; a = a + 2; pause",
     "'a' written 2 times in one tick with no combine operator", 1),
)


@pytest.mark.parametrize("source,message,tick", RUNTIME_ERRORS)
def test_runtime_error_message_and_tick(source, message, tick):
    program = parse(source)
    for prog, native in ((rewrite_flows(program, CFG1), False), (program, True)):
        with pytest.raises(KernelError) as err:
            run(prog, CFG1, max_ticks=5, native_flows=native)
        assert message in err.value.message, (source, native)
        assert err.value.tick == tick, (source, native)


# --- preemption and suspension ------------------------------------------------------


def test_abort_does_not_fire_on_entry_tick():
    # the guard is already settled when the body is entered; one tick runs
    source = """
    input signal GO; signal OUT;
    pause; pause;
    abort (GO) { emit OUT; pause; pause };
    pause
    """
    schedule = {1: InputAssignment.make(present=["GO"])}
    trace = _run(source, schedule=schedule, max_ticks=10)
    assert trace.status("OUT", 3)


def test_immediate_abort_fires_on_entry_tick():
    source = """
    input signal GO; signal OUT;
    pause; pause;
    abort (immediate GO) { emit OUT; pause; pause };
    pause
    """
    schedule = {2: InputAssignment.make(present=["GO"])}
    trace = _run(source, schedule=schedule, max_ticks=10)
    assert trace.emission_ticks("OUT") == []


def test_suspend_freezes_body_for_a_tick():
    source = """
    input signal HOLD;
    int signal S = 0;
    suspend (HOLD) loop { ?S = ?S + 1; pause }
    """
    schedule = {2: InputAssignment.make(present=["HOLD"])}
    trace = _run(source, schedule=schedule, max_ticks=5)
    # HOLD settles at tick 2, so tick 3 performs no micro-steps
    assert [trace.value("S", t) for t in (1, 2, 3, 4, 5)] == [1, 2, 2, 3, 4]


def test_immediate_suspend_holds_entry():
    source = """
    input signal HOLD;
    int signal S = 0;
    pause;
    suspend (immediate HOLD) loop { ?S = ?S + 1; pause }
    """
    schedule = {1: InputAssignment.make(present=["HOLD"])}
    trace = _run(source, schedule=schedule, max_ticks=4)
    # the body does not start in tick 2; it starts at tick 3
    assert [trace.value("S", t) for t in (1, 2, 3, 4)] == [0, 0, 1, 2]


def test_suspended_flow_does_not_advance():
    source = """
    input signal HOLD;
    cont a = 0;
    suspend (HOLD) do {a' = 1} until (a <= 100)
    """
    schedule = {2: InputAssignment.make(present=["HOLD"])}
    trace = _run(source, wcrt=F(1), schedule=schedule, max_ticks=5)
    assert [trace.cont("a", t) for t in (1, 2, 3, 4, 5)] == [1, 2, 2, 3, 4]


def test_a_label_around_a_statement_that_cannot_pause_is_never_recorded():
    # `L` and `N` hold no control point at any tick end; `M` holds its
    # pause at the end of each tick that pauses there, in both flow modes
    program = parse(
        "signal S; cont a = 0;\n"
        "loop { L: emit S; N: { a = a + 1; if (S) nothing }; M: pause;"
        " do {a' = 1} until (a <= 4) }"
    )
    for prog, native in ((rewrite_flows(program, CFG1), False), (program, True)):
        trace = run(prog, CFG1, max_ticks=12, native_flows=native)
        assert all(rec.labels in ((), ("M",)) for rec in trace.records), native
        assert [rec.tick for rec in trace.records if rec.labels] == [1, 5, 7, 9, 11], native


# --- lockstep ------------------------------------------------------------------------


def test_parallel_terminates_with_slowest_branch():
    trace = _run("signal S;\n{pause} || {pause; pause; pause; emit S}")
    assert trace.status("S", 4)
    assert trace.terminated and trace.termination_tick == 4


# --- inputs ---------------------------------------------------------------------------


def test_make_builds_what_the_generic_constructor_builds():
    # `make` skips `Struct.__init__`: each assignment it builds, and each
    # choice of a valued alphabet, has the fields, equality, hash and repr
    # of the one the generic constructor builds from the same fields
    made = [
        InputAssignment.make(),
        InputAssignment.make(present=["B", "A"]),
        InputAssignment.make(values={"L": F(1, 2), "ACC": F(2)}),
        InputAssignment.make({"V"}, {"V": True}),
        InputAssignment.make((), {}),
    ]
    program = parse(
        "input signal A, B; input int signal ACC op+ = 0; input int signal LEVEL = 0;\npause"
    )
    made += alphabet_for(program, VALUED_INPUTS).choices()
    for choice in made:
        generic = InputAssignment(choice.present, choice.values)
        assert (choice.present, choice.values) == (generic.present, generic.values)
        assert choice.present.__class__ is frozenset and choice.values.__class__ is tuple
        assert choice == generic and generic == choice
        assert hash(choice) == hash(generic) and repr(choice) == repr(generic)
    assert made[0] == InputAssignment() == kernel.EMPTY_INPUTS
    assert made[2].values == (("ACC", F(2)), ("L", F(1, 2)))
    with pytest.raises(AttributeError):
        made[1].present = frozenset()


def test_unknown_input_rejected():
    program = rewrite_flows(parse("signal S;\npause"), CFG1)
    state = init(program, CFG1)
    with pytest.raises(KernelError):
        state.step(InputAssignment.make(present=["NOPE"]))


def test_value_for_an_undeclared_name_alone_is_rejected():
    # a choice that names the input only in its values is checked too
    state = init(rewrite_flows(parse("input int signal L = 0;\npause"), CFG1), CFG1)
    with pytest.raises(KernelError) as err:
        state.step(InputAssignment.make(values={"NOPE": F(1)}))
    assert (err.value.tick, err.value.message) == (1, "'NOPE' is not a declared input")


def test_the_code_holds_the_programs_input_names():
    # the names a choice is checked against live on the compiled code:
    # they are the names the compiled program's declarations of inputs
    # give, for every corpus program and seeded generated programs,
    # rewritten and native
    cases = [(_bound(path), CFG1) for path in corpus_sources()]
    for seed in range(12):
        source, wcrt, _ = random_program(random.Random(seed))
        cases.append((parse(source), RewriteConfig(wcrt)))
        for generate in (random_search_program, random_valued_program):
            source, wcrt = generate(random.Random(seed))
            cases.append((parse(source), RewriteConfig(wcrt)))
    for program, cfg in cases:
        for native in (False, True):
            compiled = program if native else rewrite_flows(program, cfg)
            state = init(compiled, cfg, native_flows=native)
            assert state.code.input_names == {d.name for d in compiled.inputs()}, compiled


def test_step_checks_names_against_every_declared_input():
    # an undeclared name is refused at the tick it is given, and an input
    # declared only in a scope the program has not entered yet is accepted
    program = parse("input signal A; signal X;\npause; { input signal LATE; pause }; pause")
    state = init(program, CFG1)
    for name in ("A", "LATE"):
        assert state.step(InputAssignment.make(present=[name])).record()[1].tick == 1
    state = state.step().settle()[0]
    for choice in (InputAssignment.make(["NOPE"]), InputAssignment.make(values={"NOPE": 1})):
        with pytest.raises(KernelError) as err:
            state.step(choice)
        assert (err.value.tick, err.value.message) == (2, "'NOPE' is not a declared input")


def test_code_error_surfaces_under_every_choice():
    # the code raises once, before any choice is latched; a choice with an
    # input meets that error after its own checks, as the empty one does
    state = init(parse("input signal P; int signal S = 0;\n?S = 1/2; pause"), CFG1)
    for inputs in (InputAssignment.make(present=["P"]), InputAssignment.make()):
        with pytest.raises(KernelError) as err:
            state.step(inputs)
        assert (err.value.tick, err.value.message) == (1, "'S' holds an integer value")


_GATED = "input signal A; input int signal L = 0; signal X;\nloop { if (A) emit X; pause }"


@pytest.mark.parametrize("schedule, message", [
    # a tick the run never reaches is checked all the same
    ({5: InputAssignment.make(present=["NOPE"])}, "tick 5: 'NOPE' is not a declared input"),
    ({2: InputAssignment.make(values={"NOPE": F(1)})}, "tick 2: 'NOPE' is not a declared input"),
    ({1: InputAssignment.make(present=["B", "A", "NOPE"])}, "tick 1: 'B' is not a declared input"),
    ({2: InputAssignment.make(values={"L": F(1, 2)})},
     "tick 2: value 1/2: 'L' holds an integer value"),
    ({1: InputAssignment.make(values={"A": F(1)})},
     "tick 1: value 1: value supplied for pure input 'A'"),
    # a key that is no tick, worded as a schedule file's
    ({0: InputAssignment.make(present=["A"])}, "bad tick 0"),
    ({"1": InputAssignment.make(present=["A"])}, "bad tick '1'"),
    ({True: InputAssignment.make(present=["A"])}, "bad tick True"),
    ({1: {"A"}}, "tick 1: {'A'} is not an InputAssignment"),
    ([InputAssignment.make(), "A"], "tick 2: 'A' is not an InputAssignment"),
])
def test_run_refuses_a_schedule_before_anything_runs(schedule, message):
    program = parse(_GATED)
    for max_ticks in (3, -1):  # the schedule is checked before max_ticks
        with pytest.raises(ArgumentError) as err:
            run(program, CFG1, schedule, max_ticks=max_ticks)
        assert (err.value.name, err.value.message) == ("schedule", message)


def test_python_int_input_value_settles_as_a_rational():
    state = init(parse("input int signal L = 0;\npause; pause"), CFG1)
    _, record = state.step(InputAssignment.make(present=["L"], values={"L": 5})).record()
    assert record.values["L"] == 5 and record.values["L"].__class__ is F


@pytest.mark.parametrize("value, shown", [("3/2", "'3/2'"), (0.1, "0.1"), (None, "None"), ([1], "[1]")])
def test_run_refuses_an_inexact_input_value(value, shown):
    # only a Fraction or an int is a number: neither a string nor a float
    # is read as the rational it spells or approximates
    program = parse("input ratio signal L = 0;\npause; pause")
    schedule = {1: InputAssignment.make(present=["L"], values={"L": value})}
    with pytest.raises(ArgumentError) as err:
        run(program, CFG1, schedule)
    assert (err.value.name, err.value.message) == (
        "schedule", f"tick 1: value {shown}: 'L' holds a numeric value"
    )


@pytest.mark.parametrize("value", ["3/2", 0.1, None, [1]])
def test_step_refuses_an_inexact_input_value(value):
    state = init(parse("input ratio signal L = 0;\npause; pause"), CFG1)
    with pytest.raises(KernelError) as err:
        state.step(InputAssignment.make(present=["L"], values={"L": value}))
    assert (err.value.message, err.value.tick) == ("'L' holds a numeric value", 1)


def test_value_on_pure_input_rejected():
    program = rewrite_flows(parse("input signal P;\npause; pause"), CFG1)
    state = init(program, CFG1)
    with pytest.raises(KernelError):
        state.step(InputAssignment.make(present=["P"], values={"P": F(1)}))


def test_valued_input_latches():
    source = "input int signal LEVEL = 0; signal HIGH;\nloop { if (?LEVEL >= 3) emit HIGH; pause }"
    schedule = {1: InputAssignment.make(present=["LEVEL"], values={"LEVEL": F(5)})}
    trace = _run(source, schedule=schedule, max_ticks=3)
    assert trace.emission_ticks("HIGH") == [2, 3]  # value persists


def test_schedule_tail_defaults_to_absent():
    source = "input signal P; signal Q;\nloop { if (P) emit Q; pause }"
    schedule = [InputAssignment.make(present=["P"])]
    trace = _run(source, schedule=schedule, max_ticks=4)
    assert trace.emission_ticks("Q") == [2]


def test_input_declared_in_a_killed_and_reentered_scope():
    # GO kills P's scope at ticks 4 and 8; P is re-declared at 6 and 10 and
    # latches only while its scope is live
    source = (
        "input signal GO; signal Q;\n"
        "loop { abort (GO) { input signal P; loop { if (P) emit Q; pause } }; pause; pause }"
    )
    schedule = {
        t: InputAssignment.make(present=["P", "GO"] if t in (3, 7) else ["P"])
        for t in range(1, 12)
    }
    trace = _run(source, schedule=schedule, max_ticks=11)
    assert trace.emission_ticks("P") == [1, 2, 3, 6, 7, 10, 11]
    assert [t for t in range(1, 12) if "P" in trace.record(t).statuses] == [
        1, 2, 3, 6, 7, 10, 11,
    ]
    assert trace.emission_ticks("Q") == [2, 3, 7, 11]
    # a local signal that shadows an input never latches it
    source = "input signal P; signal Q;\nloop { signal P; loop { if (P) emit Q; pause } }"
    trace = _run(source, schedule=[InputAssignment.make(present=["P"])] * 4, max_ticks=4)
    assert trace.emission_ticks("P") == [1, 2, 3, 4]
    assert trace.emission_ticks("P:2") == [] and trace.emission_ticks("Q") == []


def test_an_abort_drops_only_its_body_while_a_sibling_writes_the_outer_name():
    # the first branch writes and emits the outer S before the abort's
    # guard kills the body that declares its own S: the kill drops that S,
    # and the outer S settles present with its write, as on every tick
    source = (
        "input signal GO; int signal S = 0;\n"
        "loop { emit S; ?S = ?S + 1; pause }\n"
        "|| abort (GO) { int signal S = 10; loop { emit S; ?S = ?S + 1; pause } }"
    )
    trace = _run(source, schedule=[InputAssignment.make(present=["GO"])], max_ticks=3)
    assert trace.record(1).values == {"S": F(1), "S:2": F(11)}
    for t in (2, 3):
        assert trace.record(t).statuses == {"GO": False, "S": True}
        assert trace.record(t).values == {"S": F(t)}


def test_terminated_state_refuses_ticks():
    program = rewrite_flows(parse("nothing"), CFG1)
    state, _ = init(program, CFG1).step().record()
    assert state.terminated and state.tick == 1
    with pytest.raises(KernelError):
        state.step()


# --- states are values ------------------------------------------------------------

# S is declared again in the tick its old scope ends, so S and S:2 both
# settle from tick 2; GO kills the abort body, which holds T and c; d is
# declared only after the kill, so its initial value is recorded then
KILLS = """
input signal GO; input int signal LEVEL = 0;
int signal ACC = 0;
{ loop { signal S; emit S; ?ACC = ?ACC + ?LEVEL; pause } }
|| { abort (GO) { signal T; cont c op+ = 1; loop { c = c + 1; emit T; pause } };
     cont d = 5; loop { pause } }
"""


def test_run_keeps_the_first_initial_value_of_each_name():
    # c is declared on tick 1 and killed on tick 3 by GO, present on tick
    # 2; d is declared only after the kill
    schedule = {2: InputAssignment.make(present=["GO"])}
    trace = run(parse(KILLS), CFG1, schedule, max_ticks=4)
    assert trace.initial_conts == {"c": 1, "d": 5}
    assert list(trace.initial_conts) == ["c", "d"]
    # a name declared again keeps its first value
    twice = run(parse("{ cont c = 1; pause }; { cont c = 2; pause }"), CFG1, max_ticks=3)
    assert twice.initial_conts == {"c": 1} and twice.final_cont("c") == 2


# a declaration ended and entered again in one tick (`S`, then `S:2`); a
# body with an ended and two live declarations aborted; a suspend frozen
# holding labels, then aborted while frozen, then frozen before entry
SCOPES = """
input signal GO, HOLD, STOP; int signal N = 0;
{ loop { signal S; emit S; ?N = ?N + 1; pause } }
|| { loop { abort (GO) { { signal V; emit V; pause }; signal T; cont c = 1;
                         loop { c = c + 1; if (T) emit T; pause } }; pause } }
|| { loop { abort (STOP) { suspend (immediate HOLD) {
       signal U; P: { { Q: { emit U; pause } } || { R: pause; pause } } } }; pause } }
"""


def test_killed_reentered_and_frozen_scopes_are_recorded_and_read_as_pinned():
    at = InputAssignment.make
    schedule = {2: at(["GO", "HOLD"]), 3: at(["HOLD"]), 4: at(["STOP"]), 5: at(["HOLD"])}
    trace = run(parse(SCOPES), CFG1, schedule, max_ticks=8, record_reads=True)
    records = []
    for r in trace.records:
        statuses = " ".join(f"{n}{'+' if p else '-'}" for n, p in sorted(r.statuses.items()))
        values = " ".join(f"{n}={v}" for n, v in sorted({**r.values, **r.conts}.items()))
        records.append(f"{r.tick}: {statuses} | {values} | {' '.join(r.labels)}")
    assert records == [
        "1: GO- HOLD- N- S+ STOP- U+ V+ | N=1 | P Q R",
        "2: GO+ HOLD+ N- S- S:2+ STOP- T- U- V- | N=2 c=2 | P",
        "3: GO- HOLD+ N- S- S:2+ STOP- U- | N=3 | P",  # T and c killed
        "4: GO- HOLD- N- S- S:2+ STOP+ U- V+ | N=4 | P",  # still frozen
        "5: GO- HOLD+ N- S- S:2+ STOP- T- V- | N=5 c=2 | ",  # U killed
        "6: GO- HOLD- N- S- S:2+ STOP- T- | N=6 c=3 | ",  # frozen before entry
        "7: GO- HOLD- N- S- S:2+ STOP- T- U+ | N=7 c=4 | P Q R",
        "8: GO- HOLD- N- S- S:2+ STOP- T- U- | N=8 c=5 | P",
    ]
    reads = [
        " ".join(f"{n}{'+' if v is True else '-' if v is False else f'={v}'}"
                 for when, n, _, v in trace.read_log if when == t)
        for t in range(1, 9)
    ]
    assert reads == [
        "N=0 HOLD-",
        "N=1 GO- c=1 T- STOP- HOLD-",
        "N=2 GO+ STOP- HOLD+",
        "N=3 STOP- HOLD+",
        "N=4 GO- c=1 T- STOP+",
        "N=5 GO- c=2 T- HOLD+",
        "N=6 GO- c=3 T- STOP- HOLD-",
        "N=7 GO- c=4 T- STOP- HOLD-",
    ]


def _value_of(state) -> tuple:
    """What a state holds: its key, its store, its layout, its residue."""
    return fingerprint(state), state.store, state.layout, state.residue


def _replay(program, cfg, native, schedule):
    state = init(program, cfg, native_flows=native)
    for inputs in schedule:
        state, _ = state.step(inputs).record()
    return state


def _stepped_cases():
    """(program, cfg, native, choices) for KILLS, the corpus, 20 seeded
    search programs and the multi-rate `op+` programs, each rewritten and
    native."""
    cases = [(parse(KILLS), CFG1)]
    cases += [(_bound(path), CFG1) for path in corpus_sources()]
    for seed in range(20):
        source, wcrt = random_search_program(random.Random(seed))
        cases.append((parse(source), RewriteConfig(wcrt)))
    cases += [(parse(source), RewriteConfig(wcrt)) for source, wcrt in multirate_programs()]
    for program, cfg in cases:
        choices = alphabet_for(program, {"LEVEL": (F(2), F(5))}).choices()
        for native in (False, True):
            compiled = program if native else rewrite_flows(program, cfg)
            yield compiled, cfg, native, choices


def test_step_leaves_its_state_unchanged():
    # every state reached within 3 ticks on every alphabet choice: stepping
    # it with each choice, and settling and recording the tick, leaves it
    # as it was, and each successor is the state a fresh replay of its
    # schedule reaches
    for compiled, cfg, native, choices in _stepped_cases():
        frontier = [((), init(compiled, cfg, native_flows=native))]
        for _ in range(3):
            reached = {}
            for schedule, state in frontier:
                before = _value_of(state)
                for inputs in choices:
                    tick = state.step(inputs)
                    tick.settle()
                    successor, _ = tick.record()
                    after = schedule + (inputs,)
                    fresh = _replay(compiled, cfg, native, after)
                    assert fingerprint(successor) == fingerprint(fresh), after
                    if not successor.terminated:
                        reached.setdefault(fingerprint(successor), (after, successor))
                assert _value_of(state) == before, schedule
            frontier = list(reached.values())


def test_settle_keys_its_state_as_fingerprint_does():
    # differential: every successor of every state the test above reaches
    # is keyed by `settle`, in the pass that builds its store, exactly as
    # `verify.fingerprint` keys the state, down to each entry's type
    for compiled, cfg, native, choices in _stepped_cases():
        frontier = [init(compiled, cfg, native_flows=native)]
        for _ in range(3):
            reached = {}
            for state in frontier:
                for inputs in choices:
                    successor, key = state.step(inputs).settle()
                    want = fingerprint(successor)
                    assert key == want, (compiled, inputs)
                    assert [v.__class__ for v in key[2]] == [v.__class__ for v in want[2]]
                    if not successor.terminated:
                        reached.setdefault(key, successor)
            frontier = list(reached.values())


def _plain(value) -> bool:
    """Whether `value` is built only of tuples, ints, bools, strs and None."""
    if value.__class__ is tuple:
        return all(_plain(item) for item in value)
    return value is None or value.__class__ in (int, bool, str)


def test_settle_keys_hold_only_tuples_ints_bools_strs_and_none():
    # CPython hashes and compares such a key in C: it holds no residue
    # object and no `Fraction`, on every successor of every state reached
    # within 3 ticks
    for compiled, cfg, native, choices in _stepped_cases():
        frontier = [init(compiled, cfg, native_flows=native)]
        for _ in range(3):
            reached = {}
            for state in frontier:
                for inputs in choices:
                    successor, key = state.step(inputs).settle()
                    assert _plain(key), (compiled, inputs, key)
                    if not successor.terminated:
                        reached.setdefault(key, successor)
            frontier = list(reached.values())


@pytest.mark.parametrize("value", [2.5, "3", True, F(3), None])
def test_a_tick_count_that_is_not_an_int_is_refused_by_name(value):
    program = parse("signal S; emit S")
    with pytest.raises(ArgumentError) as err:
        run(program, CFG1, max_ticks=value)
    assert err.value.name == "max_ticks"
    assert err.value.message == f"must be an integer, got {value!r}"


def test_an_unbound_constant_is_refused_at_its_first_declaration():
    # the first `param` in the source locates the error, which is both a
    # compile error and the kernel's; binding the constants runs the program
    source = "cont y = 0;\n  param k = 1; param j = 2; cont x = 0; x = k"
    with pytest.raises(CompileError) as err:
        run(parse(source), CFG1)
    assert isinstance(err.value, KernelError) and err.value.tick is None
    assert str(err.value) == "2:3: named constant 'k' must be bound before execution"
    trace = run(bind_params(parse(source), {}), CFG1, max_ticks=1)
    assert trace.records[0].data == (False, 0, False, 1)


def _stepped_run(program, cfg, native, logged, schedule, max_ticks):
    """What `run` gives, from stepping and recording each tick instead: the
    records, the final state, each continuous variable's first initial
    value and the read log; or the error's class and message."""
    state = kernel.TickState(program, cfg, native, [] if logged else None)
    records, conts = [], {}
    schedule = [entry or InputAssignment() for entry in schedule]
    schedule += [InputAssignment()] * (max_ticks - len(schedule))
    try:
        for choice in schedule:
            tick = state.step(choice)
            for key in tick.fresh:
                decl = state.code.decls[~key]
                if decl.__class__ is not kernel.SignalDecl and decl.name not in conts:
                    conts[decl.name] = tick.prev[~key][1]
            state, record = tick.record()
            records.append(record)
            if state.terminated:
                break
    except KernelError as err:
        return err.__class__, str(err)
    return records, state, conts, state.read_log


def _typed(values) -> list:
    return [(value.__class__, value) for value in values]


def test_run_records_each_tick_as_stepping_does(monkeypatch):
    # differential: on seeded schedules drawn from each stepped case's
    # choices (statuses and values, or no entry), with and without logged
    # reads, `run` gives every record (tick, data, labels and the layout
    # object), the final state (store, layout, residue, whether it
    # terminated), the initial values and the read log that stepping each
    # tick and recording it gives, or raises the same error, as it does on
    # the two programs of TWO_FAULTS. `run` builds each state by its
    # tick's `after`, so the last one it builds is its final state
    cases = list(_stepped_cases())
    for source, value, _ in TWO_FAULTS:
        program = parse(source)
        cases.append((program, CFG1, False, alphabet_for(program, {"L": (value,)}).choices()))
    built = []
    after = kernel._TickCtx.after

    def building(run, store):
        built.append(after(run, store))
        return built[-1]

    monkeypatch.setattr(kernel._TickCtx, "after", building)
    rng = random.Random(0)
    for compiled, cfg, native, choices in cases:
        for logged in (False, True):
            for _ in range(3):
                schedule = [rng.choice((*choices, None)) for _ in range(rng.randint(1, 8))]
                max_ticks = len(schedule) + rng.randint(0, 2)
                want = _stepped_run(compiled, cfg, native, logged, schedule, max_ticks)
                built.clear()
                try:
                    trace = run(compiled, cfg, schedule, max_ticks, native, logged)
                except KernelError as err:
                    assert (err.__class__, str(err)) == want, (compiled, schedule)
                    continue
                records, state, conts, log = want
                final = built[-1]
                assert len(trace.records) == len(records), (compiled, schedule)
                for got, record in zip(trace.records, records):
                    assert (got.tick, _typed(got.data), got.labels) == (
                        record.tick, _typed(record.data), record.labels
                    ), (compiled, schedule)
                    assert got.layout is record.layout, (compiled, schedule)
                assert repr(final.store) == repr(state.store) and final.layout is state.layout
                assert (final.residue, final.terminated) == (state.residue, state.terminated)
                assert trace.terminated == state.terminated
                assert list(trace.initial_conts.items()) == list(conts.items())
                assert trace.read_log == log, (compiled, schedule)


def _code_decides(run) -> tuple:
    """What a tick's code decides: its residue, its labels, the scopes it
    ended and each instance that is not an input, by registration position
    and declaration, with its settled status and value (and value type).
    An instance live at the tick's start is keyed by its slot and has its
    previous value in the state's store; one the tick registered is keyed
    `~slot` and has its initial value in the run's `prev`."""
    order = run.live + tuple(run.fresh)
    code = run.state.code
    settled = tuple(
        (at, id(code.decls[slot]), key in run.emitted, value.__class__, value)
        for at, key in enumerate(order)
        for slot in [key if key >= 0 else ~key]
        if slot not in code.inputs
        for value in [
            run.folded.get(key, (run.state.store if key >= 0 else run.prev)[slot][1])
        ]
    )
    ended = sorted(order.index(key) for key in run.ended)
    return run.residue, list(run.labels), ended, settled


def test_tick_runs_the_same_code_whatever_its_inputs():
    # every read sees the previous tick, so no input choice can change
    # what a tick's code decides: for every state reached within 3 ticks,
    # every choice's tick agrees with the all-absent choice's
    cases = [
        (_bound(path), CFG1) for path in corpus_sources() if _bound(path).inputs()
    ]
    for seed in range(40):
        source, wcrt = random_search_program(random.Random(seed))
        cases.append((parse(source), RewriteConfig(wcrt)))
    for seed in range(8):
        source, wcrt = random_valued_program(random.Random(seed))
        cases.append((parse(source), RewriteConfig(wcrt)))
    for program, cfg in cases:
        choices = alphabet_for(program, VALUED_INPUTS).choices()
        absent = InputAssignment.make()
        assert absent in choices
        compiled = rewrite_flows(program, cfg)
        frontier = {(): init(compiled, cfg)}
        for _ in range(3):
            reached = {}
            for schedule, state in frontier.items():
                decided = _code_decides(state.step(absent))
                for inputs in choices:
                    tick = state.step(inputs)
                    assert _code_decides(tick) == decided, (schedule, inputs)
                    successor, _ = tick.settle()
                    if not successor.terminated:
                        after = schedule + (inputs,)
                        reached.setdefault(fingerprint(successor), (after, successor))
            frontier = dict(reached.values())


def _settles(run, inputs=None) -> tuple:
    """What `run` settles and records the input choice `inputs` (the one
    it was stepped with if None) to: the key and its value types, the
    successor's value, and the record with its layout and typed data; or
    the (message, tick) of the `KernelError` both raise. `record` builds
    its successor in a pass of its own, so the two successors must agree,
    and the key must be `fingerprint` of the recorded one."""
    try:
        successor, key = run.settle(inputs)
    except KernelError as err:
        with pytest.raises(KernelError) as again:
            run.record(inputs)
        assert (again.value.message, again.value.tick) == (err.message, err.tick)
        return err.message, err.tick
    recorded, record = run.record(inputs)
    assert _value_of(successor) == _value_of(recorded) and fingerprint(recorded) == key
    typed = tuple((v.__class__, v) for v in record.data)
    types = [v.__class__ for v in key[2]]
    return key, types, _value_of(successor), record, record.layout, typed


def _stepped(state, inputs, reached: dict) -> tuple:
    """`_settles` of a fresh step of `inputs` from `state`, or the (message,
    tick) of the `KernelError` the step raises. A successor that did not
    terminate is kept in `reached` under its key, unless one is there."""
    try:
        run = state.step(inputs)
    except KernelError as err:
        return err.message, err.tick
    successor, key = run.settle()
    if not successor.terminated:
        reached.setdefault(key, successor)
    return _settles(run)


def _agree(state, fresh: dict, firsts, order) -> None:
    """Step `state` on each choice of `firsts` and settle and record every
    choice of `order` on that run, in that order: each gives what a fresh
    step of it gives, `fresh[choice]`, and a first choice that raises
    raises what its fresh step raises."""
    for first in firsts:
        try:
            run = state.step(first)
        except KernelError as err:
            assert (err.message, err.tick) == fresh[first], (state.tick, first)
            continue
        for inputs in order:
            assert _settles(run, inputs) == fresh[inputs], (state.tick, first, inputs)


def _latched_cases():
    """`_stepped_cases`, then 20 seeded valued programs, each rewritten and
    native, with a seeded rng that picks 3 states of each tick's frontier
    to expand (None for all): a valued program's 97 choices reach about as
    many states per tick."""
    for case in _stepped_cases():
        yield (*case, None)
    for seed in range(20):
        source, wcrt = random_valued_program(random.Random(seed))
        program, cfg = parse(source), RewriteConfig(wcrt)
        choices = alphabet_for(program, VALUED_INPUTS).choices()
        for native in (False, True):
            compiled = program if native else rewrite_flows(program, cfg)
            yield compiled, cfg, native, choices, random.Random(seed)


# the values offered, beside VALUED_INPUTS, to the inputs of `_PATCHED`: 1/2
# is no value of the `int` L, so a choice that gives it one raises
_PATCH_VALUES = {**VALUED_INPUTS, "L": (F(2), F(1, 2)), "V": (True,)}

# L_TWICE: code that writes a valued input with no combine operator, so a
# choice that gives the input a value writes it twice
_L_TWICE = "'L' written 2 times in one tick with no combine operator"
_PATCHED = (
    "input int signal L = 0; signal HIT;\nloop { ?L = 1; if (?L == 2) emit HIT; pause }",
    # code that emits an input, and code that writes a valued `op+` input
    "input signal A; input int signal ACC op+ = 0; signal HIT;\n"
    "loop { ?ACC = ?ACC + 1; if (?ACC >= 4) emit HIT; pause } || loop { emit A; pause }",
    # input instances an abort kills and its loop registers again, and one
    # whose scope ends and that registers again every tick
    "input signal A, B; signal HIT;\n"
    "loop { abort (A) { input signal C; input int signal L = 0; "
    "loop { if (C || ?L == 2) emit HIT; pause } }; pause }\n"
    "|| loop { input boolean signal V = false; if (?V) emit HIT; pause }",
)


def _patched_cases():
    """10 seeded status-value programs and the `_PATCHED` programs, with a
    seeded rng for the last."""
    for seed in range(10):
        source, wcrt, _, values = random_status_value_program(random.Random(seed))
        program, cfg = parse(source), RewriteConfig(wcrt)
        choices = alphabet_for(program, {"L": values}).choices()
        yield rewrite_flows(program, cfg), cfg, False, choices, None
    for seed, source in enumerate(_PATCHED):
        program = parse(source)
        choices = alphabet_for(program, _PATCH_VALUES).choices()
        yield program, CFG1, False, choices, random.Random(seed)


def _agree_as_the_search_steps(cases) -> set:
    """As the search does, the first choice that steps runs the tick and
    every choice settles on its run, in list order (the stepped choice
    first) and reversed, for every state reached within 3 ticks (3 of them
    per tick where a seeded rng picks). Gives the messages of the errors
    the fresh steps met."""
    errors = set()
    for compiled, cfg, native, choices, rng in cases:
        frontier = [init(compiled, cfg, native_flows=native)]
        for _ in range(3):
            if rng is not None and len(frontier) > 3:
                frontier = rng.sample(frontier, 3)
            reached = {}
            for state in frontier:
                fresh = {inputs: _stepped(state, inputs, reached) for inputs in choices}
                errors.update(outcome[0] for outcome in fresh.values() if len(outcome) == 2)
                for order in (choices, choices[::-1]):
                    steps = [len(fresh[inputs]) > 2 for inputs in order]
                    if True in steps:
                        _agree(state, fresh, order[:steps.index(True) + 1], order)
            frontier = list(reached.values())
    return errors


def test_a_choice_latched_onto_another_choices_run_is_that_choices_tick():
    # an input is the first write of its instance, and a tick's errors come
    # in the order a tick that took its choice first would meet them: so
    # settling or recording any choice on the run another choice stepped
    # gives the key, successor and record a fresh `step` of it gives, or
    # raises what stepping it raises, at the same tick. A choice naming an
    # undeclared input raises only when stepped: a run checks values, not
    # names.
    #
    # Every choice settles on the run of every first choice, in list order,
    # for every state reached within 3 ticks, 2 for a valued program. A
    # valued program has 97 choices and reaches a state per choice at tick
    # 2, so there only the empty choice and two drawn by a seeded rng run
    # first; elsewhere every choice does
    cases = [
        (rewrite_flows(_bound(path), CFG1), CFG1, VALUED_INPUTS, 3, None)
        for path in corpus_sources() if _bound(path).inputs()
    ]
    for generate, seeds, ticks in ((random_search_program, 40, 3), (random_valued_program, 8, 2)):
        for seed in range(seeds):
            source, wcrt = generate(random.Random(seed))
            cfg = RewriteConfig(wcrt)
            rng = random.Random(seed) if generate is random_valued_program else None
            cases.append((rewrite_flows(parse(source), cfg), cfg, VALUED_INPUTS, ticks, rng))
    for source, value, _ in TWO_FAULTS:
        cases.append((parse_raw(source), CFG1, {"L": (value,)}, 3, None))
    undeclared = InputAssignment.make(present=["NOPE"])
    for program, cfg, values, ticks, rng in cases:
        choices = alphabet_for(program, values).choices()
        assert choices[0] == InputAssignment.make()
        stepped = [*choices, undeclared]
        frontier = [init(program, cfg)]
        for tick_no in range(1, ticks + 1):
            reached = {}
            for state in frontier:
                fresh = {inputs: _stepped(state, inputs, reached) for inputs in stepped}
                assert fresh[undeclared] == ("'NOPE' is not a declared input", state.tick + 1)
                firsts = stepped
                if rng is not None and tick_no == ticks:
                    firsts = [stepped[i] for i in (0, *rng.sample(range(1, len(stepped)), 2))]
                _agree(state, fresh, firsts, choices)
            frontier = list(reached.values())


def test_every_choice_latched_onto_one_run_settles_as_its_own_step():
    # the search's order on `_latched_cases`: the first choice that steps
    # runs the tick, and every choice settles and records on its run as a
    # fresh step of it would
    _agree_as_the_search_steps(_latched_cases())


def test_every_choice_patched_onto_one_run_settles_as_a_fresh_step():
    # the search's order on `_patched_cases`: code that emits or writes an
    # input, valued inputs with and without a combine operator, and input
    # instances killed, re-registered or ending every tick. The errors a
    # patched choice must meet are met
    errors = _agree_as_the_search_steps(_patched_cases())
    assert {_L_TWICE, "'L' holds an integer value"} <= errors


# scopes that end with their slot not registered again, valued and pure
# ones among them; input instances an abort kills and its loop registers
# again; and an input and a variable re-registered in their slots every tick
_SETTLED = (
    "input signal A; input int signal L = 0; signal S;\n"
    "{ int signal V = 1; cont c = 2; c = c + 1; ?V = 3; pause; emit V; emit S }; "
    "{ signal T; emit T; pause }; pause",
    "input signal A;\n"
    "loop { abort (A) { input int signal L = 0; cont c = 1; loop { c = c + 1; pause } }; pause }"
    " || loop { input signal B; cont d op+ = 1; d = d + 1; emit B; pause }",
)


def _settled_cases():
    """`_stepped_cases`, then `REREGISTERED`, `_SETTLED` and 40 seeds each
    of the four random program generators, each rewritten and native."""
    yield from _stepped_cases()
    cases = [(parse(REREGISTERED), CFG1, None)]
    cases += [(parse(source), CFG1, {"L": (F(2), F(4))}) for source in _SETTLED]
    for seed in range(40):
        source, wcrt, _ = random_program(random.Random(seed))
        cases.append((parse(source), RewriteConfig(wcrt), None))
        source, wcrt = random_search_program(random.Random(seed))
        cases.append((parse(source), RewriteConfig(wcrt), None))
        source, wcrt = random_valued_program(random.Random(seed))
        cases.append((parse(source), RewriteConfig(wcrt), VALUED_INPUTS))
        source, wcrt, _, values = random_status_value_program(random.Random(seed))
        cases.append((parse(source), RewriteConfig(wcrt), {"L": values}))
    for program, cfg, values in cases:
        choices = alphabet_for(program, values).choices()
        for native in (False, True):
            yield program if native else rewrite_flows(program, cfg), cfg, native, choices


def test_the_generated_settle_is_the_loop_over_the_ticks_instances():
    # every tick of every state reached within 4 ticks (3 states a tick,
    # picked by a seeded rng) settles as one loop over its instances
    # settles it: the data, the store, the next layout (the interned
    # object), the record's layout and the input entries; and so do 6
    # drawn choices, through `record` and `patch`, or both raise
    for compiled, cfg, native, choices in _settled_cases():
        rng = random.Random(0)
        frontier = [init(compiled, cfg, native_flows=native)]
        for _ in range(4):
            reached = []
            for state in rng.sample(frontier, min(3, len(frontier))):
                try:
                    run = state.step(choices[0])
                except KernelError:
                    continue
                data, store, (layout, entries, _, _), following = run.settled()
                want = settled_by_loop(run)
                assert (data, store, layout, entries) == (*want[:2], *want[3:]), compiled
                assert following is want[2], compiled
                for inputs in rng.sample(choices, min(6, len(choices))):
                    try:
                        want = settled_by_loop(run, inputs)
                    except KernelError as err:
                        with pytest.raises(KernelError, match=err.message):
                            run.record(inputs)
                        continue
                    successor, record = run.record(inputs)
                    assert (record.data, list(successor.store)) == want[:2], (compiled, inputs)
                    assert successor.layout is want[2] and record.layout == want[3]
                    assert run.patch(inputs)[0] == want[1], (compiled, inputs)
                    if not successor.terminated:
                        reached.append(successor)
            frontier = reached


# one name declared twice, nested and re-registered every tick, inside the
# scope of an input of that name
_NAMED_TWICE = (
    "input signal S, T;\n"
    "{ loop { signal S; emit S; pause; loop { signal S; if (T) emit S; pause } } }\n"
    "|| { loop { if (S) emit T; pause } }"
)


def test_the_target_is_read_by_its_slots_as_by_its_name():
    # every run of every state reached within 3 ticks, under every choice,
    # reads each declared name and an undeclared one, each present and
    # absent in the choice, as a scan comparing each instance's name does
    programs = [(parse(source), CFG1) for source in (REREGISTERED, _NAMED_TWICE)]
    extra = [(p, cfg, False, alphabet_for(p).choices()) for p, cfg in programs]
    for compiled, cfg, native, choices in [*_stepped_cases(), *extra]:
        names = {d.name for d in compiled.declarations()} | {"UNDECLARED"}
        frontier = [init(compiled, cfg, native_flows=native)]
        for _ in range(3):
            reached = {}
            for state in frontier:
                for inputs in choices:
                    try:
                        run = state.step(inputs)
                    except KernelError:
                        continue
                    for name in names:
                        for given in (InputAssignment.make({name}), InputAssignment()):
                            want = settles_present_by_name(run, name, given)
                            assert run.settles_present(name, given) is want, (compiled, name)
                    successor, key = run.settle()
                    if not successor.terminated:
                        reached.setdefault(key, successor)
            frontier = list(reached.values())


def test_snapshot_names_instances_like_the_record():
    # the second branch declares its S first, so it settles as `S`; the
    # state's store, its settled snapshot, lists it first too
    source = """
    signal T;
    { pause; pause; signal S; { pause; emit S; emit T; pause } }
    || { pause; signal S; { pause; pause; pause; pause } }
    """
    state = init(parse(source), CFG1)
    for _ in range(4):
        state, record = state.step().record()
    assert record.statuses["S"] is False and record.statuses["S:2"] is True
    settled = [
        state.store[slot][0] for slot in state.layout if state.code.decls[slot].name == "S"
    ]
    assert settled == [False, True]


def test_records_and_keys_follow_registration_order_not_slot_order():
    state = init(parse(REREGISTERED), CFG1)
    records, keys = [], []
    for _ in range(5):
        tick = state.step()
        _, key = tick.settle()
        state, record = tick.record()
        records.append(record)
        keys.append(key)
    # tick 2: the first branch's S ends and registers again, then the
    # second branch registers its S and emits it
    assert records[1].statuses == {"S": False, "S:2": False, "S:3": True}
    # the S the second branch registered at tick 2 is now the first live
    for record in records[3:]:
        assert list(record.statuses) == ["S", "S:2", "S:3"]
        assert record.statuses["S"] is True
    for key in keys[2:]:
        assert key[2] == (1, True, None, 0, False, None)


# --- labels -------------------------------------------------------------------------


def test_labels_mark_paused_positions():
    source = """
    input signal GO;
    abort (GO) loop WAITING: pause;
    RUNNING: pause
    """
    schedule = {2: InputAssignment.make(present=["GO"])}
    trace = _run(source, schedule=schedule, max_ticks=5)
    assert trace.record(1).labels == ("WAITING",)
    assert trace.record(2).labels == ("WAITING",)
    assert trace.record(3).labels == ("RUNNING",)  # the kill tick moves on
    assert trace.terminated
    # a frozen body's labels still hold a paused point, and so does a
    # label resumed at its first pause
    source = """
    input signal HOLD;
    { suspend (HOLD) loop { WAITING: pause } } || { loop RUNNING: { pause; pause } }
    """
    trace = _run(source, schedule={2: InputAssignment.make(present=["HOLD"])}, max_ticks=4)
    assert [trace.record(t).labels for t in (1, 2, 3, 4)] == [("RUNNING", "WAITING")] * 4


# --- determinism -------------------------------------------------------------------


def test_bit_identical_reruns():
    source = """
    cont a op+ = 1;
    input signal FAULT;
    loop { abort (FAULT) { do {a' = 1} until (a <= 5) }; a = 1 }
    """
    schedule = {1: InputAssignment.make(present=["FAULT"])}
    first = _run(source, wcrt=F(2), schedule=schedule, max_ticks=9)
    second = _run(source, wcrt=F(2), schedule=schedule, max_ticks=9)
    assert first.records == second.records


# --- physical time --------------------------------------------------------------------


def test_time_advances_by_wcrt():
    trace = _run("cont a;\ndo {a' = 1} until (a <= 6)", wcrt=F(3, 2), max_ticks=10)
    times = [F(entry["time"]) for entry in json.loads(to_json(trace))["ticks"]]
    assert len(times) == len(trace.records) > 1
    assert times == [F(3, 2) * (i + 1) for i in range(len(times))]


# --- comparisons against literals -----------------------------------------------

_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


def _holds_first_tick(decls: str, cond: str, wcrt: F) -> bool:
    trace = _run(f"{decls}\nsignal HOLDS;\nif ({cond}) emit HOLDS;\npause", wcrt, max_ticks=1)
    return trace.status("HOLDS", 1)


def test_comparison_with_literal_matches_fraction_evaluation():
    # a continuous read, a one-rate and a two-rate op+ prediction, each
    # against its own value, the values next to it, and negative and
    # non-integer literals; the expected status is plain Fraction arithmetic
    wcrt = F(2, 3)
    start = F(-5, 4)
    r1, r2 = F(3, 2), F(-1, 3)
    one_rate = start + 2 * r1 * wcrt
    two_rate = start
    for _ in range(2):
        two_rate = (two_rate + r1 * wcrt) + (two_rate + r2 * wcrt)
    cases = [
        ("cont a = -5/4;", "a {op} {lit}", start),
        ("cont a = -5/4;", "TTL([a' = 3/2], a {op} {lit}, {{a}})", one_rate),
        ("cont a op+ = -5/4;", "TTL([a' = 3/2, a' = -1/3], a {op} {lit}, {{a}})", two_rate),
    ]
    for decls, template, seen in cases:
        literals = {seen, seen - F(1, 7), seen + F(1, 7), F(-3), F(-7, 2), F(5, 3), F(0)}
        for op, holds in _OPS.items():
            for lit in sorted(literals):
                cond = template.format(op=op, lit=format_rational(lit))
                assert _holds_first_tick(decls, cond, wcrt) is holds(seen, lit), cond


def test_prediction_outside_a_comparison_is_the_prediction():
    # the prediction (0 + 2*1*2 = 4, and 4*1 + 3*(1+2)*2 = 22) in
    # arithmetic, on the right of a comparison and as a sum
    assert _holds_first_tick("cont a = 0;", "TTL([a' = 1], a + 0 == 4, {a})", F(2))
    assert _holds_first_tick("cont a = 0;", "TTL([a' = 1], 4 == a, {a})", F(2))
    two = "cont a op+ = 1, b = 0;"
    assert _holds_first_tick(two, "TTL([a' = 1, a' = 2, b' = 1], a - b == 18, {a, b})", F(2))


def test_lookahead_reads_every_site_variable_in_site_order():
    # the invariant names only b; a is still read, first
    source = "cont a = 1, b = 2;\nloop { if (TTL([a' = 1, b' = 1], b <= 10, {a, b})) pause else pause }"
    trace = run(parse(source), CFG1, max_ticks=1, record_reads=True)
    assert trace.read_log == [(1, "a", "value", F(1)), (1, "b", "value", F(2))]


# --- the step of a rewritten flow -------------------------------------------------


def test_literal_step_matches_fraction_addition():
    # `v + c` with `v` a continuous read and `c` a literal is computed from
    # integers; it must be exactly the Fraction sum, with the read logged
    # as any read: integral, non-integral and negative literals, and
    # snapshots with unit and non-unit denominators
    starts = (F(0), F(3), F(-5, 4), F(7, 6), F(-2, 9))
    literals = (F(2), F(-3), F(1, 3), F(-5, 6), F(3, 4), F(9, 2))
    for v in starts:
        for c in literals:
            source = f"cont a = {format_rational(v)};\na = a + {format_rational(c)};\npause"
            trace = _run(source, max_ticks=1, record_reads=True)
            got = trace.cont("a", 1)
            assert got.__class__ is F, source
            assert (got.numerator, got.denominator) == ((v + c).numerator, (v + c).denominator)
            assert trace.read_log == [(1, "a", "value", v)], source


def test_literal_step_from_another_variable_and_folded_by_op_plus():
    v, c1, c2 = F(-7, 4), F(5, 6), F(-2)
    start = format_rational(v)
    # x = y + c: y is read, x gets the sum
    trace = _run(f"cont y = {start}, x = 0;\nx = y + 5/6;\npause", max_ticks=1, record_reads=True)
    assert trace.cont("x", 1) == v + c1 and trace.cont("y", 1) == v
    assert trace.read_log == [(1, "y", "value", v)]
    # two steps of one op+ variable in one tick fold to the sum of both
    trace = _run(
        f"cont a op+ = {start};\n{{ a = a + 5/6; pause }} || {{ a = a + -2; pause }}",
        max_ticks=1, record_reads=True,
    )
    assert trace.cont("a", 1) == (v + c1) + (v + c2)
    assert trace.read_log == [(1, "a", "value", v), (1, "a", "value", v)]


# --- runs of steps that are, and are not, written as one sum ----------------------


def test_rewrite_refuses_simultaneous_rates_with_no_operator():
    # no step of a variable with no operator is summed with another
    with pytest.raises(CombineError) as err:
        rewrite_flows(parse_raw("cont a = 0;\ndo {a' = 1 || a' = 1} until (a <= 5)"), CFG1)
    assert "simultaneous writers but no combine operator" in str(err.value)


def test_op_times_rates_are_refused_in_every_mode():
    # the look-ahead folds simultaneous rates linearly: `op*` rates have no
    # rewrite, so native mode does not run them either
    source = "cont a op* = 1;\ndo {a' = 1 || a' = 2} until (a <= 400)"
    message = "1:1: continuous variable 'a' combines simultaneous writers with a non-linear operator"
    for refuse in (parse, lambda text: init(parse_raw(text), CFG1, native_flows=True)):
        with pytest.raises(CombineError) as err:
            refuse(source)
        assert str(err.value) == message


def test_steps_split_by_another_statement_fold_as_the_unsplit_run():
    # `a + 1` and `a + 2` both read the settled value: 0 -> 3 -> 9 -> 21,
    # whether an emission sits between the steps or not
    split = _run(
        "cont a op+ = 0; signal T;\nloop { a = a + 1; emit T; a = a + 2; pause }",
        max_ticks=3, record_reads=True,
    )
    unsplit = _run(
        "cont a op+ = 0; signal T;\nloop { a = a + 1; a = a + 2; emit T; pause }",
        max_ticks=3, record_reads=True,
    )
    assert [split.cont("a", t) for t in (1, 2, 3)] == [F(3), F(9), F(21)]
    assert to_csv(split) == to_csv(unsplit) and split.read_log == unsplit.read_log


# --- compiled shapes against spellings they do not match ----------------------------

_SHAPES = (
    "cont x = 0, y = 1/2;\nsignal S, T;\n"
    "{{ loop {{ do {{x' = 3/2}} until (x <= 6); x = 0; pause }} }}\n"
    "|| {{ loop {{ {if}; {step}; pause{tail} }} }}\n"
    "|| {{ loop {{ {pausing_if}; pause }} }}"
)
_SPELLINGS = {  # slot -> (the compiled shape, a spelling it does not match)
    "if": ("if (!(x >= 3)) emit T else emit S", "if (x >= 3) emit S else emit T"),
    "step": ("y = y + -1/3", "y = -1/3 + y"),
    "tail": ("", "; nothing"),
    # a branch that can pause keeps the generic code and its branch numbers
    "pausing_if": ("if (!T) { pause } else nothing", "if (T) nothing else { pause }"),
}


def _outputs(source: str) -> tuple:
    """The CSV, JSON and read log of 30 ticks at wcrt 1 and 1/3, rewritten
    and native, and the residue after each of those ticks."""
    traces, residues = [], []
    for wcrt in (F(1), F(1, 3)):
        cfg = RewriteConfig(wcrt)
        for native in (False, True):
            program = parse(source) if native else rewrite_flows(parse(source), cfg)
            trace = run(program, cfg, max_ticks=30, native_flows=native, record_reads=True)
            traces.append((to_csv(trace), to_json(trace), trace.read_log))
            state = init(program, cfg, native_flows=native)
            for _ in range(30):
                state, _ = state.step().record()
                residues.append(state.residue)
    return traces, residues


def test_compiled_shapes_behave_as_their_generic_spellings():
    shaped = {slot: pair[0] for slot, pair in _SPELLINGS.items()}
    traces, residues = _outputs(_SHAPES.format(**shaped))
    for slot, (_, generic) in _SPELLINGS.items():
        got_traces, got_residues = _outputs(_SHAPES.format(**{**shaped, slot: generic}))
        assert got_traces == traces, slot
        if slot != "pausing_if":  # the one pair whose If branches are numbered apart
            assert got_residues == residues, slot


def test_rewritten_flow_tick_builds_no_seq_or_if_residue():
    # a residue is a tuple, so a tick that builds one leaves a new object:
    # a rewritten flow's tick leaves the one residue built at compile time
    def residues(source: str) -> set:
        program = rewrite_flows(parse(source), CFG1)
        state = init(program, CFG1)
        left = []
        for _ in range(10):
            state, _ = state.step().record()
            left.append(state.residue)
        assert not state.terminated and len(set(left)) == 1
        return {id(res) for res in left}

    assert len(residues("cont a = 0;\ndo {a' = 1} until (a <= 50)")) == 1
    # the same loop spelled with a trailing `nothing` builds one per tick
    generic = "cont a = 0;\nloop { a = a + 1; if (a >= 50) pause; pause; nothing }"
    assert len(residues(generic)) == 10


# --- one compilation per program object ---------------------------------------------

_PARAMS = {"alpha": F(3), "beta": F(10), "theta": F(6), "TAG": F(1)}


def _bound(path):
    """The corpus program at `path`, freshly parsed, its constants bound."""
    program = parse(path.read_text())
    return bind_params(program, _PARAMS if program.params() else {})


def _schedule(program):
    """FAULT present at ticks 1 and 4, for a program that reads it."""
    if "FAULT" not in {d.name for d in program.inputs()}:
        return None
    return {t: InputAssignment.make(present=["FAULT"]) for t in (1, 4)}


def _texts(trace) -> tuple:
    return to_csv(trace), to_json(trace), trace.read_log


def test_program_run_again_at_other_tick_lengths_runs_like_fresh_copies():
    # one program object is compiled for wcrt 1, then 1/3, then reused at
    # 1; every run must equal the run of a freshly parsed copy
    for path in corpus_sources():
        kept = _bound(path)
        schedule = _schedule(kept)
        for native in (False, True):
            program = kept if native else rewrite_flows(kept, CFG1)
            for wcrt in (F(1), F(1, 3), F(1)):
                cfg = RewriteConfig(wcrt)
                fresh = _bound(path)
                fresh = fresh if native else rewrite_flows(fresh, CFG1)
                kw = dict(max_ticks=30, native_flows=native, record_reads=True)
                got = run(program, cfg, schedule, **kw)
                assert _texts(got) == _texts(run(fresh, cfg, schedule, **kw)), (path, native, wcrt)


# --- recording builds the store settling builds -------------------------------------


def _record_matches_settle(program, cfg, native, choices, rng, ticks=20):
    """Run `ticks` ticks on random choices; settle and record each tick,
    and require the same store (slots, statuses, value types and values),
    the same layout and the same key from both."""
    state = init(program, cfg, native_flows=native)
    for _ in range(ticks):
        tick = state.step(rng.choice(choices))
        settled, key = tick.settle()
        state, _ = tick.record()
        assert [pair and (*pair, pair[1].__class__) for pair in state.store] == [
            pair and (*pair, pair[1].__class__) for pair in settled.store
        ]
        assert state.layout is settled.layout
        assert fingerprint(state) == fingerprint(settled) == key
        if state.terminated:
            return


def test_record_builds_the_store_settle_builds():
    rng = random.Random(3)
    cases = []
    for path in corpus_sources():
        for wcrt in (F(1), F(1, 3)):
            cases.append((_bound(path), RewriteConfig(wcrt)))
    for seed in range(40):
        source, wcrt = random_search_program(random.Random(seed))
        cases.append((parse(source), RewriteConfig(wcrt)))
    for program, cfg in cases:
        choices = alphabet_for(program).choices()
        for native in (False, True):
            compiled = program if native else rewrite_flows(program, cfg)
            _record_matches_settle(compiled, cfg, native, choices, rng)


def test_equal_record_layouts_of_a_run_are_one_object_and_every_slot_is_declared():
    # a plan per order of a tick's instances, but one record layout per
    # value; a look-ahead reads its snapshots into locals, so it takes no
    # slot: the rewritten bank's slots are its variables and stop signals
    source, wcrt = FLOW_BANK
    cfg = RewriteConfig(wcrt)
    for native, distinct, names in (
        (False, 6, ["x0", "x1", "x2", "__stop1", "__stop2", "__stop3"]),
        (True, 1, ["x0", "x1", "x2"]),
    ):
        program = parse(source) if native else rewrite_flows(parse(source), cfg)
        trace = run(program, cfg, max_ticks=200, native_flows=native)
        layouts = {id(record.layout): record.layout for record in trace.records}
        assert len(layouts) == len(set(layouts.values())) == distinct
        decls = init(program, cfg, native_flows=native).code.decls
        assert [decl.name for decl in decls] == names


# --- a tick's rationals are built and read from integers ----------------------------


def _fraction_calls(program, cfg, ticks) -> dict:
    """(method, caller module) -> calls of `Fraction.__new__` and of the
    `numerator` and `denominator` properties, made by the second `run` of
    `program` (the first compiles it) and the `to_csv` of its trace."""
    run(program, cfg, max_ticks=ticks)
    profile = cProfile.Profile()
    profile.enable()
    to_csv(run(program, cfg, max_ticks=ticks))
    profile.disable()
    calls = {}
    for (path, _, name), (*_, callers) in pstats.Stats(profile).stats.items():
        if path.endswith("fractions.py") and name in ("__new__", "numerator", "denominator"):
            for (caller, _, _), (count, *_) in callers.items():
                module = caller.rpartition("/")[2]
                calls[name, module] = calls.get((name, module), 0) + count
    return calls


def test_a_run_builds_no_fraction_through_its_constructor_and_reads_no_property():
    # every rational a tick computes is built by `rational.ratio` and read
    # by `as_integer_ratio()`; the carousel's `?S1 == 1` is `Fraction.__eq__`,
    # which reads the properties itself
    source, wcrt = FLOW_BANK
    cfg = RewriteConfig(wcrt)
    assert _fraction_calls(rewrite_flows(parse(source), cfg), cfg, 60) == {}
    carousel = bind_params(
        parse((CORPUS / "programs" / "carousel.hsj").read_text()),
        {"alpha": F(1), "beta": F(10), "theta": F(6), "TAG": F(1)},
    )
    calls = _fraction_calls(rewrite_flows(carousel, CFG1), CFG1, 44)
    assert calls == {("numerator", "fractions.py"): 4, ("denominator", "fractions.py"): 4}


def test_library_refuses_a_program_nested_past_the_recursion_limit():
    # 600 declarations in one block parse, and every later pass a library
    # caller reaches says so in a `TickflowError` of its own, as the command
    # line and the corpus runner do
    from tickflow.errors import NestingError, TickflowError
    from tickflow.verify import check_reachable

    program = parse("".join(f"signal S{i};\n" for i in range(600)) + "pause")
    calls = (
        lambda: bind_params(program),
        lambda: rewrite_flows(program, CFG1),
        lambda: run(program, CFG1),
        lambda: init(program, CFG1),
        lambda: check_reachable(program, CFG1, None, bound=2, target="S0"),
    )
    for call in calls:
        with pytest.raises(NestingError) as err:
            call()
        assert isinstance(err.value, TickflowError)
        assert str(err.value) == "nested too deep to process"
