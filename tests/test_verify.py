from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import CORPUS
from helpers import (
    TWO_FAULTS,
    VALUED_INPUTS,
    multirate_programs,
    random_search_program,
    random_status_value_program,
    random_valued_program,
)
from tickflow import files, kernel, verify
from tickflow.errors import (
    ArgumentError,
    CompileError,
    KernelError,
    ScheduleError,
    SearchLimitError,
    TickflowError,
)
from tickflow.kernel import InputAssignment, init, run
from tickflow.params import bind_params
from tickflow.rational import format_value
from tickflow.rewrite import RewriteConfig, rewrite_flows
from tickflow.syntax import parse
from tickflow.syntax.nodes import (
    Abort,
    ContDecl,
    DoUntil,
    If,
    Label,
    Loop,
    Parallel,
    Pause,
    Program,
    Seq,
    SignalDecl,
)
from tickflow.syntax.parser import parse_raw
from tickflow.verify import (
    InputAlphabet,
    Unreachable,
    Witness,
    alphabet_for,
    check_reachable,
    fingerprint,
    replay,
)

CFG1 = RewriteConfig(F(1))


def _program(source: str, wcrt=F(1), params=None):
    program = parse(source)
    if params:
        program = bind_params(program, params)
    return rewrite_flows(program, RewriteConfig(wcrt))


def test_trivial_emission_witness():
    program = _program("signal ERROR;\nemit ERROR")
    verdict = check_reachable(program, CFG1, None, bound=3, target="ERROR")
    assert isinstance(verdict, Witness)
    assert verdict.tick == 1
    assert verdict.schedule == (InputAssignment.make(),)
    assert replay(program, CFG1, verdict)


def test_closed_system_matches_plain_run():
    source = "signal TICKED;\npause; pause;\nemit TICKED;\npause"
    program = _program(source)
    trace = run(program, CFG1, max_ticks=10)
    verdict = check_reachable(program, CFG1, None, bound=10, target="TICKED")
    assert isinstance(verdict, Witness)
    assert trace.emission_ticks("TICKED") == [verdict.tick]
    missing = check_reachable(program, CFG1, None, bound=2, target="TICKED")
    assert isinstance(missing, Unreachable)


def test_input_driven_search_finds_shortest():
    source = """
    input signal GO; signal FIRED;
    loop { if (GO) emit FIRED; pause }
    """
    program = _program(source)
    verdict = check_reachable(
        program, CFG1, alphabet_for(parse(source)), bound=6, target="FIRED"
    )
    assert isinstance(verdict, Witness)
    # GO at tick 1 is read at tick 2: shortest witness settles FIRED at 2
    assert verdict.tick == 2
    assert verdict.schedule[0].present == frozenset({"GO"})
    assert replay(program, CFG1, verdict)


def test_unreachable_when_inputs_cannot_help():
    source = """
    input signal GO; signal FIRED;
    loop { if (GO) nothing else nothing; pause }
    """
    program = _program(source)
    verdict = check_reachable(
        program, CFG1, alphabet_for(parse(source)), bound=5, target="FIRED"
    )
    assert isinstance(verdict, Unreachable)
    assert verdict.bound == 5


def test_monotonicity_in_the_bound():
    source = "signal LATE;\npause; pause; pause;\nemit LATE;\npause"
    program = _program(source)
    reachable_at = [
        isinstance(check_reachable(program, CFG1, None, bound=b, target="LATE"), Witness)
        for b in range(1, 8)
    ]
    assert reachable_at == [False, False, False, True, True, True, True]


def test_dfs_agrees_on_verdict():
    source = """
    input signal GO; signal FIRED;
    loop { if (GO) emit FIRED; pause }
    """
    program = _program(source)
    alphabet = alphabet_for(parse(source))
    bfs = check_reachable(program, CFG1, alphabet, bound=5, target="FIRED")
    dfs = check_reachable(
        program, CFG1, alphabet, bound=5, target="FIRED", strategy="dfs"
    )
    assert isinstance(bfs, Witness) and isinstance(dfs, Witness)
    assert replay(program, CFG1, dfs)


def test_visited_pruning_collapses_input_explosion():
    # eight input choices per tick but only nine reachable settled states
    # (the start state plus one per last-tick input pattern): the
    # fingerprint set caps the search at 9 * 8 expansions instead of 8^50
    source = """
    input signal A1; input signal A2; input signal A3;
    signal NEVER;
    loop { pause }
    """
    program = _program(source)
    alphabet = alphabet_for(parse(source))
    choices = len(alphabet.choices())
    verdict = check_reachable(
        program, CFG1, alphabet, bound=50, target="NEVER", node_limit=500
    )
    assert isinstance(verdict, Unreachable)
    assert verdict.states_explored == (1 + choices) * choices


def test_node_limit_guard():
    source = """
    input signal A1; input signal A2; input signal A3;
    int signal N = 0;
    signal NEVER;
    loop { ?N = ?N + 1; pause }
    """
    program = _program(source)
    alphabet = alphabet_for(parse(source))
    with pytest.raises(SearchLimitError):
        check_reachable(
            program, CFG1, alphabet, bound=50, target="NEVER", node_limit=100
        )


def test_valued_alphabet_choices():
    alphabet = InputAlphabet.make(
        {"P": ("absent", "present")}, {"P": (F(1), F(2))}
    )
    # each status with no value and with each value, as a schedule may
    # give them: 2 + 2*|V| choices, all-absent first
    assert alphabet.choices() == [
        InputAssignment.make(),
        InputAssignment.make(values={"P": F(1)}),
        InputAssignment.make(values={"P": F(2)}),
        InputAssignment.make(present=["P"]),
        InputAssignment.make(present=["P"], values={"P": F(1)}),
        InputAssignment.make(present=["P"], values={"P": F(2)}),
    ]
    # a pure input has no values: absent, then present
    pure = InputAlphabet.make({"A": ("absent", "present")}).choices()
    assert pure == [InputAssignment.make(), InputAssignment.make(present=["A"])]


def _choices_by_product(alphabet: InputAlphabet) -> list:
    """Every choice of `alphabet`, built anew from the product of each
    input's statuses and (no value, then each of its values)."""
    value_map = dict(alphabet.values)
    per_input = [
        [(name, status, v) for status in statuses for v in (None, *value_map.get(name, ()))]
        for name, statuses in alphabet.statuses
    ]
    return [
        InputAssignment.make(
            present=[name for name, status, _ in combo if status == "present"],
            values={name: v for name, _, v in combo if v is not None},
        )
        for combo in itertools.product(*per_input)
    ]


def _classes(choices: list) -> list:
    return [[value.__class__ for _, value in choice.values] for choice in choices]


def test_choices_are_kept_per_alphabet_and_handed_out_as_new_lists():
    # equal alphabets, one object asked twice or two built apart, give the
    # product's choices in its order, and a caller that appends to the list
    # it was given changes no later call's list
    statuses = {"A": ("absent", "present"), "P": ("present", "absent"), "Q": ("absent",)}
    values = {"P": (F(1), F(1, 2)), "Q": (F(3),)}
    first, second = InputAlphabet.make(statuses, values), InputAlphabet.make(statuses, values)
    want = _choices_by_product(first)
    assert len(want) == 2 * 6 * 2
    for alphabet in (first, first, second, second):
        got = alphabet.choices()
        assert got == want and _classes(got) == _classes(want)
        got.append(InputAssignment.make(present=["A"]))
    # alphabets equal as values may hold values of different classes, and
    # each keeps its own: the choices are not shared between equal values
    free = {"X": ("absent", "present")}
    whole, true = InputAlphabet.make(free, {"X": (1,)}), InputAlphabet.make(free, {"X": (True,)})
    assert whole == true
    assert _classes(whole.choices()) == [[], [int], [], [int]]
    assert _classes(true.choices()) == [[], [bool], [], [bool]]


def test_default_alphabet_needs_each_valued_inputs_values():
    program = _program("input int signal LEVEL = 0; input signal GO;\nloop { pause }")
    for values in (None, {"LEVEL": ()}, {"GO": (F(1),)}):
        with pytest.raises(ScheduleError) as err:
            alphabet_for(program, values)
        assert str(err.value) == "valued input 'LEVEL' needs a finite value set"
    both = ("absent", "present")
    assert alphabet_for(program, {"LEVEL": (F(1),)}) == InputAlphabet.make(
        {"GO": both, "LEVEL": both}, {"LEVEL": (F(1),)}
    )


def test_dfs_finds_witness_behind_a_slow_detour():
    # DFS first reaches the merge state late, through the SLOW detour; a
    # cache keyed by state alone then pruned the earlier arrival and
    # reported Unreachable at bounds 6 to 8
    source = """
    input signal SLOW; signal HIT;
    pause;
    if (SLOW) { pause; pause; pause; pause };
    pause; pause; pause; emit HIT
    """
    program = _program(source)
    alphabet = alphabet_for(program)
    for bound in range(5, 11):
        for strategy in ("bfs", "dfs"):
            verdict = check_reachable(
                program, CFG1, alphabet, bound=bound, target="HIT", strategy=strategy
            )
            assert isinstance(verdict, Witness), (bound, strategy)
            assert replay(program, CFG1, verdict)
            if strategy == "bfs":
                assert verdict.tick == 5


def test_witness_with_same_named_instances_replays():
    # a clone must keep registration order, which names the second S `S:2`
    source = """
    signal T;
    { pause; pause; signal S; { pause; emit S; emit T; pause } }
    || { pause; signal S; { pause; pause; pause; pause } }
    """
    program = _program(source)
    verdict = check_reachable(program, CFG1, alphabet_for(program), bound=10, target="T")
    assert isinstance(verdict, Witness)
    rows = dict(((name, kind), value) for name, kind, value in verdict.snapshot)
    assert rows[("S", "status")] == "false" and rows[("S:2", "status")] == "true"
    assert replay(program, CFG1, verdict)


def test_native_witnesses_replay():
    # a program that still holds its flows can only be searched, and so
    # replayed, with native flows; `replay` picks that mode from the program
    flowing = 0
    for seed in range(100):
        source, wcrt = random_search_program(random.Random(seed))
        program, cfg = parse(source), RewriteConfig(wcrt)
        verdict = check_reachable(
            program, cfg, alphabet_for(program), bound=6, target="HIT", native_flows=True
        )
        if isinstance(verdict, Witness):
            flowing += program.has_flows()
            assert replay(program, cfg, verdict), seed
    assert flowing >= 10


def test_registration_order_is_part_of_the_state():
    # with Y at tick 1 the second branch's HIT is declared first and so
    # settles as `HIT`; without Y the same residue and values arise in the
    # other order, where the emission settles as `HIT:2`
    source = """
    input signal Y;
    { pause; if (Y) { pause }; signal HIT; { loop { pause } } }
    || { pause; signal HIT; { pause; pause; emit HIT; pause } }
    """
    program = _program(source)
    for strategy in ("bfs", "dfs"):
        verdict = check_reachable(
            program, CFG1, alphabet_for(program), bound=6, target="HIT",
            strategy=strategy,
        )
        assert isinstance(verdict, Witness), strategy
        assert verdict.tick == 4
        assert verdict.schedule[0].present == frozenset({"Y"})
        assert replay(program, CFG1, verdict)


def test_malformed_search_arguments_are_rejected():
    program = _program("signal S;\nemit S")
    with pytest.raises(TickflowError, match="strategy 'bogus'"):
        check_reachable(program, CFG1, None, bound=3, target="S", strategy="bogus")
    with pytest.raises(TickflowError, match="non-negative, got -3"):
        check_reachable(program, CFG1, None, bound=-3, target="S")
    assert isinstance(check_reachable(program, CFG1, None, bound=0, target="S"), Unreachable)


@pytest.mark.parametrize("param, value", [
    ("bound", 2.5), ("bound", "3"), ("bound", True), ("bound", F(3)),
    ("node_limit", 2.5), ("node_limit", "100"), ("node_limit", True),
])
def test_a_search_count_that_is_not_an_int_is_refused_by_name(param, value):
    # a bound of 2.5 would be read as "within 2.5 ticks", and a bool is an
    # int only by inheritance
    program = _program("signal S;\nemit S")
    with pytest.raises(ArgumentError) as err:
        check_reachable(program, CFG1, None, target="S", **{"bound": 3, param: value})
    assert (err.value.name, err.value.message) == (param, f"must be an integer, got {value!r}")


def test_an_unbound_constant_is_refused_at_its_declaration_by_the_search():
    with pytest.raises(CompileError) as err:
        check_reachable(parse("param k = 1; signal S; emit S"), CFG1, None, bound=3, target="S")
    assert str(err.value) == "1:1: named constant 'k' must be bound before execution"


def test_search_indexes_once_and_keys_no_leaf(monkeypatch):
    program = _program("signal S;\npause; pause; pause; pause; pause")
    calls = {"fingerprint": 0, "settle": 0, "record": 0}
    real_key = verify.fingerprint
    real_patch, real_record = kernel._TickCtx.patch, kernel._TickCtx.record

    def counting_key(state):
        calls["fingerprint"] += 1
        return real_key(state)

    def counting_patch(run, inputs):
        # a settled successor's store comes with its key
        calls["settle"] += 1
        store, key = real_patch(run, inputs)
        assert key == real_key(run.after(store))
        return store, key

    def counting_record(run, inputs=None):
        calls["record"] += 1
        return real_record(run, inputs)

    monkeypatch.setattr(verify, "fingerprint", counting_key)
    monkeypatch.setattr(kernel._TickCtx, "patch", counting_patch)
    monkeypatch.setattr(kernel._TickCtx, "record", counting_record)
    verdict = check_reachable(program, CFG1, None, bound=3, target="S")
    assert isinstance(verdict, Unreachable) and verdict.states_explored == 3
    # ticks 1 and 2 are expanded; the tick-3 successor is a leaf, stepped
    # and checked but never settled or keyed; with no hit nothing is
    # recorded; the keys come from `patch`, so `fingerprint` never runs
    assert calls == {"fingerprint": 0, "settle": 2, "record": 0}

    hit = _program("signal S;\npause; pause; emit S; pause")
    calls.update(fingerprint=0, settle=0, record=0)
    verdict = check_reachable(hit, CFG1, None, bound=3, target="S")
    assert isinstance(verdict, Witness) and verdict.tick == 3
    # the hit is recorded once, for its snapshot, and never settled
    assert calls == {"fingerprint": 0, "settle": 2, "record": 1}
    assert replay(hit, CFG1, verdict)


_FAULTS = (
    "input signal A, B;\nsignal HIT;\ncont z = 0;\n"
    "{ loop { abort (A) { do {z' = 1} until (z <= 3) }; z = 0; pause } }\n"
    "|| { loop { if (z >= 3 && B) emit HIT; pause } }"
)


def test_second_call_compiles_and_walks_nothing(monkeypatch):
    program = _program(_FAULTS)
    alphabet = alphabet_for(program)
    calls = {"compile": 0, "walk": 0}
    real_init, real_walk = kernel._Compiler.__init__, Program.walk

    def counting_init(self, cfg, logged):
        calls["compile"] += 1
        real_init(self, cfg, logged)

    def counting_walk(self):
        calls["walk"] += 1
        return real_walk(self)

    monkeypatch.setattr(kernel._Compiler, "__init__", counting_init)
    monkeypatch.setattr(Program, "walk", counting_walk)

    def calls_of(work):
        calls.update(compile=0, walk=0)
        result = work()
        return result, dict(calls)

    def search():
        return check_reachable(program, CFG1, alphabet, bound=6, target="HIT")

    trace, first = calls_of(lambda: run(program, CFG1, max_ticks=12))
    assert first["compile"] == 1 and first["walk"] > 0
    # the search reuses the run's code and builds the index once
    verdict, first = calls_of(search)
    assert first["compile"] == 0 and first["walk"] > 0
    assert isinstance(verdict, Witness)
    assert calls_of(lambda: run(program, CFG1, max_ticks=12)) == (trace, {"compile": 0, "walk": 0})
    assert calls_of(search) == (verdict, {"compile": 0, "walk": 0})
    assert calls_of(lambda: replay(program, CFG1, verdict)) == (True, {"compile": 0, "walk": 0})
    # another tick length is another compilation, once
    cfg = RewriteConfig(F(1, 2))
    assert calls_of(lambda: run(program, cfg, max_ticks=3))[1]["compile"] == 1
    assert calls_of(lambda: run(program, cfg, max_ticks=3))[1]["compile"] == 0


def test_equal_programs_keep_their_own_code_and_index():
    # A and B are equal values but distinct trees: the code compiled for A
    # registers A's nodes, so each must derive its own; equal trees number
    # their declarations' slots alike, so their states' keys agree
    for native in (False, True):
        a, b = (parse(_FAULTS) for _ in range(2))
        if not native:
            a, b = rewrite_flows(a, CFG1), rewrite_flows(b, CFG1)
        assert a == b and a is not b
        alphabet = alphabet_for(a)
        want = check_reachable(
            parse(_FAULTS) if native else _program(_FAULTS), CFG1, alphabet,
            bound=6, target="HIT", native_flows=native,
        )
        run(a, CFG1, max_ticks=12, native_flows=native)
        keys = []
        for program in (b, a):
            verdict = check_reachable(
                program, CFG1, alphabet, bound=6, target="HIT", native_flows=native
            )
            assert verdict == want, native
            state, _ = init(program, CFG1, native_flows=native).step().record()
            keys.append(fingerprint(state))
        assert keys[0] == keys[1], native


def test_target_whose_scope_ends_on_its_tick_is_witnessed():
    # T's scope ends on tick 2, the tick it is emitted: the record of that
    # tick still names it, and the tick-2 successor is a leaf at bound 2
    program = _program("signal HIT;\npause;\n{ signal T; emit T };\npause")
    for bound in (2, 3):
        verdict = check_reachable(program, CFG1, None, bound=bound, target="T")
        assert isinstance(verdict, Witness), bound
        assert verdict.tick == 2
        assert ("T", "status", "true") in verdict.snapshot
        assert replay(program, CFG1, verdict)


def test_emitted_shadowing_instance_is_no_witness_for_its_name():
    # the second branch's T registers after the outer one, so it settles as
    # `T:2`; only it is ever emitted, and `T` stays absent
    source = (
        "signal T;\n"
        "{ pause; loop { pause } } || { pause; signal T; { emit T; pause } }"
    )
    program = _program(source)
    trace = run(program, CFG1, max_ticks=3)
    assert trace.status("T:2", 2) and not trace.status("T", 2)
    for strategy in ("bfs", "dfs"):
        verdict = check_reachable(
            program, CFG1, None, bound=4, target="T", strategy=strategy
        )
        assert isinstance(verdict, Unreachable), strategy


def test_double_write_on_a_leaf_tick_raises_at_that_tick():
    # the static checks refuse the double write, so the program is parsed
    # raw; tick 3 sits at the bound, so its successor is a leaf
    program = parse_raw("signal HIT; cont a;\npause; pause;\n{ {a = 1} || {a = 2} }")
    with pytest.raises(KernelError) as err:
        check_reachable(program, CFG1, None, bound=3, target="HIT")
    assert err.value.tick == 3
    assert "'a' written 2 times in one tick with no combine operator" in err.value.message


def test_alphabet_naming_an_undeclared_input_is_refused_before_the_search():
    # at bound 1 every choice is a leaf, at bound 0 nothing runs, and the
    # second program witnesses X at tick 1 whatever the inputs: the
    # alphabet is refused before any of these searches starts
    alphabet = InputAlphabet.make({"GO": ("absent", "present"), "NOPE": ("absent", "present")})
    for source, bound in (("loop { pause }", 1), ("loop { pause }", 0), ("emit X; pause", 3)):
        program = _program(f"input signal GO; signal X;\n{source}")
        with pytest.raises(ArgumentError) as err:
            check_reachable(program, CFG1, alphabet, bound=bound, target="X")
        assert (err.value.name, err.value.message) == (
            "alphabet", "alphabet entry 'NOPE' is not a declared input"
        )


@pytest.mark.parametrize("statuses", [("absent", "presnt"), (), ("present", 1)])
def test_alphabet_status_other_than_absent_or_present_is_refused(statuses):
    program = _program("input signal A; signal X;\nloop { if (A) emit X; pause }")
    alphabet = InputAlphabet.make({"A": statuses})
    message = "alphabet entry 'A': 'statuses' must be a non-empty list of 'absent' and 'present'"
    with pytest.raises(ArgumentError) as err:
        check_reachable(program, CFG1, alphabet, bound=3, target="X")
    assert (err.value.name, err.value.message) == ("alphabet", message)
    # the statuses it may take witness X at tick 2
    alphabet = InputAlphabet.make({"A": ("absent", "present")})
    assert check_reachable(program, CFG1, alphabet, bound=3, target="X").tick == 2


def test_alphabet_is_checked_after_the_strategy_and_before_the_other_arguments():
    program = _program("input int signal L = 0; signal X;\nloop { pause }")
    alphabet = InputAlphabet.make({"L": ("absent",)}, {"L": (F(1, 2),)})
    with pytest.raises(TickflowError, match="unknown search strategy"):
        check_reachable(program, CFG1, alphabet, bound=-1, target="X", strategy="x")
    for bound, target, node_limit in ((-1, "X", 10), (3, "NOPE", 10), (3, "X", 0)):
        with pytest.raises(ArgumentError) as err:
            check_reachable(program, CFG1, alphabet, bound, target, node_limit=node_limit)
        assert (err.value.name, err.value.message) == (
            "alphabet", "alphabet entry 'L': value 1/2: 'L' holds an integer value"
        )


def test_alphabet_value_must_be_exact():
    # a string is not read as the number it spells, whatever the input's type
    program = _program("input int signal L = 0; signal X;\nloop { if (?L == 2) emit X; pause }")
    alphabet = InputAlphabet.make({"L": ("absent", "present")}, {"L": ("2",)})
    with pytest.raises(ArgumentError) as err:
        check_reachable(program, CFG1, alphabet, bound=3, target="X")
    assert (err.value.name, err.value.message) == (
        "alphabet", "alphabet entry 'L': value '2': 'L' holds a numeric value"
    )


def test_leaf_choice_with_a_value_its_input_cannot_hold_raises_at_its_tick():
    # L is registered on tick 2, so tick 1 checks no value of it; tick 2
    # sits at the bound, and its second choice gives L a value its `int`
    # declaration cannot hold. The `ratio` L of a later block can hold it,
    # so the alphabet passes the check before the search
    program = _program(
        "signal HIT;\npause;\n{ input int signal L = 0; pause };\n"
        "{ input ratio signal L = 0; pause }"
    )
    alphabet = InputAlphabet.make({"L": ("absent", "present")}, {"L": (F(1, 2),)})
    with pytest.raises(KernelError) as err:
        check_reachable(program, CFG1, alphabet, bound=2, target="HIT")
    assert (err.value.tick, err.value.message) == (2, "'L' holds an integer value")


def test_input_target_is_read_under_each_choice():
    # the target is an input, so the choice decides whether it is present
    cfg, bound = RewriteConfig(F(2)), 3
    program = rewrite_flows(parse((CORPUS / "programs" / "faulty_reset.hsj").read_text()), cfg)
    alphabet = alphabet_for(program)
    earliest = None
    for schedule in itertools.product(alphabet.choices(), repeat=bound):
        trace = run(program, cfg, schedule=list(schedule), max_ticks=bound)
        ticks = [r.tick for r in trace.records if r.statuses["FAULT"]]
        if ticks and (earliest is None or ticks[0] < earliest):
            earliest = ticks[0]
    assert earliest == 1
    for strategy in ("bfs", "dfs"):
        verdict = check_reachable(
            program, cfg, alphabet, bound=bound, target="FAULT", strategy=strategy
        )
        assert isinstance(verdict, Witness), strategy
        assert verdict.tick == earliest
        assert verdict.schedule == (InputAssignment.make(present=["FAULT"]),)
        assert replay(program, cfg, verdict)


# the benchmark's bound-3 `fault_search` program on seed 1: three free
# faults, each resetting its own flow, and an alarm no schedule reaches
_FAULT_SEARCH = (
    "input signal F0; cont z0 = 0; input signal F1; cont z1 = 0;\n"
    "input signal F2; cont z2 = 0; signal ALARM;\n"
    "{ loop { abort (F0) { do {z0' = 3} until (z0 <= 36/5) }; z0 = 0; pause } }\n"
    "|| { loop { abort (F1) { do {z1' = 1/2} until (z1 <= 37/20) }; z1 = 0; pause } }\n"
    "|| { loop { abort (F2) { do {z2' = 2} until (z2 <= 43/5) }; z2 = 0; pause } }\n"
    "|| { loop { if (z0 >= 12 || z1 >= 2 || z2 >= 8) emit ALARM; pause } }"
)


def _count_calls(monkeypatch, calls: dict, methods: dict) -> None:
    """Count in `calls[name]` the calls of each `(class, method)` of
    `methods`, by name."""
    for name, (cls, method) in methods.items():
        real = getattr(cls, method)

        def count(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        calls[name] = 0
        monkeypatch.setattr(cls, method, count)


def test_search_reads_the_target_once_per_tick_and_latches_no_pure_leaf(monkeypatch):
    program = _program(_FAULT_SEARCH)
    calls: dict = {}
    _count_calls(monkeypatch, calls, {
        "runs": (kernel._TickCtx, "__init__"),
        "settles_present": (kernel._TickCtx, "settles_present"),
        "settled": (kernel._TickCtx, "settled"),
        "patch": (kernel._TickCtx, "patch"),
        "validate": (kernel.TickState, "_validate_inputs"),
        "states": (kernel._TickCtx, "after"),
    })
    verdict = check_reachable(program, CFG1, alphabet_for(program), bound=3, target="ALARM")
    assert verdict == Unreachable(bound=3, states_explored=584)
    # 73 expanded states, 8 choices each: each tick runs once and reads the
    # target once. The 9 interior ticks settle their run once and patch it
    # for each of their 8 choices, and each of the 72 successors is kept
    # under a new key and built; the alphabet was checked before the
    # search, so no choice's names are checked again; the 7 later choices
    # of each of the 64 leaf ticks carry no value and are counted at once
    assert calls == {
        "runs": 73, "settles_present": 73, "settled": 9, "patch": 72, "validate": 0,
        "states": 72,
    }


def test_an_input_target_search_checks_each_choice_once(monkeypatch):
    # the target is an input, so it is read under every choice; each
    # transition's choice is checked once against its tick's run, on the
    # first choice when the run is built and on a later one when it is
    # settled or, at a leaf, checked alone, and its names never
    program = _program("signal NEVER;\n" + _FAULT_SEARCH)
    free = ("absent", "present")
    alphabet = InputAlphabet.make({"F0": ("absent",), "F1": free, "F2": free})
    calls: dict = {}
    _count_calls(monkeypatch, calls, {
        "check": (kernel._TickCtx, "check"),
        "validate": (kernel.TickState, "_validate_inputs"),
    })
    verdict = check_reachable(program, CFG1, alphabet, bound=3, target="F0")
    assert verdict == Unreachable(bound=3, states_explored=84)
    assert calls == {"check": 84, "validate": 0}


def test_search_hashes_each_kept_successor_once(monkeypatch):
    # the bound-3 search keeps 72 successors, each under a new key; one
    # `setdefault` probes the visited map, so each key is hashed once
    program = _program(_FAULT_SEARCH)
    calls = 0
    real_patch = kernel._TickCtx.patch

    class CountedKey(tuple):
        def __hash__(self):
            nonlocal calls
            calls += 1
            return tuple.__hash__(self)

    def patch(run, inputs):
        state, key = real_patch(run, inputs)
        return state, CountedKey(key)

    monkeypatch.setattr(kernel._TickCtx, "patch", patch)
    verdict = check_reachable(program, CFG1, alphabet_for(program), bound=3, target="ALARM")
    assert verdict == Unreachable(bound=3, states_explored=584)
    assert calls == 72


@pytest.mark.parametrize("source, value, message", TWO_FAULTS, ids=("value", "double-write"))
def test_tick_with_two_faults_names_the_input(source, value, message):
    # a run given L's value names the input; the search names what a run
    # under its first choice names. The static checks refuse the double
    # write, so the program is parsed raw; a later L of the value program
    # can hold its value, so neither the run nor the search refuses it
    # before the tick
    program = parse_raw(source)
    with pytest.raises(KernelError) as err:
        run(program, CFG1, {1: InputAssignment.make(present=["L"], values={"L": value})})
    assert (err.value.tick, err.value.message) == (1, message)
    # the search's first choice gives L no value, so, like a run under that
    # choice, it meets the code's own double write first
    alphabet = InputAlphabet.make({"L": ("present", "absent")}, {"L": (value,)})
    first = alphabet.choices()[0]
    assert first == InputAssignment.make(present=["L"])
    with pytest.raises(KernelError) as ran:
        run(program, CFG1, {1: first})
    with pytest.raises(KernelError) as err:
        check_reachable(program, CFG1, alphabet, bound=3, target="L")
    code_error = (1, "'a' written 2 times in one tick with no combine operator")
    assert (err.value.tick, err.value.message) == (ran.value.tick, ran.value.message) == code_error


def test_search_agrees_with_schedule_enumeration():
    # every schedule up to the bound, replayed with `run`, is the oracle:
    # both strategies must match its verdict, BFS also its earliest tick
    for seed in range(60):
        rng = random.Random(seed)
        source, wcrt = random_search_program(rng)
        bound = rng.randint(2, 4)
        cfg = RewriteConfig(wcrt)
        program = rewrite_flows(parse(source), cfg)
        alphabet = alphabet_for(program)
        earliest = None
        for schedule in itertools.product(alphabet.choices(), repeat=bound):
            trace = run(program, cfg, schedule=list(schedule), max_ticks=bound)
            ticks = [r.tick for r in trace.records if r.statuses.get("HIT", False)]
            if ticks and (earliest is None or ticks[0] < earliest):
                earliest = ticks[0]
        for strategy in ("bfs", "dfs"):
            verdict = check_reachable(
                program, cfg, alphabet, bound=bound, target="HIT", strategy=strategy
            )
            where = (seed, strategy, source)
            if earliest is None:
                assert isinstance(verdict, Unreachable), where
                continue
            assert isinstance(verdict, Witness), where
            assert replay(program, cfg, verdict), where
            if strategy == "bfs":
                assert verdict.tick == earliest, where


def test_search_agrees_with_schedule_enumeration_on_valued_inputs():
    # the same oracle over programs with a valued op+ input that the code
    # also writes and an int input whose scope may be killed: every choice
    # is latched onto one run of each expanded state's tick
    for seed in range(12):
        rng = random.Random(seed)
        source, wcrt = random_valued_program(rng)
        bound = 2
        cfg = RewriteConfig(wcrt)
        program = rewrite_flows(parse(source), cfg)
        alphabet = alphabet_for(program, VALUED_INPUTS)
        earliest = None
        for schedule in itertools.product(alphabet.choices(), repeat=bound):
            trace = run(program, cfg, schedule=list(schedule), max_ticks=bound)
            ticks = [r.tick for r in trace.records if r.statuses.get("HIT", False)]
            if ticks and (earliest is None or ticks[0] < earliest):
                earliest = ticks[0]
        for strategy in ("bfs", "dfs"):
            verdict = check_reachable(
                program, cfg, alphabet, bound=bound, target="HIT", strategy=strategy
            )
            where = (seed, strategy, source)
            if earliest is None:
                assert isinstance(verdict, Unreachable), where
                continue
            assert isinstance(verdict, Witness), where
            assert replay(program, cfg, verdict), where
            if strategy == "bfs":
                assert verdict.tick == earliest, where


def _admitted_entries(alphabet: InputAlphabet) -> list:
    """Every per-tick JSON schedule entry over the alphabet's names and
    values that `load_schedule` admits, built without `choices()`: each
    listed input present or not as its statuses allow, and given no value
    or one of its values whatever its status."""
    entries = [{"present": [], "values": {}}]
    values = dict(alphabet.values)
    for name, statuses in alphabet.statuses:
        grown = []
        for entry in entries:
            for present in [status == "present" for status in statuses]:
                for value in (None, *values.get(name, ())):
                    given = dict(entry["values"])
                    if value is not None:
                        given[name] = format_value(value)
                    named = entry["present"] + ([name] if present else [])
                    grown.append({"present": named, "values": given})
        entries = grown
    return entries


def test_search_agrees_with_the_schedules_a_file_may_give():
    # the oracle enumerates schedules from what `load_schedule` admits, not
    # from `choices()`: a valued input's value with either status, and its
    # status with no value, each of which the target may need
    for seed in range(24):
        rng = random.Random(seed)
        source, wcrt, statuses, values = random_status_value_program(rng)
        bound = rng.randint(2, 3)
        cfg = RewriteConfig(wcrt)
        program = rewrite_flows(parse(source), cfg)
        alphabet = InputAlphabet.make(
            {"A": ("absent", "present"), "B": ("absent", "present"), "L": statuses},
            {"L": values},
        )
        entries = _admitted_entries(alphabet)
        earliest = None
        for ticks in itertools.product(entries, repeat=bound):
            doc = [{"tick": t, **entry} for t, entry in enumerate(ticks, start=1)]
            trace = run(program, cfg, schedule=files.schedule("oracle", doc), max_ticks=bound)
            hits = [r.tick for r in trace.records if r.statuses.get("HIT", False)]
            if hits and (earliest is None or hits[0] < earliest):
                earliest = hits[0]
        for strategy in ("bfs", "dfs"):
            verdict = check_reachable(
                program, cfg, alphabet, bound=bound, target="HIT", strategy=strategy
            )
            where = (seed, strategy, source, statuses, values)
            if earliest is None:
                assert isinstance(verdict, Unreachable), where
                continue
            assert isinstance(verdict, Witness), where
            assert replay(program, cfg, verdict), where
            if strategy == "bfs":
                assert verdict.tick == earliest, where


# --- fingerprints ---------------------------------------------------------------


def test_fingerprint_equal_for_fresh_states():
    program = _program("signal S;\nloop { emit S; pause }")
    assert fingerprint(init(program, CFG1)) == fingerprint(init(program, CFG1))


def test_fingerprint_differs_on_one_value():
    source = "input int signal LEVEL = 0;\nloop { pause }"
    program = _program(source)
    state = init(program, CFG1)
    a, _ = state.step(InputAssignment.make(present=["LEVEL"], values={"LEVEL": F(1)})).record()
    b, _ = state.step(InputAssignment.make(present=["LEVEL"], values={"LEVEL": F(2)})).record()
    assert fingerprint(a) != fingerprint(b)


def test_fingerprint_ignores_write_order():
    left = _program("cont a op+ = 0;\n{a = 1; pause} || {a = 2; pause};\npause")
    right = _program("cont a op+ = 0;\n{a = 2; pause} || {a = 1; pause};\npause")
    (sl, _), (sr, _) = init(left, CFG1).step().record(), init(right, CFG1).step().record()
    assert fingerprint(sl) == fingerprint(sr)


def test_fingerprint_tracks_control_position():
    program = _program("signal S;\npause; pause; pause")
    state = init(program, CFG1)
    prints = [fingerprint(state)]
    for _ in range(2):
        state, _ = state.step().record()
        prints.append(fingerprint(state))
    assert len(set(prints)) == 3


def _preorder(program) -> dict:
    """id of every statement node -> its preorder position."""
    return {id(stmt): i for i, stmt in enumerate(program.walk())}


def _oracle_key(program, state, index):
    """An independent state key: each paused point and each declaration by
    its node's preorder position in `index`, so it does not rest on the
    residue's own equality or on the compiler's slots."""
    store = tuple(
        (index[id(state.code.decls[slot])], *state.store[slot]) for slot in state.layout
    )
    return (state.terminated, _res_key(state.residue, program.root, index), store)


def _res_key(res, node, index):
    """The residue `res` that `node` left, read along the program's own
    statements: each statement holding a paused point by its preorder
    position, with the index of a Seq's statement or an If's branch and a
    leaf's stop flag."""
    if res is None:
        return None
    while isinstance(node, (Loop, Abort, SignalDecl, ContDecl)):
        node = node.body  # they leave their body's residue
    at = index[id(node)]
    if isinstance(node, (Pause, DoUntil)):
        assert res is True or (res is False and isinstance(node, DoUntil))
        return (at, res)
    if isinstance(node, (Seq, If)):
        i, child = res
        stmts = node.stmts if isinstance(node, Seq) else (node.then, node.orelse)
        return (at, i, _res_key(child, stmts[i], index))
    if isinstance(node, Parallel):
        assert len(res) == len(node.branches)
        return (at, tuple([_res_key(c, b, index) for c, b in zip(res, node.branches)]))
    if isinstance(node, Label):
        assert res[0] == node.name
        return (at, _res_key(res[1], node.body, index))
    (child,) = res  # a suspend, its child None when frozen before entry
    return (at, _res_key(child, node.body, index))


def test_fingerprint_equality_is_node_position_equality():
    # the first extra program's flow stops on a status the store no longer
    # holds; the multi-rate `op+` programs' straight-line flow bodies keep
    # one residue per statement position, however their steps compile
    cases = [random_search_program(random.Random(seed)) for seed in range(60)]
    cases.append((
        "input signal A, B; signal HIT; cont z = 0;\n"
        "loop { abort (A) { do {z' = 1} until (z <= 3 && !B) }; z = 0; pause }",
        F(1),
    ))
    cases += multirate_programs()
    for source, wcrt in cases:
        cfg = RewriteConfig(wcrt)
        parsed = parse(source)
        for program, native in ((rewrite_flows(parsed, cfg), False), (parsed, True)):
            index = _preorder(program)
            choices = alphabet_for(program).choices()
            start = init(program, cfg, native_flows=native)
            reached = [start]
            frontier = [start]
            seen = {_oracle_key(program, start, index)}
            for _ in range(4):
                successors = []
                for state in frontier:
                    for assignment in choices:
                        successor, _ = state.step(assignment).record()
                        reached.append(successor)
                        key = _oracle_key(program, successor, index)
                        if not successor.terminated and key not in seen:
                            seen.add(key)
                            successors.append(successor)
                frontier = successors
            keys = [
                (fingerprint(state), _oracle_key(program, state, index)) for state in reached
            ]
            prints = {key for key, _ in keys}
            oracle = {key for _, key in keys}
            assert len(prints) == len(oracle) == len(set(keys)), (native, source)
