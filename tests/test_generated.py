"""The code the kernel generates: programs whose names, nesting or
expressions stress the generated source give the traces and read logs
statement-by-statement evaluation gave, pinned as sha256 digests (first 16
hex digits) of the CSV and of the read log; pausing statements nested deep
also give the residues and state keys it gave; and program text reaches
the source only as literals or bound constants."""

from __future__ import annotations

import ast
import builtins
import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import FLOW_BANK
from tickflow import kernel
from tickflow.kernel import InputAssignment, TickState, run
from tickflow.params import bind_params
from tickflow.rewrite import RewriteConfig, rewrite_flows
from tickflow.syntax import parse
from tickflow.syntax.nodes import SignalDecl
from tickflow.trace import to_csv

CAROUSEL = Path(__file__).parent.parent / "corpus" / "programs" / "carousel.hsj"

# Python keywords and the generated code's own names (`ctx`, `res`, `env`,
# `prev`, `log`, `Fraction`, `adapt`, `v1`, `k2`) as program names, in
# reads, writes, emissions, value writes, flows and look-aheads
NAMES = """input signal def;
input int signal env;
signal res, prev;
int signal log = 1;
cont None = 1, ctx = 2, lambda op+ = 0, Fraction = 1/2, v1 = 0, k2 = 3, adapt = 0;
{ loop { do {lambda' = 1 || lambda' = 2} until (lambda <= 20); lambda = 0; pause } }
|| { loop { do {None' = 1/2} until (None <= ctx + 3); None = 1; pause } }
|| { loop {
  if (def) { emit res; ctx = ctx * 2 } else { k2 = ctx - None + Fraction };
  if (!res && ?env > 1) { emit prev; ?log = ?log + ?env } else ?log = ?log * 2;
  if (prev || v1 >= 3) v1 = 0 else { v1 = v1 + 1; adapt = adapt + v1 };
  pause
} }
"""
NAMES_SCHEDULE = {
    1: InputAssignment.make({"def"}),
    2: InputAssignment.make({"env"}, {"env": F(3)}),
    4: InputAssignment.make({"def", "env"}, {"env": F(2)}),
    5: InputAssignment.make((), {"env": F(5)}),
}

# 120 nested Ifs that cannot pause, beside a flow loop: deeper than Python
# lets one function indent
DEEP_IFS = (
    "cont x = 0;\nsignal S, T;\n{ loop { do {x' = 1} until (x <= 9); x = 0; pause } }\n|| { loop { "
    + "".join(f"if (x >= {i % 9}) {{ " for i in range(120))
    + "emit S" + " } else { emit T }" * 120 + "; pause } }\n"
)

# an expression nested 139 parentheses deep
PARENS = (
    "cont a = 0, b = 1;\nloop { a = " + "(b + " * 138 + "(a - 1/2)" + ")" * 138
    + "; b = b * -1; pause }\n"
)

# (source, schedule, ticks) -> (rewritten CSV, rewritten reads, native CSV, native reads)
CASES = {
    "names": (NAMES, NAMES_SCHEDULE, 30, (
        "90a514606867f3b9", "a3bc0d94acd3e611", "33276ccc13ed0dcc", "86fc2c9e5102d421",
    )),
    "deep_ifs": (DEEP_IFS, None, 25, (
        "ae905b3817142234", "6e22d2800bdabb8e", "cec72771e8df0334", "8ecb178bc11bcd9d",
    )),
    "parens": (PARENS, None, 6, (
        "960bd63d060f798b", "81e40508218ffe8f", "960bd63d060f798b", "81e40508218ffe8f",
    )),
}

CFG = RewriteConfig(F(1, 2))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fresh_interpreter(function: str, args: str) -> tuple:
    """The words this module's `function` returns for `args` in a fresh
    interpreter, whose stack starts as a script's does: under the test
    runner's frames the parser refuses the deep cases."""
    here = Path(__file__).resolve().parent
    code = f"from test_generated import *\nfrom test_generated import {function}\n"
    code += f"print(*{function}({args}))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here), str(here.parent / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stdout.split())


@pytest.mark.parametrize("name", sorted(CASES))
def test_generated_code_gives_the_pinned_trace_and_read_log(name):
    assert _fresh_interpreter("_digests", f"*CASES[{name!r}][:3]") == CASES[name][3]


def _digests(source, schedule, ticks) -> tuple:
    program = parse(source)
    got = []
    for native in (False, True):
        target = program if native else rewrite_flows(program, CFG)
        trace = run(
            target, CFG, schedule=schedule, max_ticks=ticks, native_flows=native,
            record_reads=True,
        )
        assert len(trace.records) == ticks
        reads = "".join(f"{t},{n},{k},{v}\n" for t, n, k, v in trace.read_log)
        got += [_digest(to_csv(trace)), _digest(reads)]
    return tuple(got)


# Statements that can pause, each kind nested `n` deep in a loop: Ifs with a
# pausing `else`; aborts (every other one immediate) whose bodies declare,
# each fired by the valued input `I` giving its level; suspends (every
# other one immediate) around labels; Pars whose branches end on different
# ticks; and labels. A level `k` of a multiple of 10 also opens a block, so
# that the code spans Seqs.
_INPUTS = "input signal A, B;\ninput int signal I;\nsignal S, T, U;\n"


def _level(k: int, open_: str) -> str:
    return open_ if k % 10 == 0 else ""


def _ifs(n: int) -> str:
    return (
        _INPUTS + "loop { "
        + "".join(f"if ({'A' if k % 2 == 0 else '!B'}) " for k in range(n))
        + "{ emit T; pause; emit S; pause }"
        + "".join(" else { emit T; pause }" if k % 2 else " else pause" for k in reversed(range(n)))
        + "; pause }\n"
    )


def _aborts(n: int) -> str:
    return (
        _INPUTS + "loop { "
        + "".join(
            f"abort ({'' if k % 2 == 0 else 'immediate '}I && ?I == {k}) "
            + _level(k, f"{{ signal L{k}; emit L{k}; pause; ")
            for k in range(n)
        )
        + "{ emit S; pause; pause }" + "".join(_level(k, "; pause }") for k in range(n))
        + "; pause }\n"
    )


def _suspends(n: int) -> str:
    return (
        _INPUTS + "loop { "
        + "".join(
            f"suspend ({'A' if k % 2 == 0 else 'immediate B'}) "
            + _level(k, f"{{ L{k}: pause; emit S; ")
            for k in range(n)
        )
        + "T: pause" + "".join(_level(k, " }") for k in range(n)) + "; pause }\n"
    )


def _pars(n: int) -> str:
    return (
        _INPUTS + "loop { { "
        + "".join(
            f"{{ if ({'B' if k % 2 else 'A'}) pause; emit S; pause }} || {{ " for k in range(n)
        )
        + "emit T; pause" + " }" * n + " }; emit U; pause }\n"
    )


def _labels(n: int) -> str:
    return (
        _INPUTS + "loop { "
        + "".join(f"L{k}: " + _level(k, "{ if (A) pause; emit S; ") for k in range(n))
        + "T: pause" + "".join(_level(k, " }") for k in range(n)) + "; pause }\n"
    )


# a loop of `n` statements in sequence, most of which can pause, and which
# mostly end on the tick they start
def _sequence(n: int) -> str:
    kinds = ("if (A) pause", "emit S", "abort (B) pause", "L: if (!B) pause else emit T")
    return _INPUTS + "loop { " + "; ".join(kinds[k % 4] for k in range(n)) + "; pause }\n"


CONTROL_PROGRAMS = {
    "ifs": _ifs, "aborts": _aborts, "suspends": _suspends, "pars": _pars, "labels": _labels,
    "sequence": _sequence,
}
CONTROL_SCHEDULE = {
    t: InputAssignment.make(
        {name for name, k in (("A", 3), ("B", 5)) if t % k in (0, 1)} | {"I"},
        {"I": F({6: 1, 9: 8, 13: 41, 19: 3, 26: 150, 33: 170, 37: 55}.get(t, 999))},
    )
    for t in range(1, 41)
}

# (program, depth) -> (CSV, read log, per-tick residues, per-tick settle keys)
CONTROL = {
    ("aborts", 60): (
        "4963471c4fa08b66", "4b39fef88b970186", "b441b0e21369e078", "e3f509d28424a614",
    ),
    ("aborts", 180): (
        "ae9eb1dd6aaf3261", "06cd0f9389f0c3c1", "ec8032b416a6fecb", "a7d31da8b6fd0946",
    ),
    ("ifs", 60): (
        "6c92050e7ec01941", "0f09c969e0fc904d", "7b4101eae3b62755", "caea322172a07d73",
    ),
    ("ifs", 180): (
        "6c92050e7ec01941", "a5aecf5bc7853903", "224f99fa0130b23b", "6b83616766ccc830",
    ),
    ("labels", 60): (
        "5483cb8566c58585", "167ef88c0344ba3d", "38034fd096fc9f73", "ad044bc72600fcf5",
    ),
    ("labels", 180): (
        "93754c45bc691fe5", "ec29694283f0d2dd", "2ece00a6db718357", "d9eebdb9ce5d6f77",
    ),
    ("pars", 60): (
        "413b5e0a3de1d13d", "5d3a8e68b8a296a0", "6fa120e536a37301", "92d0764a00c28e1f",
    ),
    ("pars", 180): (
        "413b5e0a3de1d13d", "f6f1af001342b4a0", "1868a9636804008f", "7c371e6d15be77d2",
    ),
    ("sequence", 17): (
        "21eb38bfb3cff86b", "3fdfd5677c06afdf", "ffbb0bfdb8604d2a", "9cf85be238954f46",
    ),
    ("sequence", 1000): (
        "ac9a971203c0a230", "0afda7fbe32f1c09", "56d2b42c6b1b22a7", "6385af0e199f08f4",
    ),
    ("suspends", 60): (
        "fef18287c980ef39", "69ca431ac7dc7589", "76e1634fc2c26ad3", "19ff928a8e26fea5",
    ),
    ("suspends", 180): (
        "ad495d9ff673a414", "051cff8c841cff64", "6924422e7c8f8507", "e370c45d10825d9e",
    ),
}


def _control_digests(name: str, depth: int) -> tuple:
    program = parse(CONTROL_PROGRAMS[name](depth))
    trace = run(program, CFG, schedule=CONTROL_SCHEDULE, max_ticks=40, record_reads=True)
    reads = "".join(f"{t},{n},{k},{v}\n" for t, n, k, v in trace.read_log)
    state, residues, keys = TickState(program, CFG), [], []
    for t in range(1, 41):
        state, key = state.step(CONTROL_SCHEDULE[t]).settle()
        residues.append(repr(state.residue))
        keys.append(repr(key))
    assert len(trace.records) == 40 and not state.terminated
    texts = (to_csv(trace), reads, "\n".join(residues), "\n".join(keys))
    return tuple(_digest(text) for text in texts)


@pytest.mark.parametrize("name, depth", sorted(CONTROL))
def test_nested_pausing_statements_give_the_pinned_trace_residues_and_keys(name, depth):
    assert _fresh_interpreter("_control_digests", f"{name!r}, {depth}") == CONTROL[name, depth]


# what generated code may name: its own locals, globals and functions, and
# the fields and methods it uses
_NAME = re.compile(
    r"[vkfnd]\d+|ctx|res|r|env|prev|writes|emitted|log|labels|ended|fresh|Fraction|adapt|ratio"
    r"|coprime|labels_in"
)
_ATTRIBUTES = {
    "env", "prev", "writes", "emitted", "log", "labels", "ended", "fresh", "t", "kill",
    "__class__", "as_integer_ratio", "setdefault", "append", "add", "_numerator", "_denominator",
}


def _generated_sources(monkeypatch, program, cfg, native=False) -> list:
    sources = []

    def spy(source, filename, mode):
        if mode == "exec":
            sources.append(source)
        else:  # a constant's type test, done at compile time
            assert source in {test.format("x") for test in kernel._ADAPTED.values()}
        return builtins.compile(source, filename, mode)

    monkeypatch.setattr(kernel, "compile", spy, raising=False)
    kernel._code.cache_clear()  # code compiled for an equal program is shared
    TickState(program, cfg, native)
    TickState(program, cfg, native, [])  # the code that logs reads
    monkeypatch.undo()
    return sources


def _carousel():
    return bind_params(
        parse(CAROUSEL.read_text()),
        {"alpha": F(1), "beta": F(10), "theta": F(6), "TAG": F(1)},
    )


def _programs():
    names = parse(NAMES)
    bank, wcrt = FLOW_BANK
    for program, cfg in ((names, CFG), (_carousel(), CFG), (parse(bank), RewriteConfig(wcrt))):
        yield rewrite_flows(program, cfg), cfg, False
        yield program, cfg, True


def test_program_text_reaches_generated_source_only_as_literals(monkeypatch):
    # every identifier and attribute is the generator's own, every number an
    # int, and every str a name of the program or a read's kind: a name, a
    # rational or an operator of the program enters only through `repr` of
    # a str or an int, or as a constant bound into the functions' globals
    for program, cfg, native in _programs():
        allowed = {d.name for d in program.declarations()} | {"status", "value"}
        sources = _generated_sources(monkeypatch, program, cfg, native)
        assert sources
        for text in sources:
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Name):
                    assert _NAME.fullmatch(node.id), (node.id, text)
                elif isinstance(node, ast.Attribute):
                    assert node.attr in _ATTRIBUTES, (node.attr, text)
                elif isinstance(node, ast.FunctionDef):
                    assert re.fullmatch(r"f\d+", node.name), text
                    assert [a.arg for a in node.args.args] == ["ctx", "res"], text
                elif isinstance(node, ast.Constant):
                    value = node.value
                    assert value is None or value.__class__ in (bool, int, str), text
                    if value.__class__ is str:
                        assert value in allowed, (value, text)


# a step's write, with the slot it writes and the constructor of its value
_STEP_WRITE = re.compile(r"writes\.append\(\(env\[(\d+)\], (ratio|coprime)\(")


def _step_builders(monkeypatch, program, cfg, native) -> dict:
    """Per constructor of a step's value, the names of the variables whose
    steps it builds in the code generated for `program`."""
    sources = _generated_sources(monkeypatch, program, cfg, native)
    decls = TickState(program, cfg, native).code.decls  # the code just compiled
    built: dict = {"ratio": set(), "coprime": set()}
    for text in sources:
        for slot, builder in _STEP_WRITE.findall(text):
            built[builder].add(decls[int(slot)].name)
    return built


def test_only_a_whole_step_that_writes_alone_skips_the_gcd(monkeypatch):
    # `coprime` builds the value of a step `v = w + c` with an integer `c`
    # that writes alone; a fractional `c`, or a run of steps on one `op+`
    # variable, builds by `ratio`. In `NAMES` only `v1 = v1 + 1` is whole;
    # at a tick of 1/2 every carousel step is +-1/2; in `FLOW_BANK` (tick
    # 1/3) `x0` steps by 3/3 and `x1`, `x2` sum two rates each
    want = [({"v1"}, {"lambda", "None"}), (set(), {"x", "y"}), ({"x0"}, {"x1", "x2"})]
    for k, (program, cfg, native) in enumerate(_programs()):
        coprime, ratio = want[k // 2]
        built = _step_builders(monkeypatch, program, cfg, native)
        assert built == {"coprime": coprime, "ratio": ratio}, (k, native)
    # at the benchmark's tick of 1 every carousel step is whole
    carousel, cfg = _carousel(), RewriteConfig(F(1))
    for program, native in ((rewrite_flows(carousel, cfg), False), (carousel, True)):
        built = _step_builders(monkeypatch, program, cfg, native)
        assert built == {"coprime": {"x", "y"}, "ratio": set()}, native


def test_a_step_leaves_its_value_in_lowest_terms():
    # a flow of rate `r` steps its variable by `r*tick` each tick, whole or
    # not; each value it settles to holds the integers of its reduced form,
    # rewritten and native
    cases = [
        ("1/2", "1/2", F(1, 3)), ("-7/3", "2", F(1)), ("0", "-5/2", F(1, 3)),
        ("5/4", "3", F(1, 3)), ("1/3", "-1", F(1)), ("7/10", "0", F(1)),
    ]
    for start, rate, wcrt in cases:
        program = parse(f"cont w = {start};\ndo {{w' = {rate}}} until (true)")
        cfg, step = RewriteConfig(wcrt), F(rate) * wcrt
        for compiled, native in ((rewrite_flows(program, cfg), False), (program, True)):
            records = run(compiled, cfg, max_ticks=6, native_flows=native).records
            for t, record in enumerate(records, 1):
                value, want = record.conts["w"], F(start) + t * step
                assert (value._numerator, value._denominator) == want.as_integer_ratio(), (
                    start, rate, wcrt, native, t,
                )


def _lines_per_resumed_tick(k: int, ticks: int = 20) -> float:
    """Line events in generated code per tick of a loop of `k` statements
    `if (A) pause` and a `pause`, `A` always present, so each tick resumes
    one statement and goes on to the next: a dispatch on the residue's
    index and a continuation from it."""
    present = InputAssignment.make({"A"})
    state = TickState(parse("input signal A;\nloop { " + "if (A) pause; " * k + "pause }"), CFG)
    for _ in range(3):
        state, _ = state.step(present).settle()
    events = 0

    def tracer(frame, event, arg):
        nonlocal events
        if frame.f_code.co_filename != kernel._GENERATED:
            return None
        events += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for _ in range(ticks):
            state, _ = state.step(present).settle()
    finally:
        sys.settrace(previous)
    return events / ticks


def test_a_seq_resumes_in_sublinear_code():
    # a Seq's resume dispatches on a tree of index tests and its
    # continuation skips chunks of statements, so 25 times the statements
    # cost at most 8 times the lines (a test per statement would be 25 times)
    assert _lines_per_resumed_tick(2500) <= 8 * _lines_per_resumed_tick(100)


def _flow_bank_program():
    """The benchmark's `flow_bank` program of seed 1, rewritten, and its
    configuration, from `bench/gen.py`."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import gen

    bank = gen.flow_bank(1)
    cfg = RewriteConfig(bank.wcrt)
    return rewrite_flows(parse(bank.source), cfg), cfg


def test_a_run_compiles_a_settle_per_kind_signature_not_per_order():
    # the 250-tick `flow_bank` run meets 171 orders of a tick's instances,
    # whose settles share at most 5 sources; a second run of the program
    # object settles through the plans kept on its code and compiles none
    program, cfg = _flow_bank_program()
    code = TickState(program, cfg).code  # the program's own code, compiled here
    misses = kernel._code.cache_info().misses
    run(program, cfg, max_ticks=250)
    assert len(code.plans) == 171
    assert kernel._code.cache_info().misses - misses <= 5
    misses = kernel._code.cache_info().misses
    run(program, cfg, max_ticks=250)
    assert kernel._code.cache_info().misses == misses


def test_orders_of_one_kind_signature_share_their_settles_code_and_globals():
    # each order's settle is its own function, holding its own keys and
    # slots, but the orders of one kind signature share the code object of
    # their source, and every settle one globals dict
    program, cfg = _flow_bank_program()
    run(program, cfg, max_ticks=250)
    code = TickState(program, cfg).code
    by_signature: dict = {}
    for order, plan in code.plans.items():
        kinds = []
        for key in order:
            decl = code.decls[key if key >= 0 else ~key]
            kind = decl.stype if decl.__class__ is SignalDecl else "cont"
            kinds.append((kind, key >= 0 and ~key in order))
        by_signature.setdefault(tuple(kinds), []).append(plan[2])
    shared = [settles for settles in by_signature.values() if len(settles) > 1]
    assert shared
    scopes = {id(settle.__globals__) for settles in by_signature.values() for settle in settles}
    assert len(scopes) == 1
    for settles in shared:
        assert len({id(settle.__code__) for settle in settles}) == 1
        assert len({id(settle) for settle in settles}) == len(settles)
        assert len({settle.__defaults__ for settle in settles}) == len(settles)
