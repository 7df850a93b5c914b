"""The code the kernel generates for regions that cannot pause: programs
whose names, nesting or expressions stress the generated source give the
traces and read logs statement-by-statement evaluation gave, pinned as
sha256 digests (first 16 hex digits) of the CSV and of the read log; and
program text reaches the source only as literals or bound constants."""

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_generated_code_gives_the_pinned_trace_and_read_log(name):
    # in a fresh interpreter, whose stack starts as a script's does: under
    # the test runner's frames the parser refuses the deep cases
    here = Path(__file__).resolve().parent
    code = f"from test_generated import CASES, _digests\nprint(*_digests(*CASES[{name!r}][:3]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here), str(here.parent / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert tuple(proc.stdout.split()) == CASES[name][3]


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


# what generated code may name: its own locals, globals and functions, and
# the fields and methods it uses
_NAME = re.compile(r"[vkfnd]\d+|ctx|res|env|prev|writes|emitted|log|Fraction|adapt|ratio")
_ATTRIBUTES = {
    "env", "prev", "writes", "emitted", "log", "t", "__class__", "as_integer_ratio",
    "setdefault", "append", "add",
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
    monkeypatch.undo()
    return sources


def _programs():
    names = parse(NAMES)
    carousel = bind_params(
        parse(CAROUSEL.read_text()),
        {"alpha": F(1), "beta": F(10), "theta": F(6), "TAG": F(1)},
    )
    bank, wcrt = FLOW_BANK
    for program, cfg in ((names, CFG), (carousel, CFG), (parse(bank), RewriteConfig(wcrt))):
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
