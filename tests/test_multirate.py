"""Flows that give one `op+` variable several rates. The kernel writes a
run of consecutive steps on one `op+` variable as one sum; a run must
settle, read and trace exactly as the steps' writes folded by `op+` do,
natively and rewritten, with the other variable's rate between two of
them or not. A flow or a `TTL` call that gives a variable not declared
`op+` several rates is refused alike by `parse`, the rewrite and the
kernel, so both modes run exactly the programs `parse` accepts."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from helpers import random_multirate_flow
from tickflow.cli import main
from tickflow.errors import CombineError
from tickflow.kernel import InputAssignment, init, run
from tickflow.rewrite import RewriteConfig, rewrite_flows
from tickflow.syntax import parse
from tickflow.syntax.parser import parse_raw

SEEDS = range(40)


def _cases():
    for seed in SEEDS:
        rng = random.Random(seed)
        yield rng, random_multirate_flow(rng, interleaved=seed % 2 == 1)


def _runs(source: str, cfg, schedule=None, max_ticks=60):
    """The rewritten and the native trace of `source`, reads recorded."""
    parsed = parse(source)
    return [
        run(program, cfg, schedule=schedule, max_ticks=max_ticks,
            native_flows=native, record_reads=True)
        for program, native in ((rewrite_flows(parsed, cfg), False), (parsed, True))
    ]


def _expected(case) -> tuple:
    """The values of `a` and `b` settled by the flow ticks 1..N, after
    their starts at index 0, with plain `Fraction` arithmetic: m rates of
    `a` give `a_(k+1) = m*a_k + (r1+..+rm)*wcrt`, and `b` moves by its
    rate's step. Tick k looks two ticks ahead from `a_(k-1)`, to
    `a_(k+1)`, and the flow's last tick N is the first whose look-ahead
    breaks the bound."""
    m, total = len(case.rates), sum(case.rates) * case.wcrt
    b_step = sum(rate for name, rate in case.odes if name == "b") * case.wcrt
    a, b = [case.start], [case.b_start]
    while True:
        a.append(m * a[-1] + total)
        b.append(b[-1] + b_step)
        if not m * a[-1] + total <= case.bound:
            return a, b


def test_rewritten_and_native_multirate_flows_agree():
    for rng, case in _cases():
        cfg = RewriteConfig(case.wcrt)
        names = sorted(parse(case.source).declared_names())
        rewritten, native = _runs(case.source, cfg)
        assert native.project(names) == rewritten.project(names), case
        assert native.termination_tick == rewritten.termination_tick, case
        # the flow preempted and restarted by a free input, beside a reader
        schedule = {rng.randint(2, 9): InputAssignment.make(present=["A"])}
        names = sorted(parse(case.looped).declared_names())
        rewritten, native = _runs(case.looped, cfg, schedule, max_ticks=30)
        assert native.project(names) == rewritten.project(names), case


def test_multirate_flow_settles_the_fold_of_its_rates():
    for _, case in _cases():
        a, b = _expected(case)
        flow_ticks = len(a) - 1
        for trace in _runs(case.source, RewriteConfig(case.wcrt)):
            assert trace.terminated and trace.termination_tick == flow_ticks + 1, case
            for t in range(1, flow_ticks + 1):
                assert (trace.cont("a", t), trace.cont("b", t)) == (a[t], b[t]), (case, t)
            assert trace.cont("a", flow_ticks + 1) == a[-1], case
            assert trace.cont("a", flow_ticks).__class__ is F


def test_multirate_flow_reads_each_rate_in_source_order():
    # each flow tick reads `a` m times, once per rate, and `b` once if it
    # has a rate, in the order of the rates, then the look-ahead reads each
    # of them once;
    # reads of the generated stop signal are left out
    for _, case in _cases():
        a, b = _expected(case)
        want = []
        for t in range(1, len(a)):
            snapshot = {"a": a[t - 1], "b": b[t - 1]}
            want += [(t, name, "value", snapshot[name]) for name, _ in case.odes]
            want += [(t, name, "value", snapshot[name]) for name in case.names]
        for trace in _runs(case.source, RewriteConfig(case.wcrt)):
            got = [entry for entry in trace.read_log if entry[1] in ("a", "b")]
            assert got == want, case


# two flows in parallel drive `a` at once, each to its own bound
TWO_FLOWS = (
    "cont a op+ = 0;\n{ do {a' = 1} until (a <= 8); pause } || { do {a' = 2} until (a <= 20) }"
)

# (spelling of the declaration, what the static checks say of it)
REFUSED = (
    ("cont a op* =", "combines simultaneous writers with a non-linear operator"),
    ("cont a =", "has simultaneous writers but no combine operator"),
)


def _refusals(source: str, cfg, modes, tmp_path, capsys) -> set:
    """The messages `tickflow check`, `parse`, the rewrite and the kernel
    in each of `modes` (native flows or not) refuse `source` with."""
    path = tmp_path / "refused.hsj"
    path.write_text(source)
    assert main(["check", str(path)]) == 2
    messages = {capsys.readouterr().err.removeprefix(str(path) + ":").rstrip("\n")}
    refusers = [parse, lambda text: rewrite_flows(parse_raw(text), cfg)]
    refusers += [lambda text, native=native: init(parse_raw(text), cfg, native) for native in modes]
    for refuse in refusers:
        with pytest.raises(CombineError) as err:
            refuse(source)
        messages.add(str(err.value))
    return messages


def test_both_modes_run_what_parse_accepts_and_none_runs_what_it_refuses(tmp_path, capsys):
    sources = [(case.source, case.wcrt) for _, case in _cases()] + [(TWO_FLOWS, F(1))]
    for source, wcrt in sources:
        cfg = RewriteConfig(wcrt)
        names = sorted(parse(source).declared_names())
        rewritten, native = _runs(source, cfg)
        assert native.project(names) == rewritten.project(names), source
        assert native.termination_tick == rewritten.termination_tick, source
        for spelling, says in REFUSED:
            refused = source.replace("cont a op+ =", spelling)
            message = f"1:1: continuous variable 'a' {says}"
            assert _refusals(refused, cfg, (True,), tmp_path, capsys) == {message}, refused


def test_multirate_ttl_call_runs_only_on_an_op_plus_variable(tmp_path, capsys):
    # a hand-written `TTL` has no flow: both modes run it, and refuse it alike
    source = "cont a op+ = 0;\nloop { if (TTL([a' = 1, a' = 1], a <= 12, {a})) pause else pause }"
    cfg = RewriteConfig(F(2))
    traces = [run(parse(source), cfg, max_ticks=3, native_flows=native) for native in (False, True)]
    assert traces[0] == traces[1]
    for spelling, says in REFUSED:
        refused = source.replace("cont a op+ =", spelling)
        message = f"2:12: continuous variable 'a' {says}"
        assert _refusals(refused, cfg, (False, True), tmp_path, capsys) == {message}, refused
