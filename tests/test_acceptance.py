"""Acceptance suite: one test per exit criterion, exact rational equality
throughout (no floating tolerances anywhere). Each test prints a pass line
on success; a failure reads as the criterion number plus what differed."""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from pathlib import Path

from tickflow.cli import main as cli_main
from tickflow.hybrid import compare, parse_automaton
from tickflow.kernel import InputAssignment, run
from tickflow.lti import (
    LtiSystem,
    RationalMatrix,
    controllability_matrix,
    is_controllable,
    is_observable,
    observability_matrix,
)
from tickflow.params import bind_params
from tickflow.rewrite import STOP_PREFIX, RewriteConfig, rewrite_flows
from tickflow.syntax import parse
from tickflow.verify import Unreachable, Witness, check_reachable

from helpers import prediction, random_flow, random_program
from test_lti import naive_rank

CORPUS = Path(__file__).parent.parent / "corpus"
PROGRAMS = CORPUS / "programs"


def _report(number: int, name: str) -> None:
    print(f"acceptance {number:02d} {name}: PASS")


def _load(name: str, wcrt, params=None):
    program = parse((PROGRAMS / name).read_text())
    if params:
        program = bind_params(program, {k: F(v) for k, v in params.items()})
    cfg = RewriteConfig(F(wcrt))
    return rewrite_flows(program, cfg), cfg


def _carousel(alpha, wcrt, tag=1):
    return _load(
        "carousel.hsj", wcrt,
        {"alpha": alpha, "beta": 10, "theta": 6, "TAG": tag},
    )


def _stop_ticks(trace):
    return sorted(
        {
            rec.tick
            for rec in trace.records
            for name, present in rec.statuses.items()
            if present and name.startswith(STOP_PREFIX)
        }
    )


def test_criterion_01_single_flow_stops_exactly():
    started = time.perf_counter()
    program, cfg = _load("flow_single.hsj", 2)
    trace = run(program, cfg, max_ticks=10)
    # the stop signal fires during the very first transition
    assert _stop_ticks(trace) == [1]
    assert trace.final_cont("a") == F(2)
    assert trace.cont("a", 1) == F(2)
    assert time.perf_counter() - started < 1.0
    _report(1, "single flow stops exactly at 2")


def test_criterion_02_shared_invariant_pair():
    program, cfg = _load("flow_pair_shared.hsj", 2)
    trace = run(program, cfg, max_ticks=10)
    assert trace.terminated
    assert trace.effective_termination_tick == 2
    assert trace.cont("a", 2) == F(8)
    assert trace.cont("b", 2) == F(8)
    assert trace.final_cont("a") == F(8) and trace.final_cont("b") == F(8)
    _report(2, "shared-invariant pair ends at tick 2 with 8/8")


def test_criterion_03_one_invariant_vs_parallel_blocks():
    single, cfg = _load("flow_pair_one_invariant.hsj", 2)
    trace = run(single, cfg, max_ticks=10)
    assert trace.terminated and trace.effective_termination_tick == 3
    assert trace.cont("a", 3) == F(6) and trace.cont("b", 3) == F(6)
    blocks, cfg = _load("flow_pair_parallel.hsj", 2)
    trace = run(blocks, cfg, max_ticks=12)
    assert trace.terminated and trace.effective_termination_tick == 5
    assert trace.cont("b", 3) == F(6)
    assert trace.cont("b", 4) == F(6) and trace.cont("b", 5) == F(6)
    assert trace.final_cont("a") == F(10)
    _report(3, "lockstep keeps the slower flow alive until tick 5")


def test_criterion_04_preempted_free_running_flow():
    program, cfg = _load("flow_preempted.hsj", 2)
    trace = run(program, cfg, max_ticks=10)
    assert trace.status("S", 2)  # the second branch emits in tick 2
    assert trace.terminated and trace.termination_tick == 3  # response tick
    assert trace.final_cont("a") == F(6)
    _report(4, "externally preempted flow settles at 6")


def test_criterion_05_reset_combine_suite():
    program, cfg = _load("faulty_reset.hsj", 2)
    with_fault = run(
        program, cfg,
        schedule={1: InputAssignment.make(present=["FAULT"])},
        max_ticks=2,
    )
    assert with_fault.cont("a", 2) == F(6)
    without = run(program, cfg, max_ticks=3)
    assert without.cont("a", 3) == F(8)
    fixed, cfg = _load("reset_with_pause.hsj", 2)
    trace = run(fixed, cfg, max_ticks=4)
    assert [trace.cont("a", t) for t in (1, 2, 3, 4)] == [F(3), F(5), F(1), F(3)]
    _report(5, "reset folding: 6, 8 and 3,5,1,3")


def test_criterion_06_simultaneous_writes():
    program, cfg = _load("write_write_parallel.hsj", 2)
    trace = run(program, cfg, max_ticks=4)
    assert trace.cont("a", 1) == F(3)
    program, cfg = _load("write_write_do_block.hsj", 2)
    trace = run(program, cfg, max_ticks=6)
    assert trace.terminated and trace.effective_termination_tick == 1
    # the look-ahead folds the two unit rates twice: prediction is 12
    predict = prediction((("a", F(1)), ("a", F(1))), "a", F(2))
    assert predict(F(0)) == F(12)
    _report(6, "write-write folds to 3; double-rate look-ahead predicts 12")


def test_criterion_07_misaligned_detector_witness(capsys):
    started = time.perf_counter()
    code = cli_main([
        "verify", str(PROGRAMS / "carousel.hsj"),
        "--wcrt", "2", "--bound", "12", "--target", "ERROR",
        "--param", "alpha=3", "--param", "beta=10",
        "--param", "theta=6", "--param", "TAG=1",
    ])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 1
    assert "tick 2" in out  # transition from tick 1 to tick 2
    assert elapsed < 5.0
    program, cfg = _carousel(3, 2)
    verdict = check_reachable(program, cfg, None, bound=12, target="ERROR")
    assert isinstance(verdict, Witness) and verdict.tick == 2
    _report(7, "misaligned detector: witness in the second transition")


def test_criterion_08_late_diverter():
    program, cfg = _carousel(2, 2)
    trace = run(program, cfg, max_ticks=8)
    assert trace.emission_ticks("ERROR")[0] == 7
    assert trace.cont("x", 6) == F(12)
    assert trace.cont("x", 6) > F(10)  # past the end of the belt
    _report(8, "late diverter: item at 12 and the fault flagged at tick 7")


def test_criterion_09_correct_configuration():
    program, cfg = _carousel(1, 1)
    trace = run(program, cfg, max_ticks=30)
    assert 11 in trace.emission_ticks("DONE")
    assert trace.emission_ticks("ERROR") == []
    verdict = check_reachable(program, cfg, None, bound=30, target="ERROR")
    assert isinstance(verdict, Unreachable)
    _report(9, "unit placement and unit step deliver correctly")


def test_criterion_10_flow_discretization_laws():
    rng = random.Random(1009)
    total = 0
    terminated_checked = 0
    while total < 200:
        degenerate = total % 5 == 4
        case = random_flow(rng, degenerate_start=degenerate)
        cfg = RewriteConfig(case.wcrt)
        trace = run(rewrite_flows(parse(case.source), cfg), cfg, max_ticks=48)
        step = case.rate * case.wcrt
        # one iteration always happens, whatever the invariant says
        assert trace.cont("a", 1) == case.start + step
        stop = (
            trace.effective_termination_tick
            if trace.terminated
            else trace.records[-1].tick
        )
        # step recurrence and closed form over the uninterrupted prefix
        previous = case.start
        for k in range(1, stop + 1):
            value = trace.cont("a", k)
            assert value == previous + step
            assert value == case.start + k * step
            previous = value
        if trace.terminated and case.holds_at_start and case.one_step_safe:
            assert case.holds(trace.final_cont("a"))
            terminated_checked += 1
        total += 1
    assert total == 200 and terminated_checked >= 50
    _report(10, f"discretization laws hold on {total} random flows")


def test_criterion_11_rewrite_equivalence():
    from tickflow.corpus import run_corpus

    report = run_corpus(CORPUS)  # every golden case cross-checks native mode
    assert report.ok, report.summary()
    rng = random.Random(1111)
    agreements = 0
    for _ in range(100):
        source, wcrt, schedule = random_program(rng)
        program = parse(source)
        cfg = RewriteConfig(wcrt)
        names = sorted(program.declared_names())
        native = run(program, cfg, schedule=schedule, max_ticks=24, native_flows=True)
        rewritten = run(
            rewrite_flows(program, cfg), cfg, schedule=schedule, max_ticks=24
        )
        assert native.project(names) == rewritten.project(names), source
        assert native.termination_tick == rewritten.termination_tick
        agreements += 1
    assert agreements == 100
    _report(11, "native interpretation equals the rewrite on corpus + 100 random")


def test_criterion_12_fidelity_gap():
    automaton = parse_automaton(
        (CORPUS / "automata" / "carousel.ha").read_text(),
        {"alpha": 3, "theta": 6, "beta": 10},
    )
    program = bind_params(
        parse((PROGRAMS / "carousel.hsj").read_text()),
        {"alpha": F(3), "beta": F(10), "theta": F(6), "TAG": F(1)},
    )
    report = compare(
        automaton, program, RewriteConfig(F(2)), F(12), {"x": "x", "y": "y"}
    )
    first_switch = report.mode_switches[0]
    assert first_switch.time == F(3)
    # the first grid point after the first mode switch diverges
    assert report.first_divergence_tick == 2
    assert F(2) * (report.first_divergence_tick - 1) < first_switch.time
    assert F(2) * report.first_divergence_tick > first_switch.time
    ideal_divert = next(s for s in report.mode_switches if s.target == "D")
    assert ideal_divert.valuation_before["x"] == F(9)
    delayed_divert = next(s for s in report.delayed_mode_switches if s.target == "D")
    assert delayed_divert.valuation_before["x"] == F(11)
    _report(12, "fidelity gap: 9 at the ideal divert vs 11 with the reaction delay")


def test_criterion_13_rank_verdicts_against_oracle():
    rng = random.Random(1313)
    agreements = 0
    for _ in range(50):
        n = rng.randint(1, 5)
        p = rng.randint(1, 2)
        m = rng.randint(1, 2)
        a = RationalMatrix.from_rows(
            [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        c = RationalMatrix.from_rows(
            [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(p)]
        )
        b = RationalMatrix.from_rows(
            [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)]
        )
        sys_ = LtiSystem(a=a, c=c, b=b)
        assert is_observable(sys_) == (naive_rank(observability_matrix(sys_).to_rows()) == n)
        assert is_controllable(sys_) == (
            naive_rank(controllability_matrix(sys_).to_rows()) == n
        )
        # the shifted-output reading stacks the same matrix
        shifted = c
        block = c
        for _ in range(n - 1):
            block = block.matmul(a)
            shifted = shifted.vstack(block)
        assert shifted == observability_matrix(sys_)
        agreements += 1
    assert agreements == 50
    _report(13, "rank verdicts agree with the division oracle on 50 systems")
