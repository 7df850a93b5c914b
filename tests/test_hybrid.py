from __future__ import annotations

import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from tickflow.errors import ArgumentError, AutomatonError, DeadlockError, NondeterminismError
from tickflow.hybrid import (
    Comparison,
    LinExpr,
    compare,
    ha_simulate,
    parse_automaton,
    window_intersect,
)
from tickflow.params import bind_params
from tickflow.rewrite import RewriteConfig
from tickflow.syntax import parse

CORPUS = Path(__file__).parent.parent / "corpus"

CAROUSEL_PARAMS = {"alpha": 3, "theta": 6, "beta": 10}


def _carousel(params=None):
    text = (CORPUS / "automata" / "carousel.ha").read_text()
    return parse_automaton(text, params or CAROUSEL_PARAMS)


def test_ideal_trajectory_switch_points():
    trace = ha_simulate(_carousel(), F(12))
    steps = [(s.source, s.target, s.time, s.valuation_before["x"]) for s in trace.steps]
    assert steps[0] == ("A", "B", F(3), F(3))
    assert steps[1] == ("B", "D", F(9), F(9))  # diverter done, item at 9 < 10
    assert steps[2] == ("D", "A", F(10), F(10))


def test_single_location_dwell():
    ha = parse_automaton("var x\nlocation L\n  rate x 1\ninit L x = 0\n")
    trace = ha_simulate(ha, F(5))
    assert trace.value_at(F(5), "x") == F(5)
    assert trace.steps == []


def test_delayed_switching_overrun():
    trace = ha_simulate(_carousel(), F(14), F(2))
    steps = [(s.source, s.target, s.time, s.valuation_before["x"]) for s in trace.steps]
    assert steps[0] == ("A", "B", F(5), F(5))  # reaction time added
    assert steps[1] == ("B", "D", F(11), F(11))  # item already past the belt end
    assert steps[2][0:2] == ("D", "A")
    assert steps[2][2] == F(11)  # bounce back immediately: invariant broken


RATES = ("-1", "0", "1/2", "1", "2")


def _random_automaton(rng: random.Random, one_switch: bool = False, delay: str = ""):
    """A seeded automaton over x and y of 1-3 locations with no invariant:
    random rates, guards, resets and priorities, each edge with `delay`.
    With `one_switch` every edge leaves L0 for another location, and no
    edge leaves that one."""
    n = rng.randint(2 if one_switch else 1, 3)
    lines = ["var x y"]
    for i in range(n):
        lines += [f"location L{i}", *(f"  rate {v} {rng.choice(RATES)}" for v in "xy")]
    lines.append(f"init L0 x = {rng.randint(0, 2)}, y = {rng.randint(0, 2)}")
    for e in range(rng.randint(1, 4)):
        if one_switch:
            source, target = 0, rng.randrange(1, n)
        else:
            source, target = rng.randrange(n), rng.randrange(n)
        var = rng.choice("xy")
        line = (
            f"edge L{source} -> L{target} when {var} {rng.choice(('>=', '<=', '=='))} "
            f"{rng.randint(-2, 6)} label e{e} priority {rng.randint(0, 2)}"
        )
        if rng.random() < 0.5:
            line += f" reset {var} = {rng.randint(0, 3)}"
        lines.append(line + delay)
    return parse_automaton("\n".join(lines) + "\n")


def _outcome(ha, horizon, wcrt=None):
    """The trace's segments and steps, or the class and message of the error."""
    try:
        trace = ha_simulate(ha, horizon, wcrt)
    except (AutomatonError, NondeterminismError) as err:
        return type(err), str(err)
    return trace.segments, trace.steps


def test_the_two_modes_agree_without_invariants_or_delays():
    for seed in range(80):
        ha = _random_automaton(random.Random(seed))
        ideal = _outcome(ha, F(10))
        for wcrt in (F(1), F(1, 3), F(5, 2)):
            assert _outcome(ha, F(10), wcrt) == ideal, (seed, wcrt)


def test_a_delay_wcrt_edge_switches_one_reaction_time_after_the_ideal_switch():
    delayed_switches = 0
    for seed in range(80):
        ha = _random_automaton(random.Random(seed), one_switch=True, delay=" delay wcrt")
        ideal = _outcome(ha, F(10))
        for wcrt in (F(1), F(1, 3), F(5, 2)):
            delayed = _outcome(ha, F(10), wcrt)
            if ideal[0] is NondeterminismError:
                assert delayed == ideal, (seed, wcrt)
                continue
            first = ideal[1][0] if ideal[1] else None
            if first is None or first.time + wcrt >= 10:
                assert delayed[1] == [], (seed, wcrt)
                continue
            (step,) = delayed[1]
            assert (step.time, step.label, step.target) == (
                first.time + wcrt, first.label, first.target
            ), (seed, wcrt)
            rates = ha.locations["L0"].rates
            assert step.valuation_before == {
                v: ha.initial_valuation[v] + rates[v] * step.time for v in "xy"
            }, (seed, wcrt)
            delayed_switches += 1
    assert delayed_switches >= 60


def test_an_invariant_violated_on_entry_is_a_deadlock_at_the_switch():
    # outside the invariant's window, and on the open boundary of one the
    # flow then moves into
    for rate, inv in (("0", "x >= 2"), ("1", "x > 0"), ("-1", "x < 0")):
        text = RISING.replace("rate x 0", f"rate x {rate}\n  inv {inv}")
        with pytest.raises(DeadlockError) as err:
            ha_simulate(parse_automaton(text + "edge A -> B when x >= 1 reset x = 0\n"), F(5))
        assert str(err.value) == "invariant of 'B' violated on entry", inv
        assert err.value.time == F(1), inv
    # the closed boundary holds on entry
    text = RISING.replace("rate x 0", "rate x 1\n  inv x >= 0")
    trace = ha_simulate(parse_automaton(text + "edge A -> B when x >= 1 reset x = 0\n"), F(5))
    assert trace.value_at(F(5), "x") == F(4)


def test_time_step_soundness_ideal():
    trace = ha_simulate(_carousel(), F(12))
    ha = _carousel()
    for seg in trace.segments:
        loc = ha.locations[seg.location]
        start = seg.valuation_start
        end = {
            v: start[v] + seg.rates.get(v, F(0)) * seg.duration for v in start
        }
        for comparison in loc.invariant:
            assert comparison.holds(start)
            assert comparison.holds(end)


def test_zero_duration_discrete_steps():
    trace = ha_simulate(_carousel(), F(12))
    times = [seg.start for seg in trace.segments]
    assert times == sorted(times)
    for step, seg in zip(trace.steps, trace.segments[1:]):
        assert step.time == seg.start  # switches take no time


def test_an_equality_guard_fires_at_its_one_instant():
    # `==` holds along a flow at one instant, at rest always or never
    def steps(rate, guard):
        ha = parse_automaton(
            f"var x\nlocation L\n  rate x {rate}\nlocation M\n"
            f"edge L -> M when {guard}\ninit L x = 0\n"
        )
        return [(s.source, s.target, s.time) for s in ha_simulate(ha, F(5)).steps]

    assert steps(1, "x == 3") == [("L", "M", F(3))]
    assert steps(1, "x == 0 - 1") == []  # passed before the flow starts
    assert steps(0, "x == 0 - 1") == []
    assert steps(0, "x == 0") == [("L", "M", F(0))]
    assert Comparison(LinExpr.make(-3, {"x": 1}), "==").satisfaction_window(
        {"x": F(0)}, {"x": F(1)}
    ) == (F(3), F(3), False, False)


def _switches(text: str, horizon) -> list:
    return [(s.source, s.target, s.time) for s in ha_simulate(parse_automaton(text), F(horizon)).steps]


# a rate-1 location A and a resting location B, for one edge A -> B
RISING = "var x\nlocation A\n  rate x 1\nlocation B\n  rate x 0\ninit A x = 0\n"


def test_a_guard_enables_at_the_earliest_instant_of_its_window():
    # the tightest upper bound cuts the window; an empty window never enables
    assert _switches(RISING + "edge A -> B when x >= 1 && x <= 3 && x <= 5\n", 10) == [
        ("A", "B", F(1))
    ]
    assert _switches(RISING + "edge A -> B when x >= 4 && x <= 3\n", 10) == []
    closed, wider = (F(1), F(3), False, False), (F(0), F(5), False, False)
    assert window_intersect(closed, wider) == closed
    assert window_intersect(wider, closed) == closed
    # equal upper bounds: the bound is open if either one is
    assert window_intersect((F(0), F(3), False, True), (F(0), F(3), False, False)) == (
        F(0), F(3), False, True
    )
    # a strict lower bound has no earliest instant, so the edge never fires
    assert _switches(RISING + "edge A -> B when x > 3\n", 10) == []


def test_edges_that_switch_back_and_forth_at_once_are_a_livelock():
    text = "var x\nlocation A\nlocation B\ninit A\nedge A -> B when x >= 0\nedge B -> A when x >= 0\n"
    with pytest.raises(AutomatonError) as err:
        ha_simulate(parse_automaton(text), F(10))
    assert str(err.value) == "switch livelock: no time passes"


def test_an_edge_enabled_only_after_the_invariant_expires_is_skipped():
    text = RISING.replace("rate x 1\n", "rate x 1\n  inv x <= 2\n", 1)
    with pytest.raises(DeadlockError) as err:
        ha_simulate(parse_automaton(text + "edge A -> B when x >= 3\n"), F(10))
    assert str(err.value) == "invariant of 'A' expires with no enabled edge"
    assert err.value.time == F(2)


def test_an_initial_valuation_outside_the_invariant_is_refused_at_its_line():
    with pytest.raises(AutomatonError) as err:
        parse_automaton("var x\nlocation A\n  rate x 1\n  inv x <= 2\ninit A x = 5\n")
    assert str(err.value) == "5: initial valuation violates the invariant"


def test_a_value_past_the_horizon_is_refused():
    trace = ha_simulate(parse_automaton("var x\nlocation A\n  rate x 1\ninit A x = 0\n"), F(3))
    assert trace.value_at(F(3), "x") == F(3)
    with pytest.raises(AutomatonError) as err:
        trace.value_at(F(4), "x")
    assert str(err.value) == "time 4 beyond the simulated horizon"


def test_automaton_lines_refuse_a_comment_and_read_a_negative_priority():
    # the program lexer would drop the rest of a line after `//` as a comment
    with pytest.raises(AutomatonError) as err:
        parse_automaton("var x // y\nlocation A\ninit A\n")
    assert str(err.value) == "1: unexpected '//'"
    ha = parse_automaton(RISING + "edge A -> B when x >= 1 priority -1\n")
    assert ha.edges[0].priority == -1


def test_urgent_determinism():
    a = ha_simulate(_carousel(), F(12))
    b = ha_simulate(_carousel(), F(12))
    assert a.segments == b.segments and a.steps == b.steps


def test_deadlock_when_invariant_expires():
    ha = parse_automaton(
        "var x\nlocation L\n  rate x 1\n  inv x <= 1\ninit L x = 0\n"
    )
    with pytest.raises(DeadlockError) as err:
        ha_simulate(ha, F(5))
    assert err.value.time == F(1)


def test_simultaneous_edges_need_priorities():
    text = (
        "var x\n"
        "location L\n  rate x 1\nlocation M\n  rate x 0\nlocation N\n  rate x 0\n"
        "init L x = 0\n"
        "edge L -> M when x >= 1 label m\n"
        "edge L -> N when x >= 1 label n\n"
    )
    with pytest.raises(NondeterminismError):
        ha_simulate(parse_automaton(text), F(5))
    trace = ha_simulate(parse_automaton(text + "edge L -> M when x >= 2\n"), F(1, 2))
    assert trace.steps == []
    prioritized = text.replace("label m", "label m priority 1").replace(
        "label n", "label n priority 2"
    )
    trace = ha_simulate(parse_automaton(prioritized), F(5))
    assert trace.steps[0].target == "M"


def test_left_limit_at_switch_instants():
    trace = ha_simulate(_carousel(), F(12))
    # x resets to 0 at t=10; the left limit at the switch instant is 10
    assert trace.value_at(F(10), "x") == F(10)
    assert trace.value_at(F(11), "x") == F(1)


def test_bad_files():
    with pytest.raises(AutomatonError):
        parse_automaton("location L\n  rate x 1\n")  # no init
    with pytest.raises(AutomatonError):
        parse_automaton("var x\ninit L x = 0\n")  # unknown location
    with pytest.raises(AutomatonError):
        parse_automaton("var x\nlocation L\n  inv x <= beta\ninit L x = 0\n")


def _guard(expr: str, params=None):
    """The guard `x >= expr`, read as an edge of a one-variable automaton."""
    text = f"var x\nlocation L\ninit L\nedge L -> L when x >= {expr}\n"
    return parse_automaton(text, params).edges[0].guard


def test_expressions_fold_as_in_the_program_grammar():
    params = {"beta": 10}
    for expr, canonical in (
        ("beta - -1", "beta + 1"),
        ("x*2", "2*x"),
        ("2*(x + 1)", "2*x + 2"),
        ("-1/2", "0 - 1/2"),
    ):
        assert _guard(expr, params) == _guard(canonical, params), expr
    # x >= 2*(x + 1) is -x - 2 >= 0
    assert _guard("2*(x + 1)") == (Comparison(LinExpr.make(-2, {"x": -1}), ">="),)


def test_expressions_outside_the_grammar_are_rejected_with_their_line():
    base = "var x\nlocation L\ninit L\n"
    for text, message in (
        ("edge L -> L when x*x >= 1\n", "4: not a linear expression: 'x * x'"),
        ("edge L -> L when x != 1\n", "4: expected a comparison, found '!='"),
        ("edge L -> L when x >= 1e3\n", "4: unexpected 'e3' in edge"),
        ("edge L -> L delay 1e3\n", "4: unexpected 'e3' in edge"),
        ("var if\n", "4: expected a name, found 'if'"),
    ):
        with pytest.raises(AutomatonError) as err:
            parse_automaton(base + text)
        assert str(err.value) == message, text
    with pytest.raises(AutomatonError) as err:
        parse_automaton("var x\nlocation L\n  rate x 1e3\ninit L\n")
    assert str(err.value) == "3: unexpected 'e3'"


def test_edge_delays_and_priorities():
    base = "var x\nlocation A\n  rate x 1\nlocation B\ninit A x = 0\n"
    ha = parse_automaton(base + "edge A -> B when x >= 3 delay wcrt\n")
    assert ha.edges[0].delay_wcrt and ha.edges[0].delay == 0
    assert ha_simulate(ha, F(10), F(2)).steps[0].time == F(5)
    fixed = parse_automaton(base + "edge A -> B when x >= 3 delay 1/2\n")
    assert not fixed.edges[0].delay_wcrt and fixed.edges[0].delay == F(1, 2)
    # a negative delay used to read as `delay wcrt` (-1) or to switch
    # before the guard is enabled (-3)
    for bad in ("delay -1", "delay -3", "priority x"):
        with pytest.raises(AutomatonError) as err:
            parse_automaton(base + f"edge A -> B when x >= 3 {bad}\n")
        assert ("negative delay" if "delay" in bad else "bad priority") in str(err.value)


# --- comparison against the program ------------------------------------------------


def _carousel_program(alpha, wcrt):
    program = parse((CORPUS / "programs" / "carousel.hsj").read_text())
    return bind_params(
        program,
        {"alpha": F(alpha), "beta": F(10), "theta": F(6), "TAG": F(1)},
    )


def test_compare_diverges_after_first_mode_switch():
    report = compare(
        _carousel(),
        _carousel_program(3, 2),
        RewriteConfig(F(2)),
        horizon=F(12),
        mapping={"x": "x", "y": "y"},
    )
    # grid agrees at t=0 and t=2; the first switch happens at t=3 and the
    # very next grid point diverges
    assert report.first_divergence_tick == 2
    switch = report.mode_switches[0]
    assert switch.time == F(3)
    assert (report.first_divergence_tick - 1) * F(2) <= switch.time <= report.first_divergence_tick * F(2)
    assert report.max_deviation > 0


def test_compare_reports_both_switch_logs():
    report = compare(
        _carousel(),
        _carousel_program(3, 2),
        RewriteConfig(F(2)),
        horizon=F(12),
        mapping={"x": "x", "y": "y"},
    )
    ideal_divert = next(s for s in report.mode_switches if s.source == "B")
    assert ideal_divert.valuation_before["x"] == F(9)
    delayed_divert = next(s for s in report.delayed_mode_switches if s.source == "B")
    assert delayed_divert.valuation_before["x"] == F(11)


def test_compare_identical_constant_systems():
    ha = parse_automaton("var x\nlocation L\n  rate x 1\ninit L x = 0\n")
    program = parse("cont x = 0;\ndo {x' = 1} until (true)")
    report = compare(ha, program, RewriteConfig(F(2)), F(10), {"x": "x"})
    assert report.first_divergence_tick is None
    assert report.max_deviation == 0


def test_compare_holds_a_terminated_programs_final_value():
    ha = parse_automaton("var x\nlocation L\n  rate x 1\ninit L x = 0\n")
    program = parse("cont x = 0; do {x' = 1} until (x <= 2)")
    report = compare(ha, program, RewriteConfig(F(1)), F(6), {"x": "x"})
    assert report.to_text() == (
        "tick,time,ha:x,prog:x\n0,0,0,0\n1,1,1,1\n2,2,2,2\n"
        "3,3,3,2\n4,4,4,2\n5,5,5,2\n6,6,6,2\n"
        "first divergence at tick 3\nmax deviation 4\n"
    )


def test_compare_holds_a_variable_once_its_scope_has_ended():
    ha = parse_automaton("var x\nlocation L\n  rate x 1\ninit L x = 0\n")
    program = parse("{ cont y = 0; do {y' = 1} until (y <= 2) }; loop { pause }")
    report = compare(ha, program, RewriteConfig(F(1)), F(6), {"x": "y"})
    assert report.to_text() == (
        "tick,time,ha:x,prog:y\n0,0,0,0\n1,1,1,1\n2,2,2,2\n"
        "3,3,3,2\n4,4,4,2\n5,5,5,2\n6,6,6,2\n"
        "first divergence at tick 3\nmax deviation 4\n"
    )


def test_compare_reads_at_each_tick_the_value_the_program_holds_then():
    # between two scopes a variable holds its last settled value, and
    # before its first declaration its first declared value: never a value
    # it settles later in the run
    ha = parse_automaton("var x\nlocation L\n  rate x 1\ninit L x = 0\n")
    for source, horizon, column, first, deviation in (
        ("loop { { cont y = 1; do {y' = 1} until (y <= 3) }; pause; pause }", 9,
         [1, 2, 3, 3, 3, 2, 3, 3, 3, 2], 0, 7),
        ("pause; { cont y = 0; do {y' = 2} until (y <= 4) }; loop { pause }", 6,
         [0, 0, 2, 4, 4, 4, 4], 1, 2),
    ):
        report = compare(ha, parse(source), RewriteConfig(F(1)), F(horizon), {"x": "y"})
        assert [point.program_values["y"] for point in report.grid] == column, source
        assert (report.first_divergence_tick, report.max_deviation) == (first, deviation)


def test_compare_refuses_a_target_declared_after_the_horizon():
    ha = parse_automaton("var x\nlocation L\n  rate x 1\ninit L x = 0\n")
    program = parse("pause; pause; pause; { cont y = 0; pause }")
    with pytest.raises(ArgumentError) as err:
        compare(ha, program, RewriteConfig(F(1)), F(2), {"x": "y"})
    assert (err.value.name, err.value.message) == (
        "mapping", "map target 'y' is not declared within the horizon"
    )
    # a horizon that reaches the declaration at tick 4 is tabulated
    report = compare(ha, program, RewriteConfig(F(1)), F(4), {"x": "y"})
    assert [point.tick for point in report.grid] == [0, 1, 2, 3, 4]


def test_compare_agreement_until_reset_lag():
    # at unit step the item position tracks the automaton through the
    # whole first delivery; the one-tick write delay of the reset is the
    # first gap (the diverter is not compared: the automaton starts it at
    # the switch instant, the program one reaction chain later)
    report = compare(
        _carousel({"alpha": 1, "theta": 6, "beta": 10}),
        _carousel_program(1, 1),
        RewriteConfig(F(1)),
        horizon=F(14),
        mapping={"x": "x"},
    )
    assert report.first_divergence_tick == 11
    deliver = next(s for s in report.mode_switches if s.source == "D")
    assert deliver.time == F(10)


def test_compare_unmapped_variable():
    ha = parse_automaton("var x\nlocation L\n  rate x 1\ninit L x = 0\n")
    program = parse("cont x = 0;\ndo {x' = 1} until (true)")
    with pytest.raises(ArgumentError) as err:
        compare(ha, program, RewriteConfig(F(2)), F(4), {"z": "x"})
    assert (err.value.name, err.value.message) == ("mapping", "unmapped automaton variable 'z'")


def test_compare_checks_its_map_before_its_horizon():
    ha = parse_automaton("var x\nlocation L\n  rate x 1\ninit L x = 0\n")
    program = parse("cont x = 0; signal S;\ndo {x' = 1} until (true)")
    for mapping, message in (
        ({"x": "S"}, "map target 'S' is not a continuous variable of the program"),
        ({"x": 1}, "map target 1 is not a continuous variable of the program"),
        ({"x": "x", "y": "x"}, "unmapped automaton variable 'y'"),
    ):
        with pytest.raises(ArgumentError) as err:
            compare(ha, program, RewriteConfig(F(2)), F(0), mapping)
        assert (err.value.name, err.value.message) == ("mapping", message)


def test_compare_rejects_a_target_and_a_horizon_it_cannot_tabulate():
    ha = parse_automaton("var x\nlocation L\n  rate x 1\ninit L x = 0\n")
    program = parse("cont x = 0;\ndo {x' = 1} until (true)")
    with pytest.raises(ArgumentError) as err:
        compare(ha, program, RewriteConfig(F(2)), F(4), {"x": "y"})
    assert (err.value.name, err.value.message) == (
        "mapping", "map target 'y' is not a continuous variable of the program"
    )
    with pytest.raises(ArgumentError, match="at least one tick"):
        compare(ha, program, RewriteConfig(F(2)), F(3, 2), {"x": "x"})
    # one tick exactly: tick 0 and tick 1 are tabulated
    report = compare(ha, program, RewriteConfig(F(2)), F(2), {"x": "x"})
    assert [point.tick for point in report.grid] == [0, 1]
