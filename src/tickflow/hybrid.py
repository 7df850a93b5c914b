"""Reference simulator for linear hybrid automata with constant slopes.

The classical semantics alternates time steps (dwell in a location while
its invariant holds) with instantaneous edges. With constant rates and
linear guards every enabling instant is an exact rational, so simulation is
closed-form: advance to the earliest instant an outgoing guard is
satisfiable, take that edge, apply its resets, repeat.

Switching is urgent (earliest enabled wins); two edges enabling at the same
instant need explicit priorities. Edges may carry a delay, which counts in
the delayed mode only: the switch then happens that long after enabling
while the source location's activities keep driving the variables, and no
invariant is enforced. That mode is chosen by giving the controller's
reaction time, `wcrt`, which a `delay wcrt` edge waits; it simulates what a
clocked controller actually does to the plant, and `compare` runs it beside
the ideal one to quantify the gap between the idealized automaton and the
tick-discretized program.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import (
    ArgumentError, AutomatonError, CompileError, DeadlockError, NondeterminismError,
)
from .kernel import run as kernel_run
from .rational import format_rational
from .rewrite import RewriteConfig, rewrite_flows
from .struct import Struct
from .syntax.lexer import lex
from .syntax.nodes import BINARY, Binary, ContDecl, NameRef, NumLit, Program, Unary
from .syntax.parser import _Parser

# --- linear expressions over automaton variables --------------------------------


class LinExpr(Struct):
    """constant + sum(coeff * var)."""

    const: Fraction
    coeffs: tuple  # ((var, Fraction), ...) sorted, zero coeffs dropped

    @staticmethod
    def make(const=0, coeffs=None) -> "LinExpr":
        pairs = tuple(
            sorted((v, Fraction(c)) for v, c in (coeffs or {}).items() if c != 0)
        )
        return LinExpr(Fraction(const), pairs)

    def plus(self, other: "LinExpr") -> "LinExpr":
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs:
            coeffs[var] = coeffs.get(var, 0) + coeff
        return LinExpr.make(self.const + other.const, coeffs)

    def times(self, factor: Fraction) -> "LinExpr":
        return LinExpr.make(self.const * factor, {v: c * factor for v, c in self.coeffs})

    def value(self, valuation: dict) -> Fraction:
        total = self.const
        for var, coeff in self.coeffs:
            total += coeff * valuation[var]
        return total

    def slope(self, rates: dict) -> Fraction:
        total = Fraction(0)
        for var, coeff in self.coeffs:
            total += coeff * rates.get(var, Fraction(0))
        return total


class Comparison(Struct):
    """lhs OP 0 with OP in <=, <, >=, >, ==."""

    lhs: LinExpr
    op: str

    def holds(self, valuation: dict) -> bool:
        """Whether the comparison holds at `valuation`: at rest, its window
        is empty or unbounded."""
        return self.satisfaction_window(valuation, {}) is not None

    def satisfaction_window(self, valuation: dict, rates: dict):
        """Interval of t >= 0 where the comparison holds along the flow;
        returns (lo, hi, lo_strict, hi_strict) with hi None for unbounded,
        or None when empty."""
        v0 = self.lhs.value(valuation)
        slope = self.lhs.slope(rates)
        if self.op == "==":
            if slope == 0:
                return (Fraction(0), None, False, False) if v0 == 0 else None
            t = -v0 / slope
            if t < 0:
                return None
            return (t, t, False, False)
        # normalize to "value <= 0" / "value < 0" direction
        flip = self.op in (">=", ">")
        v = -v0 if flip else v0
        s = -slope if flip else slope
        strict = self.op in ("<", ">")
        # window where v + s t (<|<=) 0
        if s == 0:
            ok = v < 0 if strict else v <= 0
            return (Fraction(0), None, False, False) if ok else None
        t_cross = -v / s
        if s < 0:
            # becomes satisfied from t_cross onward
            lo = max(t_cross, Fraction(0))
            return (lo, None, strict and lo == t_cross, False)
        # satisfied up to t_cross
        if t_cross < 0 or (strict and t_cross == 0):
            return None
        return (Fraction(0), t_cross, False, strict)


def window_intersect(a, b):
    if a is None or b is None:
        return None
    lo_a, hi_a, slo_a, shi_a = a
    lo_b, hi_b, slo_b, shi_b = b
    if lo_a > lo_b:
        lo, slo = lo_a, slo_a
    elif lo_b > lo_a:
        lo, slo = lo_b, slo_b
    else:
        lo, slo = lo_a, slo_a or slo_b
    if hi_a is None:
        hi, shi = hi_b, shi_b
    elif hi_b is None:
        hi, shi = hi_a, shi_a
    elif hi_a < hi_b:
        hi, shi = hi_a, shi_a
    elif hi_b < hi_a:
        hi, shi = hi_b, shi_b
    else:
        hi, shi = hi_a, shi_a or shi_b
    if hi is not None:
        if lo > hi or (lo == hi and (slo or shi)):
            return None
    return (lo, hi, slo, shi)


# --- automaton structure ----------------------------------------------------------


class Location(Struct):
    name: str
    rates: dict  # var -> Fraction
    invariant: tuple  # conjunction of Comparisons


class Edge(Struct):
    source: str
    target: str
    guard: tuple  # conjunction of Comparisons
    resets: tuple  # ((var, LinExpr), ...) applied at the switch
    label: str = ""
    delay: Fraction = Fraction(0)
    priority: int = 0
    delay_wcrt: bool = False  # `delay wcrt`: the reaction time a delayed run is given

    def __post_init__(self):
        if self.delay < 0:
            raise AutomatonError(
                f"edge {self.source} -> {self.target} has a negative delay "
                f"{format_rational(self.delay)}"
            )


class HybridAutomaton(Struct):
    variables: tuple
    locations: dict  # name -> Location
    edges: tuple
    initial_location: str
    initial_valuation: dict  # var -> Fraction

    def __post_init__(self):
        if self.initial_location not in self.locations:
            raise AutomatonError(f"unknown initial location {self.initial_location!r}")
        init_loc = self.locations[self.initial_location]
        valuation = dict(self.initial_valuation)
        for comparison in init_loc.invariant:
            if not comparison.holds(valuation):
                raise AutomatonError("initial valuation violates the invariant")


class TimeSegment(Struct):
    start: Fraction
    duration: Fraction
    location: str
    valuation_start: dict  # var -> Fraction at segment start
    rates: dict

    def value(self, var: str, dt: Fraction) -> Fraction:
        """The value of `var` at `dt` into the segment."""
        return self.valuation_start[var] + self.rates.get(var, Fraction(0)) * dt


class DiscreteStep(Struct):
    time: Fraction
    label: str
    source: str
    target: str
    valuation_before: dict
    valuation_after: dict


class HaTrace(Struct):
    segments: list  # TimeSegment
    steps: list  # DiscreteStep
    horizon: Fraction

    def value_at(self, t: Fraction, var: str) -> Fraction:
        """Valuation at time t; at a switch instant this is the left limit
        (the pre-switch value)."""
        for seg in self.segments:
            end = seg.start + seg.duration
            if seg.start <= t <= end:
                return seg.value(var, t - seg.start)
        raise AutomatonError(f"time {t} beyond the simulated horizon")


_MAX_SWITCHES = 10_000  # beyond this many switches a run is taken for a livelock


def ha_simulate(
    ha: HybridAutomaton, horizon: Fraction, wcrt: Optional[Fraction] = None
) -> HaTrace:
    """Simulate with urgent switching up to the horizon.

    Without `wcrt` every switch is instantaneous at its enabling instant and
    location invariants are enforced throughout. With it (the
    clocked-controller overrun mode) each edge switches its delay after
    enabling, a `delay wcrt` edge one `wcrt`, and invariants are not enforced.
    """
    loc = ha.locations[ha.initial_location]
    valuation = dict(ha.initial_valuation)
    now = Fraction(0)
    trace = HaTrace([], [], horizon)
    switches = 0
    zero_dwell = 0
    while now < horizon:
        result = _next_switch(ha, loc, valuation, now, horizon, wcrt)
        if result is None:
            # dwell to the horizon
            trace.segments.append(
                TimeSegment(now, horizon - now, loc.name, dict(valuation), loc.rates)
            )
            return trace
        edge, switch_time = result
        dwell = switch_time - now
        segment = TimeSegment(now, dwell, loc.name, dict(valuation), loc.rates)
        trace.segments.append(segment)
        before = {v: segment.value(v, dwell) for v in ha.variables}
        after = dict(before)
        for var, expr in edge.resets:
            after[var] = expr.value(before)
        trace.steps.append(
            DiscreteStep(switch_time, edge.label, edge.source, edge.target, before, after)
        )
        zero_dwell = zero_dwell + 1 if dwell == 0 else 0
        switches += 1
        if switches > _MAX_SWITCHES or zero_dwell > len(ha.locations) + len(ha.edges):
            raise AutomatonError("switch livelock: no time passes")
        loc = ha.locations[edge.target]
        valuation = after
        now = switch_time
    return trace


def _window(conjunction: tuple, valuation: dict, rates: dict):
    """The window of t >= 0 where every comparison of `conjunction` holds
    along the flow, as `Comparison.satisfaction_window` gives one."""
    window = (Fraction(0), None, False, False)
    for comparison in conjunction:
        window = window_intersect(window, comparison.satisfaction_window(valuation, rates))
    return window


def _next_switch(ha, loc, valuation, now, horizon, wcrt):
    """Earliest enabled outgoing edge from the current state and its switch
    instant, or None if the automaton dwells past the horizon. Urgent
    switching must be deterministic. In the ideal mode (no `wcrt`) the
    location's invariant must hold on entry, and an edge must enable before
    it expires; one that enables later is no candidate."""
    expiry = None  # how long the invariant allows a dwell; None for ever
    if wcrt is None:
        invariant = _window(loc.invariant, valuation, loc.rates)
        # the window holds at t = 0 exactly when every comparison holds at rest
        if invariant is None or invariant[0] > 0 or invariant[2]:
            raise DeadlockError(f"invariant of {loc.name!r} violated on entry", now)
        expiry = invariant[1]
    candidates = []
    for edge in ha.edges:
        if edge.source != loc.name:
            continue
        window = _window(edge.guard, valuation, loc.rates)
        # an open enabling instant has no earliest point
        if window is None or window[2]:
            continue
        enable = window[0]
        if expiry is not None and enable > expiry:
            continue  # invariant expires before the guard enables
        candidates.append((enable, edge))
    if not candidates:
        if expiry is not None and now + expiry < horizon:
            raise DeadlockError(
                f"invariant of {loc.name!r} expires with no enabled edge", now + expiry
            )
        return None
    # urgency ranks by enabling instant; an edge delay postpones only the
    # switch itself while the plant keeps flowing
    best_enable = min(enable for enable, _ in candidates)
    if now + best_enable >= horizon:
        return None
    best = [edge for enable, edge in candidates if enable == best_enable]
    if len(best) > 1:
        best.sort(key=lambda e: e.priority)
        if best[0].priority == best[1].priority:
            raise NondeterminismError(
                f"edges {best[0].label!r} and {best[1].label!r} enable "
                f"simultaneously at t={format_rational(now + best_enable)}"
            )
    edge = best[0]
    if wcrt is None:
        delay = Fraction(0)
    else:
        delay = wcrt if edge.delay_wcrt else edge.delay
    switch_time = now + best_enable + delay
    if switch_time >= horizon:
        return None
    return edge, switch_time


# --- comparison against the tick-discretized program ------------------------------


class GridPoint(Struct):
    tick: int
    time: Fraction
    ha_values: dict
    program_values: dict
    diverged: bool


class DivergenceReport(Struct):
    mapping: dict  # automaton var -> program cont var
    grid: list  # GridPoint per tick
    first_divergence_tick: Optional[int]
    max_deviation: Fraction
    mode_switches: list  # DiscreteStep of the ideal automaton
    delayed_mode_switches: list  # DiscreteStep with edge delays applied

    def to_text(self) -> str:
        pairs = sorted(self.mapping.items())
        lines = [
            "tick,time,"
            + ",".join(f"ha:{var},prog:{pvar}" for var, pvar in pairs)
        ]
        for point in self.grid:
            cells = [str(point.tick), format_rational(point.time)]
            for var, pvar in pairs:
                cells.append(format_rational(point.ha_values[var]))
                cells.append(format_rational(point.program_values[pvar]))
            lines.append(",".join(cells))
        if self.first_divergence_tick is None:
            lines.append("no divergence on the grid")
        else:
            lines.append(f"first divergence at tick {self.first_divergence_tick}")
        lines.append(f"max deviation {format_rational(self.max_deviation)}")
        logs = (("ideal", self.mode_switches), ("delayed", self.delayed_mode_switches))
        for kind, steps in logs:
            for step in steps:
                valuation = " ".join(
                    f"{name}={format_rational(value)}"
                    for name, value in sorted(step.valuation_before.items())
                )
                lines.append(
                    f"{kind} switch {step.source}->{step.target} at "
                    f"t={format_rational(step.time)} {valuation}"
                )
        return "\n".join(lines) + "\n"


def compare(
    ha: HybridAutomaton,
    program: Program,
    cfg: RewriteConfig,
    horizon: Fraction,
    mapping: dict,
) -> DivergenceReport:
    """Tabulate the ideal automaton and the tick-discretized program on the
    tick grid; report the first diverging tick, the maximum deviation, and
    both switch logs (ideal and WCRT-delayed).

    `mapping` sends automaton variables to program continuous variables; an
    entry that does not is refused first, an `ArgumentError` naming `mapping`,
    and so, once the program has run, is a target that no tick within the
    horizon declares.
    """
    conts = {d.name for d in program.declarations() if isinstance(d, ContDecl)}
    for var, pvar in mapping.items():
        if var not in ha.variables:
            raise ArgumentError("mapping", f"unmapped automaton variable {var!r}")
        if not isinstance(pvar, str) or pvar not in conts:
            raise ArgumentError(
                "mapping", f"map target {pvar!r} is not a continuous variable of the program"
            )
    if horizon <= 0:
        raise ArgumentError("horizon", f"must be positive, got {format_rational(horizon)}")
    if horizon < cfg.wcrt:
        raise ArgumentError(
            "horizon",
            f"must be at least one tick, {format_rational(cfg.wcrt)}, "
            f"got {format_rational(horizon)}",
        )
    ideal = ha_simulate(ha, horizon)
    delayed = ha_simulate(ha, horizon, cfg.wcrt)
    rewritten = rewrite_flows(program, cfg)
    n_ticks = int(horizon / cfg.wcrt)
    trace = kernel_run(rewritten, cfg, max_ticks=n_ticks)
    columns = {}  # program variable -> its value at ticks 0..n_ticks
    for pvar in dict.fromkeys(mapping.values()):
        if pvar not in trace.initial_conts:
            raise ArgumentError(
                "mapping", f"map target {pvar!r} is not declared within the horizon"
            )
        # the value held at tick k: the last settled at or before k, else the first declared
        settled, column = dict(trace.series(pvar)), [trace.initial_conts[pvar]]
        for k in range(1, n_ticks + 1):
            column.append(settled.get(k, column[-1]))
        columns[pvar] = column
    grid = []
    first = None
    max_dev = Fraction(0)
    for k in range(n_ticks + 1):
        t = k * cfg.wcrt
        ha_values = {v: ideal.value_at(t, v) for v in mapping}
        prog_values = {pvar: columns[pvar][k] for pvar in mapping.values()}
        deviations = [abs(ha_values[var] - prog_values[pvar]) for var, pvar in mapping.items()]
        max_dev = max([max_dev, *deviations])
        diverged = any(deviations)
        grid.append(GridPoint(k, t, ha_values, prog_values, diverged))
        if diverged and first is None:
            first = k
    return DivergenceReport(
        mapping=dict(mapping),
        grid=grid,
        first_divergence_tick=first,
        max_deviation=max_dev,
        mode_switches=list(ideal.steps),
        delayed_mode_switches=list(delayed.steps),
    )


# --- automaton description files ---------------------------------------------------
#
#     var x y
#     location A
#       rate x 1
#       rate y 0
#       inv x <= alpha
#     location B ...
#     init A x = 0, y = 0
#     edge A -> B when x >= alpha label detect delay wcrt
#     edge B -> D when y >= theta label divert reset y = 0
#
# Lines are read with the program's lexer and parser: names and numbers are
# the program's (docs/language.md, "Numeric literals"; no exponent, and a
# keyword is no name), and an expression is its arithmetic over variables
# and bound parameter names, linear in the variables. Rates, `init` values
# and delays are constants. A guard or invariant is a `&&` chain of
# `expr OP expr`, OP in <= < >= > ==. `delay wcrt` marks a controller-delayed
# edge, `delay Q` a fixed one (Q >= 0). Every variable a line names must be
# listed by `var` before it, and every edge must join declared locations.
# A variable, location, rate, initial value, reset or edge field given
# twice is an error, as is a second `init` line. '#' starts a comment.

_COMPARISONS = ("<=", "<", ">=", ">", "==")
_SUM = BINARY.index(("+", "-"))  # an expression is the parser's `+`/`-` level and tighter


def parse_automaton(text: str, params: Optional[dict] = None) -> HybridAutomaton:
    params = {k: Fraction(v) for k, v in (params or {}).items()}
    variables: dict = {}  # name -> None, in declaration order
    blocks: dict = {}  # location name -> (rates, invariant)
    block = None  # the block that `rate` and `inv` lines add to
    edges: list = []  # (line number, Edge)
    init = None  # (line number, location name, valuation)
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        try:
            reader = _LineReader(line, variables, params)
            head = reader.take().text
            if head == "var":
                while not reader.at_end():
                    _put(variables, reader.expect_name().text, None, "variable")
            elif head == "location":
                block = _put(blocks, reader.expect_name().text, ({}, []), "location")
            elif head in ("rate", "inv"):
                if block is None:
                    raise AutomatonError(f"{head} line outside a location")
                if head == "rate":
                    _put(block[0], reader.variable(), reader.constant(), "rate of")
                else:
                    block[1].extend(reader.conjunction())
            elif head == "init":
                if init is not None:
                    raise AutomatonError(f"second init line, the first is line {init[0]}")
                block = None
                name = reader.expect_name().text
                valuation = {}
                if not reader.at_end():
                    valuation = reader.assignments(reader.constant, "initial value of")
                init = (number, name, valuation)
            elif head == "edge":
                block = None
                edges.append((number, reader.edge()))
            else:
                raise AutomatonError(f"unrecognized line: {line!r}")
            if not reader.at_end():
                raise AutomatonError(f"unexpected {reader.peek().text!r}")
        except (AutomatonError, CompileError) as err:
            raise AutomatonError(err.message, number) from None
        except RecursionError:
            raise AutomatonError("nested too deep to parse", number) from None
    for number, edge in edges:
        for name in (edge.source, edge.target):
            if name not in blocks:
                raise AutomatonError(f"unknown location {name!r} in edge", number)
    if init is None:
        raise AutomatonError("no init line")
    number, initial_location, valuation = init
    for var in variables:
        valuation.setdefault(var, Fraction(0))
    locations = {
        name: Location(name, rates, tuple(inv)) for name, (rates, inv) in blocks.items()
    }
    try:
        return HybridAutomaton(
            tuple(variables), locations, tuple(edge for _, edge in edges),
            initial_location, valuation,
        )
    except AutomatonError as err:  # the initial location and valuation
        raise AutomatonError(err.message, number) from None


def _put(table: dict, key: str, value, what: str):
    """Enter `value` under `key`, which `table` must not hold yet; `what`
    names the key in the error."""
    if key in table:
        raise AutomatonError(f"{what} {key!r} defined twice")
    table[key] = value
    return value


class _LineReader(_Parser):
    """One line of an automaton file, read with the program's parser; its
    expressions fold to `LinExpr`s over `variables`, and every other name
    in them must be one of the bound `params`."""

    def __init__(self, line: str, variables: dict, params: dict):
        if "//" in line:  # the program lexer would drop the rest as a comment
            raise AutomatonError("unexpected '//'")
        super().__init__(lex(line))
        self.variables = variables
        self.params = params

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def variable(self) -> str:
        name = self.expect_name().text
        if name not in self.variables:
            raise AutomatonError(f"unknown variable {name!r}")
        return name

    def linear(self) -> LinExpr:
        return self._fold(self.parse_expr(_SUM), self.variables)

    def constant(self) -> Fraction:
        return self._fold(self.parse_expr(_SUM), ()).const

    def _fold(self, expr, variables) -> LinExpr:
        if isinstance(expr, NumLit):
            return LinExpr.make(expr.value)
        if isinstance(expr, NameRef):
            if expr.name in variables:
                return LinExpr.make(0, {expr.name: 1})
            if expr.name in self.params:
                return LinExpr.make(self.params[expr.name])
            raise AutomatonError(f"unknown constant {expr.name!r}")
        if isinstance(expr, Unary) and expr.op == "-":
            return self._fold(expr.operand, variables).times(-1)
        if isinstance(expr, Binary) and expr.op in ("+", "-", "*"):
            left = self._fold(expr.left, variables)
            right = self._fold(expr.right, variables)
            if expr.op != "*":
                return left.plus(right if expr.op == "+" else right.times(-1))
            if not right.coeffs:
                return left.times(right.const)
            if not left.coeffs:
                return right.times(left.const)
        from .syntax import print_expr  # the printer loads only to word this error

        raise AutomatonError(f"not a linear expression: {print_expr(expr)!r}")

    def conjunction(self) -> tuple:
        """`e OP e && ...` as a tuple of Comparisons."""
        comparisons = []
        while True:
            left = self.linear()
            op = self.take().text
            if op not in _COMPARISONS:
                raise AutomatonError(f"expected a comparison, found {op or 'end of input'!r}")
            comparisons.append(Comparison(left.plus(self.linear().times(-1)), op))
            if not self.at("&&"):
                return tuple(comparisons)
            self.take()

    def assignments(self, read, what: str) -> dict:
        """`v = e, ...` as {v: read()}, each variable once."""
        values: dict = {}
        while True:
            var = self.variable()
            self.expect("=")
            _put(values, var, read(), what)
            if not self.at(","):
                return values
            self.take()

    def edge(self) -> Edge:
        """`SRC -> DST` and then fields, each at most once: `when CMP && ...`,
        `label L`, `reset v = e, ...`, `delay Q|wcrt`, `priority N`."""
        source = self.expect_name().text
        self.expect("-")
        self.expect(">")
        target = self.expect_name().text
        fields: dict = {"guard": (), "resets": ()}  # keyword arguments of Edge
        seen: dict = {}
        while not self.at_end():
            key = self.take().text
            _put(seen, key, None, "edge field")
            if key == "when":
                fields["guard"] = self.conjunction()
            elif key == "label":
                fields["label"] = self.expect_name().text
            elif key == "reset":
                fields["resets"] = tuple(self.assignments(self.linear, "reset of").items())
            elif key == "delay" and self.peek().text == "wcrt":
                self.take()
                fields["delay_wcrt"] = True
            elif key == "delay":
                fields["delay"] = self.constant()
            elif key == "priority":
                fields["priority"] = self.priority()
            else:
                raise AutomatonError(f"unexpected {key!r} in edge")
        return Edge(source, target, **fields)

    def priority(self) -> int:
        negative = self.at("-")
        if negative:
            self.take()
        tok = self.take()
        if tok.kind != "number" or "." in tok.text:
            raise AutomatonError(f"bad priority {tok.text!r}")
        return -int(tok.text) if negative else int(tok.text)
