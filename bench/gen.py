"""Seeded program generators for the `flow_bank` and `fault_search` workloads.

Each generator returns the program text the system receives, together with
the known answers the benchmark checks against. The answers are derived
here from the generator's own construction, with plain `Fraction`
arithmetic; nothing in this file imports the system under test.

The seed chooses the rates, bounds and invariant slack. The shape of each
program (branch count, flow periods, tick bound) is fixed, so the amount of
work an operation does is the same for every seed and run-to-run spread
reflects the machine, not the input.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction as F


def _rat(value: F) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _rate(rng: random.Random) -> F:
    return F(rng.randint(1, 9), rng.randint(1, 4))


def _peak_and_next(rates: list, wcrt: F, period: int) -> tuple:
    """Values v_P and v_{P+1} of one flow cycle. With m simultaneous rates
    folded by op+, every rate writes v + r*wcrt, so
    v_{k+1} = m*v_k + sum(rates)*wcrt, from v_0 = 0."""
    values = flow_cycle(rates, wcrt, period + 1)
    return values[period - 1], values[period]


def flow_cycle(rates: list, wcrt: F, length: int) -> list:
    """v_1 .. v_length of a flow started from 0."""
    m, step = len(rates), sum(rates) * wcrt
    values, v = [], F(0)
    for _ in range(length):
        v = m * v + step
        values.append(v)
    return values


# --- flow_bank ---------------------------------------------------------------


@dataclass(frozen=True)
class FlowBranch:
    var: str
    rates: tuple  # one rate, or two folded with op+
    bound: F  # invariant: var <= bound
    period: int  # flow ticks per cycle before the reset tick

    def expected(self, wcrt: F) -> list:
        """Settled values over one cycle: the flow ticks, then the reset.
        The flow stops after v_P because the two-tick look-ahead predicts
        v_{P+1} > bound; the reset tick writes 0."""
        return flow_cycle(list(self.rates), wcrt, self.period) + [F(0)]


@dataclass(frozen=True)
class FlowBank:
    source: str
    wcrt: F
    branches: tuple

    def expected_value(self, branch: FlowBranch, tick: int) -> F:
        cycle = branch.expected(self.wcrt)
        return cycle[(tick - 1) % len(cycle)]


# Periods fixed per branch: single-rate flows grow linearly, two-rate flows
# double every tick, so those get shorter cycles to keep rationals small.
FLOW_BANK_PERIODS = (8, 5, 10, 6, 12, 7)
FLOW_BANK_WCRT = F(1, 3)


def flow_bank(seed: int) -> FlowBank:
    """N parallel plant branches, each a looping bounded flow reset to 0
    after it stops. Odd branches carry two simultaneous rates folded with
    op+, so the combined look-ahead runs on every tick."""
    rng = random.Random(seed)
    wcrt = FLOW_BANK_WCRT
    branches = []
    for i, period in enumerate(FLOW_BANK_PERIODS):
        rates = (_rate(rng), _rate(rng)) if i % 2 else (_rate(rng),)
        peak, nxt = _peak_and_next(list(rates), wcrt, period)
        bound = peak + (nxt - peak) * F(rng.randint(0, 9), 10)
        branches.append(FlowBranch(f"x{i}", rates, bound, period))
    decls = "".join(
        f"cont {b.var}{' op+' if len(b.rates) > 1 else ''} = 0;\n" for b in branches
    )
    bodies = []
    for b in branches:
        odes = " || ".join(f"{b.var}' = {_rat(r)}" for r in b.rates)
        bodies.append(
            f"{{ loop {{ do {{{odes}}} until ({b.var} <= {_rat(b.bound)}); "
            f"{b.var} = 0; pause }} }}"
        )
    source = f"// flow_bank seed {seed}\n" + decls + "\n|| ".join(bodies) + "\n"
    return FlowBank(source, wcrt, tuple(branches))


# --- fault_search ------------------------------------------------------------


@dataclass(frozen=True)
class FaultSearch:
    source: str
    wcrt: F
    bound: int
    target: str


FAULT_PERIODS = (2, 3, 4)
FAULT_BOUND = 3
FAULT_WCRT = F(1)


def fault_search(seed: int) -> FaultSearch:
    """k free pure fault inputs, each preempting and resetting its own flow,
    and an ALARM that fires when some z_i reaches L_i = r_i*wcrt*(bound+1).

    Why ALARM cannot settle present at any tick t <= bound: z_i starts at 0
    and each tick either adds r_i*wcrt (one flow write) or writes 0 (the
    reset), so z_i <= r_i*wcrt*t after tick t. The alarm test at tick t
    reads the settled values of tick t-1, which are below L_i."""
    rng = random.Random(seed)
    wcrt, bound = FAULT_WCRT, FAULT_BOUND
    decls, bodies, alarms = [], [], []
    for i, period in enumerate(FAULT_PERIODS):
        fault, var = f"F{i}", f"z{i}"
        rate = _rate(rng)
        peak, nxt = _peak_and_next([rate], wcrt, period)
        limit = peak + (nxt - peak) * F(rng.randint(0, 9), 10)
        decls.append(f"input signal {fault};\ncont {var} = 0;\n")
        bodies.append(
            f"{{ loop {{ abort ({fault}) {{ do {{{var}' = {_rat(rate)}}} "
            f"until ({var} <= {_rat(limit)}) }}; {var} = 0; pause }} }}"
        )
        alarms.append(f"{var} >= {_rat(rate * wcrt * (bound + 1))}")
    decls.append("signal ALARM;\n")
    bodies.append(f"{{ loop {{ if ({' || '.join(alarms)}) emit ALARM; pause }} }}")
    source = f"// fault_search seed {seed}\n" + "".join(decls) + "\n|| ".join(bodies) + "\n"
    return FaultSearch(source, wcrt, bound, "ALARM")
