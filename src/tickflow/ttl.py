"""Two-tick look-ahead that bounds every flow loop.

A flow loop may run one more iteration only if its invariant still holds
two ticks from now. `delta_combined` predicts where each flow variable will
be at that point, purely from the site's own rates: reads are previous-tick
snapshots, and any interference from parallel writers is resolved later by
the kernel's end-of-tick combine step. A variable with one rate r moves to
`value + 2*r*wcrt`; simultaneous rates on one variable are folded with its
declared combine operator. The kernel evaluates the invariant against this
prediction with its own evaluator (`kernel._TickCtx._eval_ttl`).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import KernelError


def combine_fold(op: str, values: list) -> Fraction:
    if op == "plus":
        total = values[0]
        for v in values[1:]:
            total = total + v
        return total
    if op == "times":
        total = values[0]
        for v in values[1:]:
            total = total * v
        return total
    raise KernelError(f"unknown combine operator {op!r}")


def delta_combined(odes, vars, combine: dict, vals: dict, wcrt: Fraction) -> dict:
    """Predicted values two ticks ahead, by variable.

    `odes` are (name, rational rate) pairs, `vars` the names to predict,
    `combine` the operator of each variable that has one and `vals` the
    previous-tick snapshots. A variable with rates (r1..rm), m > 1, starts
    from a vector of m copies of its snapshot; twice, every entry advances
    one step, the entries fold with the combine operator, and the fold is
    propagated back into every entry. The second fold is the prediction.
    """
    delta = {}
    for v in vars:
        rates = [rate for name, rate in odes if name == v]
        if not rates:
            raise KernelError(f"variable {v!r} has no rate in this site")
        if len(rates) == 1:
            delta[v] = vals[v] + 2 * rates[0] * wcrt
            continue
        op = combine.get(v)
        if op is None:
            raise KernelError(f"variable {v!r} has simultaneous rates but no combine operator")
        gamma = [vals[v]] * len(rates)
        for _ in range(2):
            tau = combine_fold(op, [g + r * wcrt for g, r in zip(gamma, rates)])
            gamma = [tau] * len(rates)
        delta[v] = tau
    return delta
