"""Two-tick look-ahead that bounds every flow loop.

A flow loop may run one more iteration only if its invariant still holds
two ticks from now. The prediction of where each flow variable will be at
that point comes purely from the site's own rates: reads are previous-tick
snapshots, and any interference from parallel writers is resolved later by
the kernel's end-of-tick combine step. A variable with one rate r moves to
`value + 2*r*wcrt`; simultaneous rates on one variable are folded with its
declared combine operator.

`predictors` is the formula's one home. It folds a site's rates with the
tick length once, when the kernel compiles the site, into one function per
variable from its snapshot to its prediction; the kernel then evaluates the
invariant against the predictions. `delta_combined` applies the same
functions to a valuation directly.
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


def predictors(odes, vars, combine: dict, wcrt: Fraction) -> tuple:
    """Per variable of `vars`, a function from its previous-tick snapshot
    to its value two ticks ahead.

    `odes` are (name, rational rate) pairs and `combine` the operator of
    each variable that has one. A variable with one rate r moves by the
    folded constant 2*r*wcrt. A variable with rates (r1..rm), m > 1, starts
    from a vector of m copies of its snapshot; twice, every entry advances
    by its folded step ri*wcrt, the entries fold with the combine operator,
    and the fold is propagated back into every entry. The second fold is
    the prediction. A variable with no rate, or with several and no
    operator, gets a function that raises when called.
    """
    return tuple(
        _predictor(v, tuple(rate for name, rate in odes if name == v), combine.get(v), wcrt)
        for v in vars
    )


def _predictor(v: str, rates: tuple, op, wcrt: Fraction):
    if len(rates) == 1:
        step = 2 * rates[0] * wcrt
        return lambda value: value + step
    if rates and op is not None:
        steps = tuple(rate * wcrt for rate in rates)

        def predict(value):
            for _ in range(2):
                value = combine_fold(op, [value + step for step in steps])
            return value

        return predict
    if not rates:
        message = f"variable {v!r} has no rate in this site"
    else:
        message = f"variable {v!r} has simultaneous rates but no combine operator"

    def fail(value):
        raise KernelError(message)

    return fail


def delta_combined(odes, vars, combine: dict, vals: dict, wcrt: Fraction) -> dict:
    """Predicted values two ticks ahead, by variable, from the snapshots
    `vals`; see `predictors`."""
    return {
        v: predict(vals[v])
        for v, predict in zip(vars, predictors(odes, vars, combine, wcrt))
    }
