"""Two-tick look-ahead that bounds every flow loop.

A flow loop may run one more iteration only if its invariant still holds
two ticks from now. The prediction of where each flow variable will be at
that point comes purely from the site's own rates: reads are previous-tick
snapshots, and any interference from parallel writers is resolved later by
the kernel's end-of-tick combine step. A variable with one rate r moves to
`value + 2*r*wcrt`; simultaneous rates on one variable fold with `op+`,
the one operator the static checks allow them (`syntax.check_program`).

So every prediction is affine in the snapshot: `scale*value + shift` with
`scale > 0` (`affine_form`, the formula's one home). One rate gives
`(1, 2*r*wcrt)`, and m > 1 rates give `(m*m, (m+1)*(r1+..+rm)*wcrt)`, the
closed form of folding twice. Because `scale` is positive,
`scale*value + shift <op> c` holds exactly when `value <op> (c - shift)/scale`
does, for each of `<`, `<=`, `>`, `>=`, `==` and `!=`; the kernel folds the
threshold once, when it compiles the invariant, and tests the snapshot
against it with integer arithmetic. The test is exact: it is the same
rational comparison, rearranged.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import KernelError


def combine_fold(op: str, values: list) -> Fraction:
    if op == "plus":
        return sum(values[1:], values[0])
    if op == "times":
        return prod(values[1:], start=values[0])
    raise KernelError(f"unknown combine operator {op!r}")


def affine_form(odes, v: str, wcrt: Fraction) -> tuple:
    """`(scale, shift)` such that the prediction of `v` from its snapshot
    is `scale*value + shift`.

    `odes` are the site's (name, rational rate) pairs, m >= 1 of them for
    `v`. Rates (r1..rm) folded with `op+` start from m copies of the
    snapshot; one fold gives `m*value + S` with `S = (r1+..+rm)*wcrt`, and
    the second `m*(m*value + S) + S`.
    """
    rates = [rate for name, rate in odes if name == v]
    m = len(rates)
    return m * m, (m + 1) * sum(rates) * wcrt
