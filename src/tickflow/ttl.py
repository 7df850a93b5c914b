"""Two-tick look-ahead that bounds every flow loop.

A flow loop may run one more iteration only if its invariant still holds
two ticks from now. The prediction of where each flow variable will be at
that point comes purely from the site's own rates: reads are previous-tick
snapshots, and any interference from parallel writers is resolved later by
the kernel's end-of-tick combine step. A variable with one rate r moves to
`value + 2*r*wcrt`; simultaneous rates on one variable are folded with its
declared combine operator.

Every prediction an accepted program can reach is affine in the snapshot:
`scale*value + shift` with `scale > 0` (`affine_form`). One rate gives
`(1, 2*r*wcrt)`, and m > 1 rates folded with `op+` give
`(m*m, (m+1)*(r1+..+rm)*wcrt)`, the closed form of folding twice. Because
`scale` is positive, `scale*value + shift <op> c` holds exactly when
`value <op> (c - shift)/scale` does, for each of `<`, `<=`, `>`, `>=`, `==`
and `!=`; the kernel folds the threshold once, when it compiles the
invariant, and tests the snapshot against it with integer arithmetic. The
test is exact: it is the same rational comparison, rearranged.

Several rates under `op*` (reachable only through natively interpreted
flows and hand-written `TTL` calls) have no affine form and keep the
iterated fold; several rates with no operator raise.

`affine_form` is the formula's one home. The kernel compiles each site
once: it computes each variable's form once, tests the invariant against
the folded threshold, and builds a function (`iterated`) only for a
variable that has no affine form.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import KernelError
from .rational import ratio


def combine_fold(op: str, values: list) -> Fraction:
    if op == "plus":
        # the exact sum from integer cross-products, each value read by
        # one as_integer_ratio() and the sum built by one ratio (d, a
        # product of denominators, is positive), without
        # Fraction.__add__'s dispatch per value or Fraction.__new__
        n, d = 0, 1
        for v in values:
            m, q = v.as_integer_ratio()
            n, d = n * q + m * d, d * q
        return ratio(n, d)
    if op == "times":
        total = values[0]
        for v in values[1:]:
            total = total * v
        return total
    raise KernelError(f"unknown combine operator {op!r}")


def affine_form(odes, v: str, op, wcrt: Fraction):
    """`(scale, shift)` such that the prediction of `v` from its snapshot
    is `scale*value + shift`, or None when it is not affine.

    `odes` are the site's (name, rational rate) pairs and `op` the combine
    operator of `v`, if it has one. Rates (r1..rm) folded with `op+` (or a
    single rate, whatever the operator) start from m copies of the
    snapshot; one fold gives `m*value + S` with `S = (r1+..+rm)*wcrt`, and
    the second `m*(m*value + S) + S`.
    """
    rates = [rate for name, rate in odes if name == v]
    m = len(rates)
    if m == 1 or (m > 1 and op == "plus"):
        return m * m, (m + 1) * sum(rates) * wcrt
    return None


def iterated(odes, v: str, op, wcrt: Fraction):
    """The prediction of `v`, which has no affine form, as a function of
    its snapshot. With rates (r1..rm), m > 1, and the operator `op`, it
    starts from a vector of m copies of the snapshot; twice, every entry
    advances by its folded step ri*wcrt, the entries fold with `op`, and
    the fold is propagated back into every entry. The second fold is the
    prediction. A variable with no rate, or with several and no operator,
    gets a function that raises when called."""
    steps = tuple(rate * wcrt for name, rate in odes if name == v)
    if steps and op is not None:

        def predict(value):
            for _ in range(2):
                value = combine_fold(op, [value + step for step in steps])
            return value

        return predict
    if not steps:
        message = f"variable {v!r} has no rate in this site"
    else:
        message = f"variable {v!r} has simultaneous rates but no combine operator"

    def fail(value):
        raise KernelError(message)

    return fail
