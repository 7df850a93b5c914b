from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from tickflow.errors import CombineError, ResolveError
from tickflow.kernel import InputAssignment, run
from tickflow.rational import format_rational
from tickflow.rewrite import RewriteConfig, rewrite_flows
from tickflow.syntax import parse
from tickflow.syntax.parser import parse_raw
from tickflow.ttl import affine_form, combine_fold

from helpers import prediction


def _holds(decls: str, ttl: str, wcrt=F(2)) -> bool:
    """Whether the look-ahead `ttl` holds on the first tick of a program
    that declares `decls` and only evaluates it."""
    cfg = RewriteConfig(wcrt)
    program = rewrite_flows(parse(f"{decls}\nsignal HOLDS;\nif ({ttl}) emit HOLDS;\npause"), cfg)
    return run(program, cfg, max_ticks=1).status("HOLDS", 1)


def test_lookahead_breaks_small_bound():
    # from 0 at rate 1 with a 2-unit step, two ticks ahead is 4
    odes = (("a", F(1)),)
    predict = prediction(odes, "a", F(2))
    assert predict(F(0)) == F(4)
    assert _holds("cont a = 0;", "TTL([a' = 1], a <= 2, {a})") is False
    assert _holds("cont a = 0;", "TTL([a' = 1], a <= 4, {a})") is True


def test_zero_rate_never_violates():
    assert _holds("cont a = 0;", "TTL([a' = 0], a <= 2, {a})") is True
    cfg = RewriteConfig(F(2))
    program = rewrite_flows(parse("cont a = 0;\ndo {a' = 0} until (a <= 2)"), cfg)
    assert not run(program, cfg, max_ticks=50).terminated


def test_pair_prediction():
    odes = (("a", F(2)), ("b", F(2)))
    predict_a, predict_b = (prediction(odes, v, F(2)) for v in ("a", "b"))
    assert (predict_a(F(4)), predict_b(F(4))) == (F(12), F(12))
    ttl = "TTL([a' = 2, b' = 2], a <= 16 && b <= 10, {a, b})"
    assert _holds("cont a = 4, b = 4;", ttl) is False
    assert (predict_a(F(0)), predict_b(F(0))) == (F(8), F(8))
    assert _holds("cont a = 0, b = 0;", ttl) is True


def test_combined_prediction_folds_twice():
    odes = (("a", F(1)), ("a", F(1)))
    predict = prediction(odes, "a", F(2))
    assert predict(F(0)) == F(12)
    assert _holds("cont a op+ = 0;", "TTL([a' = 1, a' = 1], a <= 4, {a})") is False
    assert _holds("cont a op+ = 0;", "TTL([a' = 1, a' = 1], a <= 12, {a})") is True
    assert _holds("cont a op+ = 0;", "TTL([a' = 1, a' = 1], a <= 100, {a})") is True


def test_combined_missing_operator():
    # several rates of one variable in a TTL call need `op+`, as a flow's do
    source = "cont a = 0;\nif (TTL([a' = 1, a' = 1], a <= 4, {a})) pause else pause"
    with pytest.raises(CombineError) as err:
        parse(source)
    assert str(err.value) == (
        "2:5: continuous variable 'a' has simultaneous writers but no combine operator"
    )


def test_single_writer_degeneration_randomized():
    # one rate: the prediction is the closed form value + 2*rate*wcrt, and
    # the kernel's look-ahead binds exactly that value
    rng = random.Random(20240917)
    for _ in range(100):
        rate = F(rng.randint(-50, 50), rng.randint(1, 9))
        value = F(rng.randint(-100, 100), rng.randint(1, 7))
        wcrt = rng.choice([F(1), F(1, 2), F(2), F(3)])
        expected = value + 2 * rate * wcrt
        predict = prediction((("a", rate),), "a", wcrt)
        assert predict(value) == expected
        ttl = f"TTL([a' = {format_rational(rate)}], a == {format_rational(expected)}, {{a}})"
        assert _holds(f"cont a = {format_rational(value)};", ttl, wcrt) is True


def test_holds_at_delta_values():
    # the invariant sees the prediction two ticks out, not the snapshot
    assert _holds("cont a = 0;", "TTL([a' = 2], a <= 2, {a})", F(1)) is False
    assert _holds("cont a = 0;", "TTL([a' = 2], a == 4, {a})", F(1)) is True
    assert _holds("cont a = 0;", "TTL([a' = 2], true, {a})", F(1)) is True
    ttl = "TTL([a' = 4, b' = 4], a <= 16 && b <= 10, {a, b})"
    assert _holds("cont a = 0, b = 0;", ttl, F(1)) is True


def test_holds_at_delta_unbound_name():
    source = "cont a = 0;\nif (TTL([a' = 1], a <= q, {a})) pause else pause"
    with pytest.raises(ResolveError):
        parse(source)
    # unchecked, it fails the same check when the kernel compiles it
    with pytest.raises(ResolveError) as err:
        run(parse_raw(source), RewriteConfig(F(2)), max_ticks=1)
    assert str(err.value) == "2:24: undefined name 'q'"


def test_holds_at_delta_signal_lookup():
    # a signal in the invariant reads its previous-tick status; the
    # predicted variable is bound to its prediction and logged as no read
    source = (
        "input signal OK; signal HOLDS; cont a = 0;\n"
        "loop { if (TTL([a' = 1], a <= 2 && OK, {a})) emit HOLDS; pause }"
    )
    schedule = {1: InputAssignment.make(present=["OK"])}
    trace = run(parse(source), RewriteConfig(F(1)), schedule, max_ticks=3, record_reads=True)
    assert [trace.status("HOLDS", t) for t in (1, 2, 3)] == [False, True, False]
    assert [entry for entry in trace.read_log if entry[0] == 2] == [
        (2, "a", "value", F(0)),
        (2, "OK", "status", True),
    ]


def _iterated(value, rates, wcrt):
    """The look-ahead by its definition: m copies of the snapshot; twice,
    every entry advances by its own step, the entries fold with `op+`, and
    the fold is propagated back into every entry."""
    entries = [value] * len(rates)
    for _ in range(2):
        entries = [entry + rate * wcrt for entry, rate in zip(entries, rates)]
        entries = [sum(entries)] * len(rates)
    return entries[0]


def test_affine_form_matches_the_iterated_definition_randomized():
    rng = random.Random(20261018)
    for _ in range(300):
        m = rng.randint(1, 4)
        rates = [F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(m)]
        value = F(rng.randint(-50, 50), rng.randint(1, 5))
        wcrt = F(rng.randint(1, 4), rng.randint(1, 3))
        odes = tuple(("a", rate) for rate in rates) + (("b", F(1)),)
        scale, shift = affine_form(odes, "a", wcrt)
        assert scale > 0 and scale * value + shift == _iterated(value, rates, wcrt)


def test_op_plus_fold_is_fraction_addition():
    # the fold sums from integer cross-products and builds one Fraction: it
    # must be exactly the Fraction sum, in lowest terms, for 2 to 5 values
    # with negative values and non-unit denominators, a zero sum included
    rng = random.Random(7)
    cases = [[F(1, 2), F(-1, 2)], [F(-3), F(5, 6), F(7, 4)], [F(2, 9)] * 5]
    for _ in range(200):
        cases.append([
            F(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 9, 25)))
            for _ in range(rng.randint(2, 5))
        ])
    for values in cases:
        want = values[0]
        for v in values[1:]:
            want = want + v
        got = combine_fold("plus", values)
        assert got.__class__ is F, values
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator), values
