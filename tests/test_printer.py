from __future__ import annotations

from fractions import Fraction

import pytest

from tickflow.params import bind_params
from tickflow.rewrite import RewriteConfig, rewrite_flows, stop_signals
from tickflow.syntax import parse, parse_raw, pretty_print

from conftest import corpus_sources

_PARAM_DEFAULTS = {
    "alpha": Fraction(2),
    "beta": Fraction(10),
    "theta": Fraction(6),
    "TAG": Fraction(1),
}


def _roundtrip(program):
    reparsed = parse(pretty_print(program))
    assert reparsed.root == program.root


def test_roundtrip_whole_corpus():
    for path in corpus_sources():
        _roundtrip(parse(path.read_text()))


def test_roundtrip_is_stable():
    # parse . pretty_print . parse = parse
    for path in corpus_sources():
        program = parse(path.read_text())
        once = pretty_print(program)
        assert pretty_print(parse(once)) == once


def test_roundtrip_rewritten_corpus():
    cfg = RewriteConfig(Fraction(2))
    for path in corpus_sources():
        program = parse(path.read_text())
        if program.params():
            program = bind_params(program, _PARAM_DEFAULTS)
        _roundtrip(rewrite_flows(program, cfg))


def test_nothing_prints_as_nothing():
    assert pretty_print(parse("nothing")) == "nothing\n"


def test_rewritten_flow_prints_abort_and_loop():
    program = parse("cont a = 0;\ndo {a' = 1} until (a <= 2)")
    rewritten = rewrite_flows(program, RewriteConfig(Fraction(2)))
    text = pretty_print(rewritten)
    (stop,) = stop_signals(rewritten)
    assert f"abort ({stop})" in text
    assert "loop" in text
    assert "TTL([a' = 1], a <= 2, {a})" in text


def test_mixed_nesting_roundtrip():
    source = (
        "signal S; cont a op+ = 0;\n"
        "{ A: pause; if (S) a = a + 1/2 else { a = -3; pause } }\n"
        "|| { suspend (immediate S) loop { emit S; pause } }"
    )
    _roundtrip(parse(source))


@pytest.mark.parametrize("source", [
    "signal S; L: { emit S; pause }",
    "signal S; L: M: { emit S; pause }",
    "signal S; L: { emit S; pause } || pause",
    "signal S; abort (S) L: { pause; pause }",
    "signal S; if (S) L: { pause; emit S } else pause",
    "L: { signal T; pause }",
])
def test_label_block_roundtrip(source):
    # a label's sequence or declaration prints braced, as it was parsed
    _roundtrip(parse(source))


@pytest.mark.parametrize("source", [
    # `&&` and `||` where an assigned expression is read
    "input signal A, C; boolean signal B; ?B = (A && C)",
    "input signal A, C; boolean signal B; ?B = (A || C); pause",
    "cont x = 0; x = (x || 1)",
    "input signal A, C; boolean signal B = (A && C); pause",
    "param k = (1 || 2); cont x = k; pause",
    "cont x = 0; do {x' = (1 && 2)} until (x < 1)",
    "cont x = 0; if (TTL([x' = (1 || 2)], x < 1, {x})) pause",
    # a comparison as a comparison's left operand
    "input signal A, B, C; if ((A == B) == C) pause",
    "cont x = 0; do {x' = 1} until ((x < 1) == (x > 2))",
    "cont x = 0; if (TTL([x' = 1], (x < 1) == (x > 2), {x})) pause",
])
def test_bracketed_operands_roundtrip(source):
    # the round trip is syntactic, so shapes the static checks refuse (a
    # boolean rate, a default that is no constant) are read back unchecked
    program = parse_raw(source)
    assert parse_raw(pretty_print(program)).root == program.root
