from __future__ import annotations

from fractions import Fraction as F

import pytest

from tickflow.errors import ArgumentError
from tickflow.params import bind_params
from tickflow.rewrite import (
    FlowSite,
    RewriteConfig,
    flow_site,
    rewrite_flows,
    stop_signals,
)
from tickflow.syntax import parse, pretty_print
from tickflow.syntax.nodes import (
    Abort,
    Binary,
    ContAssign,
    If,
    Loop,
    NumLit,
    Pause,
    Seq,
    SignalDecl,
    TtlCall,
    walk_stmt,
)

_PARAMS = {"alpha": F(2), "beta": F(10), "theta": F(6), "TAG": F(1)}

from conftest import corpus_sources


def _rewrite(source: str, wcrt=F(2)):
    return rewrite_flows(parse(source), RewriteConfig(wcrt))


def test_wcrt_must_be_positive():
    with pytest.raises(ArgumentError) as err:
        RewriteConfig(F(0))
    assert (err.value.name, err.value.message) == ("wcrt", "must be strictly positive, got 0")
    with pytest.raises(ArgumentError) as err:
        RewriteConfig(F(-1))
    assert err.value.message == "must be strictly positive, got -1"


def test_single_flow_becomes_bounded_loop():
    rewritten = _rewrite("cont a = 0;\ndo {a' = 1} until (a <= 2)")
    decl = rewritten.root.body  # the generated stop-signal declaration
    assert isinstance(decl, SignalDecl) and decl.pure
    abort = decl.body
    assert isinstance(abort, Abort) and not abort.immediate
    loop = abort.body
    assert isinstance(loop, Loop)
    body = loop.body
    assert isinstance(body, Seq)
    assign, guard, pause = body.stmts
    # the rate-step product is folded: 1 * 2 = 2
    assert assign == ContAssign("a", Binary("+", assign.expr.left, NumLit(F(2))))
    assert isinstance(guard, If)
    assert isinstance(guard.cond.operand, TtlCall)
    assert isinstance(pause, Pause)


def test_two_variable_site_keeps_source_order():
    rewritten = _rewrite(
        "cont a = 0, b = 0;\ndo {a' = 2 || b' = 2} until (a <= 16 && b <= 10)"
    )
    assigns = [
        node for node in walk_stmt(rewritten.root) if isinstance(node, ContAssign)
    ]
    assert [a.name for a in assigns] == ["a", "b"]
    assert all(a.expr.right == NumLit(F(4)) for a in assigns)


def test_multi_rate_site_emits_one_assignment_per_rate():
    rewritten = _rewrite("cont a op+ = 0;\ndo {a' = 1 || a' = 1} until (a <= 4)")
    assigns = [
        node for node in walk_stmt(rewritten.root) if isinstance(node, ContAssign)
    ]
    assert [a.name for a in assigns] == ["a", "a"]
    calls = [
        node
        for s in walk_stmt(rewritten.root)
        if isinstance(s, If)
        for node in [s.cond.operand]
        if isinstance(node, TtlCall)
    ]
    assert len(calls) == 1
    assert calls[0].odes == (("a", NumLit(F(1))), ("a", NumLit(F(1))))
    assert calls[0].vars == ("a",)


def test_free_running_flow_has_no_stop_and_no_lookahead():
    rewritten = _rewrite(
        "signal S; cont a = 0;\nabort (S) { do {a' = 1} until (true) } || {pause; emit S; pause}"
    )
    assert stop_signals(rewritten) == []
    assert not any(
        isinstance(node, TtlCall)
        for stmt in walk_stmt(rewritten.root)
        for _, expr in [(None, getattr(stmt, "cond", None))]
        for node in ([expr] if isinstance(expr, TtlCall) else [])
    )
    loops = [node for node in walk_stmt(rewritten.root) if isinstance(node, Loop)]
    assert any(
        isinstance(loop.body, Seq)
        and isinstance(loop.body.stmts[0], ContAssign)
        and isinstance(loop.body.stmts[-1], Pause)
        for loop in loops
    )


def test_erasure():
    for path in corpus_sources():
        program = parse(path.read_text())
        if program.params():
            program = bind_params(program, _PARAMS)
        rewritten = rewrite_flows(program, RewriteConfig(F(2)))
        assert not rewritten.has_flows()


def test_fresh_names_avoid_user_names():
    source = "cont a = 0; signal __stop1;\ndo {a' = 1} until (a <= 2);\nemit __stop1"
    rewritten = _rewrite(source)
    fresh = [n for n in stop_signals(rewritten)]
    assert "__stop1" in fresh  # the user's own signal is still there
    generated = set(fresh) - {"__stop1"}
    assert len(generated) == 1
    assert generated != {"__stop1"}


def test_idempotence():
    for path in corpus_sources():
        program = parse(path.read_text())
        if program.params():
            program = bind_params(program, _PARAMS)
        once = rewrite_flows(program, RewriteConfig(F(2)))
        twice = rewrite_flows(once, RewriteConfig(F(2)))
        assert once.root == twice.root


def test_flow_site_summary():
    program = parse("cont a op+ = 0;\ndo {a' = 1 || a' = 1} until (a <= 4)")
    site = flow_site(program.root.body.odes)
    assert site.odes == (("a", F(1)), ("a", F(1)))
    assert site.vars == ("a",)
    # the rewritten TTL carries the same folded rates and variable order
    rewritten = _rewrite("cont a op+ = 0, b op+;\ndo {b' = 2 || a' = 1 || b' = 1/2} until (a <= 4)")
    (ttl,) = [s.cond.operand for s in walk_stmt(rewritten.root) if isinstance(s, If)]
    assert flow_site(ttl.odes) == FlowSite((("b", F(2)), ("a", F(1)), ("b", F(1, 2))), ("b", "a"))
    assert ttl.vars == ("b", "a")


def test_rewritten_output_reparses():
    rewritten = _rewrite("cont a = 0;\ndo {a' = 1} until (a <= 2)")
    again = parse(pretty_print(rewritten))
    assert again.root == rewritten.root
