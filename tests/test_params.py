from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from tickflow.errors import ArgumentError, ParamError
from tickflow.params import bind_params
from tickflow.syntax import parse, pretty_print
from tickflow.syntax.nodes import ContAssign, NumLit, walk_stmt

from helpers import random_program


def test_substitution_replaces_references():
    program = parse("param k = 3;\ncont a;\na = k * 2")
    bound = bind_params(program)
    assign = next(n for n in walk_stmt(bound.root) if isinstance(n, ContAssign))
    assert assign.expr.left == NumLit(F(3))
    assert not bound.params()


def test_explicit_value_overrides_default():
    program = parse("param k = 3;\ncont a;\na = k")
    bound = bind_params(program, {"k": F(7)})
    assign = next(n for n in walk_stmt(bound.root) if isinstance(n, ContAssign))
    assert assign.expr == NumLit(F(7))


def test_default_may_reference_earlier_constant():
    program = parse("param k = 3;\nparam m = k;\ncont a;\na = m")
    bound = bind_params(program)
    assign = next(n for n in walk_stmt(bound.root) if isinstance(n, ContAssign))
    assert assign.expr == NumLit(F(3))


def test_unbound_constant_without_default():
    program = parse("param k;\ncont a;\na = k")
    with pytest.raises(ParamError):
        bind_params(program)
    bind_params(program, {"k": F(1)})


def test_undeclared_binding_rejected():
    program = parse("cont a;\na = 1")
    with pytest.raises(ArgumentError) as err:
        bind_params(program, {"k": F(1), "j": F(2)})
    assert (err.value.name, err.value.message) == ("values", "undefined parameter(s): j, k")


def test_inner_declaration_shadows_constant():
    program = parse("param k = 3;\nsignal S;\nloop { cont k; k = k + 1; pause }")
    bound = bind_params(program)
    assigns = [n for n in walk_stmt(bound.root) if isinstance(n, ContAssign)]
    # the assignment references the continuous variable, not the constant
    assert all(not isinstance(a.expr.left, NumLit) for a in assigns)


def test_rate_folds_after_binding():
    from tickflow.rewrite import RewriteConfig, rewrite_flows

    program = parse("param speed = 3/2;\ncont a;\ndo {a' = speed} until (a <= 6)")
    rewritten = rewrite_flows(bind_params(program), RewriteConfig(F(2)))
    assign = next(n for n in walk_stmt(rewritten.root) if isinstance(n, ContAssign))
    assert assign.expr.right == NumLit(F(3))  # 3/2 * 2


def test_random_program_sources_roundtrip():
    rng = random.Random(42)
    for _ in range(50):
        source, _, _ = random_program(rng)
        program = parse(source)
        assert parse(pretty_print(program)).root == program.root
