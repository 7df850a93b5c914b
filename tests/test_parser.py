from __future__ import annotations

from fractions import Fraction

import pytest

from tickflow.errors import (
    CombineError,
    CompileError,
    InstantaneousLoopError,
    LexError,
    NestingError,
    NonConstantRateError,
    ParseError,
    ResolveError,
    TypeError_,
)
from tickflow.params import bind_params
from tickflow.kernel import run
from tickflow.rewrite import RewriteConfig
from tickflow.syntax import parse, pretty_print
from tickflow.syntax.checks import fold_constant
from tickflow.syntax.nodes import (
    Binary,
    ContAssign,
    ContDecl,
    DoUntil,
    Label,
    Loop,
    NameRef,
    Nothing,
    NumLit,
    Parallel,
    Seq,
    SignalDecl,
)

from conftest import corpus_sources


def test_single_flow_shape():
    program = parse("cont a = 0;\ndo {a' = 1} until (a <= 2)")
    decl = program.root
    assert isinstance(decl, ContDecl)
    assert decl.name == "a"
    assert decl.init == NumLit(Fraction(0))
    flow = decl.body
    assert isinstance(flow, DoUntil)
    assert flow.odes == (("a", NumLit(Fraction(1))),)
    assert flow.invariant == Binary("<=", NameRef("a"), NumLit(Fraction(2)))


def test_smallest_program():
    program = parse("nothing")
    assert isinstance(program.root, Nothing)
    assert program.declared_names() == set()


def test_instantaneous_loop_rejected():
    with pytest.raises(InstantaneousLoopError):
        parse("signal S;\nloop { emit S }")


def test_loop_with_pause_on_one_branch_only_rejected():
    with pytest.raises(InstantaneousLoopError):
        parse("signal S;\nloop { if (S) pause else emit S }")


def test_loop_through_flow_is_fine():
    parse("cont a;\nloop { do {a' = 1} until (a <= 2) }")


def test_multi_declarator_desugars_to_nested_decls():
    program = parse("cont a = 0, b = 0;\npause")
    outer = program.root
    assert isinstance(outer, ContDecl) and outer.name == "a"
    inner = outer.body
    assert isinstance(inner, ContDecl) and inner.name == "b"


def test_declarations_scope_across_parallel():
    program = parse("signal S;\n{pause} || {emit S; pause}")
    decl = program.root
    assert isinstance(decl, SignalDecl)
    assert isinstance(decl.body, Parallel)


def test_semicolon_binds_tighter_than_parallel():
    program = parse("signal S;\npause || pause; emit S")
    par = program.root.body
    assert isinstance(par, Parallel)
    assert isinstance(par.branches[1], Seq)


def test_label_parses_and_is_transparent():
    program = parse("signal S;\nloop A: pause")
    loop = program.root.body
    assert isinstance(loop, Loop)
    assert isinstance(loop.body, Label)
    assert loop.body.name == "A"


def test_empty_then_branch_sugar():
    program = parse("signal S;\nif (S) else emit S;\npause")
    branch = program.root.body.stmts[0]
    assert isinstance(branch.then, Nothing)


def test_omitted_else_sugar():
    program = parse("signal S;\nif (S) emit S;\npause")
    branch = program.root.body.stmts[0]
    assert isinstance(branch.orelse, Nothing)


def test_guard_or_is_boolean_or():
    program = parse("signal S2; signal S3;\nabort (S2 || S3) pause")
    guard = program.root.body.body.guard
    assert isinstance(guard, Binary) and guard.op == "||"


def test_rational_literals():
    program = parse("cont a = 1/2;\na = 0.25;\na = 3")
    decl = program.root
    assert decl.init == NumLit(Fraction(1, 2))
    assert decl.body.stmts[0].expr == NumLit(Fraction(1, 4))


def test_negative_rate():
    program = parse("cont y;\ndo {y' = -1} until (y >= 0)")
    (ode,) = program.root.body.odes
    assert ode[1] == NumLit(Fraction(-1))


def test_undefined_name():
    with pytest.raises(ResolveError):
        parse("emit S")


def test_duplicate_declaration_in_scope():
    with pytest.raises(ResolveError) as err:
        parse("signal S; signal S;\npause")
    assert str(err.value) == "1:11: duplicate declaration of 'S' in this scope"


@pytest.mark.parametrize("source, where", [
    ("signal S, S;\npause", "1:1"),
    ("signal S; pause; cont S;\npause", "1:18"),
    ("{ signal S; emit S; signal S || pause }", "1:21"),
    ("signal S; { pause; param S; param S }", "1:29"),
], ids=("declarators", "after-pause", "par-operand", "nested-block"))
def test_duplicate_declaration_in_one_block_is_refused_where_it_stands(source, where):
    # the items of one brace-block, the declarations leading a `||` included
    with pytest.raises(ResolveError) as err:
        parse(source)
    assert str(err.value) == f"{where}: duplicate declaration of 'S' in this scope"


def test_shadowing_in_nested_scope_is_fine():
    parse("signal S;\nloop { signal S; emit S; pause }")


@pytest.mark.parametrize("source", [
    "signal S; { signal S; pause }",
    "signal S; pause; { signal S; pause }",
    "cont a = 1; { cont a = 2; a = a + 1; pause }; a = a + 1; pause",
    "signal S; { signal S; emit S || pause }",
    "signal S; { signal S } || signal S; pause",
], ids=("block", "after-pause", "cont", "par-in-block", "par-operands"))
def test_block_may_redeclare_a_name_of_its_enclosing_block(source):
    # a brace-block is a scope of its own, as a loop body is
    program = parse(source)
    assert parse(pretty_print(program)) == program
    assert run(program, RewriteConfig(Fraction(1)), max_ticks=4).terminated


def test_inner_declaration_shadows_until_its_block_ends():
    program = parse("cont a = 1; { cont a = 5; pause; a = a + 1; pause }; a = a + 1; pause")
    trace = run(program, RewriteConfig(Fraction(1)), max_ticks=4)
    # the inner `a` is named `a:2`, and a record names it in the tick its
    # scope ends, when the outer `a = a + 1` reads the outer one
    assert [rec.conts for rec in trace.records] == [
        {"a": 1, "a:2": 5}, {"a": 1, "a:2": 6}, {"a": 2, "a:2": 6}, {"a": 2},
    ]


@pytest.mark.parametrize("source", [
    "cont a;\na = " + " + ".join(["1"] * 1500) + ";\npause",
    "".join(f"signal S{i};\n" for i in range(1500)) + "pause",
], ids=("sum", "decls"))
def test_program_the_checks_cannot_walk_is_a_nesting_error(source):
    with pytest.raises(NestingError) as err:
        parse(source)
    assert str(err.value) == "nested too deep to process"


def test_type_errors():
    with pytest.raises(TypeError_):
        parse("cont a;\nif (a) pause else pause")  # numeric used as condition
    with pytest.raises(TypeError_):
        parse("signal S;\n?S = 1")  # value write on a pure signal
    with pytest.raises(TypeError_):
        parse("signal S; cont a;\na = S")  # status into a continuous variable


def test_nested_ttl_rejected():
    inner = "TTL([b' = 1], b <= 3, {b})"
    for source in (
        f"cont a, b;\nif (TTL([a' = 1], a <= 5 && {inner}, {{a}})) pause",
        f"cont a, b;\ndo {{a' = 1}} until (a <= 5 && {inner})",
    ):
        with pytest.raises(TypeError_) as err:
            parse(source)
        assert "inside a flow or TTL invariant" in err.value.message
        assert (err.value.line, err.value.col) == (2, source.splitlines()[1].index("TTL([b") + 1)


def test_ttl_variable_set_must_equal_rate_targets():
    for source in (
        "cont a, b;\nif (TTL([a' = 1], a <= 5 && b <= 0, {a, b})) pause",
        "cont a, b;\nif (TTL([a' = 1, b' = 1], a <= 5, {a})) pause",
        "signal S; cont a;\nif (TTL([a' = 1], a <= 5, {S})) pause",
    ):
        with pytest.raises(TypeError_) as err:
            parse(source)
        assert "must name exactly its rate targets" in err.value.message
        assert (err.value.line, err.value.col) == (2, 5)
    parse("cont a, b;\nif (TTL([a' = 1, b' = 1], a <= 5, {b, a})) pause")


def test_non_constant_rate_rejected():
    # a name, and arithmetic on one: the unary and binary branches of
    # the constancy test
    for rate in ("b", "-b", "1 + b", "b * 2"):
        with pytest.raises(NonConstantRateError) as err:
            parse(f"cont a; cont b;\ndo {{a' = {rate}}} until (a <= 2)")
        assert str(err.value) == "2:1: rate of 'a' does not fold to a constant"


@pytest.mark.parametrize("rate, value", [
    ("2*3", 6), ("-(1 + 1)", -2), ("7 - 3 - 1", 3), ("1/2 + 1/3", Fraction(5, 6)),
])
def test_computed_rate_folds_to_its_value(rate, value):
    program = parse(f"cont a = 0;\ndo {{a' = {rate}}} until (a <= 100)")
    flow = next(node for node in program.walk() if isinstance(node, DoUntil))
    ((_, expr),) = flow.odes
    assert fold_constant(expr) == value
    # a computed default of a constant folds the same way
    bound = bind_params(parse(f"param k = {rate};\ncont a;\na = k"))
    assign = next(node for node in bound.walk() if isinstance(node, ContAssign))
    assert assign.expr == NumLit(Fraction(value))


def test_fold_constant_refuses_a_name():
    with pytest.raises(NonConstantRateError) as err:
        fold_constant(Binary("+", NumLit(Fraction(1)), NameRef("b")))
    assert str(err.value).startswith("expression does not fold to a constant: NameRef(")


# (source, error class, the located message): each check of `check_program`
# that refuses a declaration, a statement or an expression
CHECK_ERRORS = {
    "guard-not-boolean": (
        "cont a;\nabort (a) { pause }", TypeError_, "2:1: preemption guard must be boolean"
    ),
    "suspend-guard-not-boolean": (
        "cont a;\nsuspend (1 + a) { pause }", TypeError_, "2:1: preemption guard must be boolean"
    ),
    "pure-signal-combine": (
        "signal S op+;\npause", TypeError_,
        "1:1: pure signal 'S' cannot carry a combine operator",
    ),
    "pure-signal-initial": (
        "signal S = 1;\npause", TypeError_, "1:1: pure signal 'S' cannot carry an initial value"
    ),
    "boolean-signal-combine": (
        "boolean signal B op+;\npause", TypeError_, "1:1: combine operator on boolean signal 'B'"
    ),
    "cont-boolean-initial": (
        "cont a = true;\npause", TypeError_,
        "1:1: continuous variable 'a' needs a numeric initial value",
    ),
    "param-default-not-constant": (
        "cont c;\nparam k = c;\npause", TypeError_,
        "2:1: default for constant 'k' must itself be constant",
    ),
    "flow-target-signal": (
        "signal S;\ndo {S' = 1} until (true)", TypeError_,
        "2:1: flow target 'S' is not a continuous variable",
    ),
    "boolean-signal-given-number": (
        "boolean signal B;\n?B = 1", TypeError_, "2:1: 'B' holds a boolean value"
    ),
    "int-signal-given-boolean": (
        "int signal S;\n?S = true", TypeError_, "2:1: 'S' holds a numeric value"
    ),
    "value-of-pure-signal": (
        "signal S; cont a;\na = ?S", TypeError_, "2:5: 'S' has no value to read"
    ),
    "not-of-number": ("cont a;\nif (!a) pause", TypeError_, "2:5: '!' needs a boolean operand"),
    "negation-of-status": (
        "signal S; cont a;\na = -S", TypeError_, "2:5: negation needs a numeric operand"
    ),
    "and-of-number": (
        "cont a;\nif (a && true) pause", TypeError_, "2:7: '&&' needs boolean operands"
    ),
    "or-of-number": (
        "signal S; cont a;\nif (S || a) pause", TypeError_, "2:7: '||' needs boolean operands"
    ),
    "equality-of-two-kinds": (
        "signal S;\nif (S == 1) pause", TypeError_, "2:7: '==' needs operands of one kind"
    ),
    "comparison-of-status": (
        "signal S;\nif (S < 1) pause", TypeError_, "2:7: '<' needs numeric operands"
    ),
    "sum-of-status": (
        "signal S; cont a;\na = S + 1", TypeError_, "2:7: '+' needs numeric operands"
    ),
    "product-of-status": (
        "signal S; cont a;\na = 1 * S", TypeError_, "2:7: '*' needs numeric operands"
    ),
    "ttl-target-signal": (
        "signal S;\nif (TTL([S' = 1], true, {S})) pause", TypeError_,
        "2:5: TTL target 'S' is not continuous",
    ),
    "ttl-rate-not-constant": (
        "cont a, b;\nif (TTL([a' = b], a <= 1, {a})) pause", NonConstantRateError,
        "2:5: TTL rate for 'a' is not constant",
    ),
    "ttl-invariant-not-boolean": (
        "cont a;\nif (TTL([a' = 1], a + 1, {a})) pause", TypeError_,
        "2:5: TTL invariant must be boolean",
    ),
}


@pytest.mark.parametrize("name", sorted(CHECK_ERRORS))
def test_check_error_names_its_class_message_and_position(name):
    source, kind, located = CHECK_ERRORS[name]
    with pytest.raises(CompileError) as err:
        parse(source)
    assert type(err.value) is kind
    assert str(err.value) == located


# (source, error class, the located message) of programs that break several
# static rules: the first type error wins, then the first instantaneous loop
# in preorder, then the first simultaneous writer without `op+`
ERROR_ORDER = {
    "type-error-before-an-earlier-loop": (
        "cont x = 0; loop { nothing }; x = true", TypeError_,
        "1:31: cannot assign a bool value to 'x'",
    ),
    "outer-loop-before-inner-loop": (
        "input signal A; loop { if (A) { loop { nothing } } }", InstantaneousLoopError,
        "1:17: loop body has a path that consumes no tick",
    ),
    "loop-before-an-earlier-offender": (
        "cont x = 0; { do {x' = 1} until (x <= 1) || x = 2 }; loop { nothing }",
        InstantaneousLoopError, "1:54: loop body has a path that consumes no tick",
    ),
    "parallel-offender-before-its-branches": (
        "cont x = 0, y = 0; { { do {y' = 1 || y' = 2} until (y <= 9) } "
        "|| do {x' = 1} until (x <= 9) || x = 1 }", CombineError,
        "1:1: continuous variable 'x' has simultaneous writers but no combine operator",
    ),
    "nested-ttl-before-a-later-loop": (
        "cont x = 0; do {x' = 1} until (TTL([x' = 1, x' = 2], x <= 3, {x})); loop { nothing }",
        TypeError_, "1:32: TTL cannot appear inside a flow or TTL invariant",
    ),
}


@pytest.mark.parametrize("name", sorted(ERROR_ORDER))
def test_a_program_breaking_several_rules_reports_the_first_in_check_order(name):
    source, kind, located = ERROR_ORDER[name]
    with pytest.raises(CompileError) as err:
        parse(source)
    assert type(err.value) is kind
    assert str(err.value) == located


def test_lex_error_position():
    with pytest.raises(LexError) as err:
        parse("signal S;\nemit @")
    assert err.value.line == 2


def test_zero_denominator_is_a_located_parse_error():
    with pytest.raises(ParseError) as err:
        parse("cont x = 1/0; x = x + 1; pause")
    assert str(err.value) == "1:10: zero denominator in '1/0'"


def test_only_ascii_digits_make_a_number():
    # '²' passes str.isdigit, but int() cannot read it
    with pytest.raises(LexError) as err:
        parse("cont x = \u00b2; pause")
    assert str(err.value) == "1:10: unexpected character '\u00b2'"


def test_parse_error_expected_found():
    with pytest.raises(ParseError):
        parse("do {a' = 1}")


def test_parse_determinism():
    source = corpus_sources()[0].read_text()
    assert parse(source).root == parse(source).root


# --- simultaneous-writer gate -------------------------------------------------


def test_double_rate_with_plus_accepted():
    parse("cont a op+ = 0;\ndo {a' = 1 || a' = 1} until (a <= 4)")


def test_double_rate_with_times_rejected():
    with pytest.raises(CombineError) as err:
        parse("cont a op* = 0;\ndo {a' = 1 || a' = 1} until (a <= 4)")
    assert str(err.value) == (
        "1:1: continuous variable 'a' combines simultaneous writers with a non-linear operator"
    )


def test_double_rate_without_operator_rejected():
    with pytest.raises(CombineError) as err:
        parse("cont a = 0;\ndo {a' = 1 || a' = 1} until (a <= 4)")
    assert str(err.value) == (
        "1:1: continuous variable 'a' has simultaneous writers but no combine operator"
    )


def test_single_writer_without_operator_accepted():
    parse("cont a = 0;\ndo {a' = 1} until (a <= 2)")


def test_parallel_assignment_plus_flow_needs_operator():
    source = "cont a = 0;\ndo {a' = 1} until (a <= 4) || {a = 1; pause}"
    with pytest.raises(CombineError):
        parse(source)
    parse(source.replace("cont a =", "cont a op+ ="))


def test_combine_offence_comes_after_the_type_checks():
    # the gate runs last: a program with a type error and an offender
    # reports the type error
    with pytest.raises(TypeError_):
        parse("cont a = 0;\ndo {a' = 1 || a' = 1} until (a + 4)")


def test_first_offender_in_preorder_is_reported():
    # the parallel composition's own offender x comes before the do-block's y
    source = (
        "cont x; cont y; { do { x' = 1 } until (x <= 5) "
        "|| { x = 2; do { y' = 1 || y' = 2 } until (y <= 4) } }"
    )
    with pytest.raises(CombineError, match="variable 'x'"):
        parse(source)
    with pytest.raises(CombineError, match="variable 'y'"):
        parse(source.replace("cont x;", "cont x op+;"))


def test_every_corpus_program_parses():
    for path in corpus_sources():
        parse(path.read_text())
