"""Node shapes: every child field is declared in its class's SHAPE, and
`rebuild` with identity functions gives back an equal node."""

from __future__ import annotations

from fractions import Fraction as F

from tickflow.params import bind_params
from tickflow.rewrite import RewriteConfig, rewrite_flows
from tickflow.syntax import parse
from tickflow.syntax.nodes import (
    EXPR, ODES, STMT, STMTS, ContDecl, Emit, Expr, ParamDecl, Pause, Program, Seq, SignalDecl,
    Stmt, rebuild,
)

from conftest import corpus_sources

_PARAMS = {"alpha": F(2), "beta": F(10), "theta": F(6), "TAG": F(1)}
# no corpus program suspends or gives a constant a default
_EXTRA = "param k = 2; input signal S; cont x; suspend (S) { do { x' = k } until (x <= 3) }"


def _kind(value):
    """The child kind a field value has, or None when it holds no node."""
    if isinstance(value, Expr):
        return EXPR
    if isinstance(value, Stmt):
        return STMT
    if isinstance(value, tuple) and value:
        if all(isinstance(item, Stmt) for item in value):
            return STMTS
        if all(
            isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], Expr)
            for item in value
        ):
            return ODES
    return None


def _nodes(node):
    """Every node under `node`, found through its declared fields and not
    through its SHAPE."""
    yield node
    for name in node.FIELDS:
        value = getattr(node, name)
        for item in value if isinstance(value, tuple) else (value,):
            for sub in item if isinstance(item, tuple) else (item,):
                if isinstance(sub, (Expr, Stmt)):
                    yield from _nodes(sub)


def _trees():
    sources = [(path.name, path.read_text()) for path in corpus_sources()]
    for name, source in sources + [("extra", _EXTRA)]:
        program = parse(source)
        yield name, program.root
        params = {k: v for k, v in _PARAMS.items() if k in program.declared_names()}
        bound = bind_params(program, params)
        for wcrt in (F(1), F(1, 3)):
            yield name, rewrite_flows(bound, RewriteConfig(wcrt)).root


def test_every_child_field_is_in_its_shape():
    seen = set()
    for name, root in _trees():
        for node in _nodes(root):
            seen.add(type(node).__name__)
            assert "pos" not in node.SHAPE and set(node.SHAPE) <= set(node.FIELDS), (name, node)
            for field in node.FIELDS:
                kind = _kind(getattr(node, field))
                if kind is not None:
                    assert node.SHAPE.get(field) == kind, (name, type(node), field)
                elif field in node.SHAPE:
                    assert node.SHAPE[field] == EXPR and getattr(node, field) is None
    concrete = {cls.__name__ for base in (Expr, Stmt) for cls in base.__subclasses__()}
    assert seen == concrete


def test_rebuild_with_identities_returns_an_equal_node():
    def same(node):
        return node

    for name, root in _trees():
        for node in _nodes(root):
            assert rebuild(node, same, same) == node, (name, node)


def test_walk_follows_a_declaration_chain_past_the_recursion_limit():
    # 5,000 declarations, built without the parser: an input signal, a
    # continuous variable and a named constant in turn, around a Seq
    root = Seq((Emit("S0"), Pause()))
    for i in reversed(range(5000)):
        if i % 3 == 0:
            root = SignalDecl("input", None, f"S{i}", None, None, root)
        elif i % 3 == 1:
            root = ContDecl(f"c{i}", None, None, root)
        else:
            root = ParamDecl(f"p{i}", None, root)
    program = Program(root)
    walked = list(program.walk())
    assert len(walked) == 5003
    assert [node.name for node in walked[:4]] == ["S0", "c1", "p2", "S3"]  # preorder
    assert [type(node) for node in walked[-3:]] == [Seq, Emit, Pause]
    assert len(list(program.declarations())) == 5000
    assert len(program.params()) == 1666
    assert len(program.inputs()) == 1667
