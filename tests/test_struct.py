"""The record base class: fields, equality, hashing, immutability, replace
and repr, on syntax nodes and records of its own."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from tickflow.struct import Struct, replace
from tickflow.syntax.nodes import Binary, Emit, NameRef, NumLit, Pause, Seq
from tickflow.trace import TickRecord


class _Base(Struct, frozen=False):
    UNCOMPARED = ("note",)
    note: str


class _Derived(_Base):
    left: int
    right: int = 0


def test_fields_are_read_in_order_bases_first():
    assert Binary.FIELDS == ("op", "left", "right", "pos")
    assert _Derived.FIELDS == ("note", "left", "right")
    assert Struct.FIELDS == ()


def test_nodes_that_differ_only_in_pos_are_equal_and_hash_equal():
    a = Binary("+", NameRef("x", pos=(1, 1)), NumLit(F(2), (1, 5)), pos=(1, 1))
    b = Binary("+", NameRef("x", pos=(7, 3)), NumLit(F(2)), pos=None)
    assert a == b and hash(a) == hash(b)
    assert Pause((1, 1)) == Pause((2, 2)) and hash(Pause((1, 1))) == hash(Pause())
    assert a != Binary("-", NameRef("x"), NumLit(F(2)))
    assert NameRef("x") != Emit("x")  # another class is never equal


def test_records_that_differ_only_in_uncompared_fields_are_equal():
    a, b = _Derived("first", 1), _Derived("second", 1, right=0)
    assert a == b and hash(a) == hash(b)
    assert a != _Derived("first", 1, 2)
    b.note = "changed"  # a mutable record's base is mutable too
    assert b.note == "changed" and a == b


def test_assigning_or_deleting_a_node_field_raises():
    node = NameRef("x", (1, 1))
    with pytest.raises(AttributeError):
        node.name = "y"
    with pytest.raises(AttributeError):
        node.pos = None
    with pytest.raises(AttributeError):
        del node.name
    assert node.name == "x" and node.pos == (1, 1)


def test_arguments_by_position_name_and_default():
    assert NumLit(F(1)).pos is None
    assert NumLit(value=F(1), pos=(3, 4)).pos == (3, 4)
    for args, kwargs in (((), {}), ((F(1), None, 3), {}), ((F(1),), {"value": F(2)}),
                         ((F(1),), {"colour": 3})):
        with pytest.raises(TypeError):
            NumLit(*args, **kwargs)


class _Shown(Struct):
    name: str
    shown: str
    shown = property(lambda self: self.name.upper())


def test_a_descriptor_named_like_a_field_is_no_default():
    # a property named like a field is no plain value: the field has no
    # default, and a record's table properties give it none either
    assert _Shown._DEFAULTS == {} and TickRecord._DEFAULTS == {}
    with pytest.raises(TypeError, match="missing argument 'shown'"):
        _Shown("a")


def test_replace_keeps_the_class_and_the_uncompared_fields():
    seq = Seq((Pause((2, 1)), Emit("S", (3, 1))), pos=(2, 1))
    changed = replace(seq, stmts=(Emit("T", (4, 1)), Pause((5, 1))))
    assert type(changed) is Seq and changed.pos == (2, 1)
    assert changed.stmts[0] == Emit("T") and seq.stmts[0] == Pause()
    record = _Derived("kept", 1, 2)
    moved = replace(record, right=3)
    assert type(moved) is _Derived and moved.note is record.note and moved.right == 3
    with pytest.raises(TypeError):
        replace(seq, colour=3)


def test_repr_names_the_class_and_every_field():
    assert repr(NameRef("x", (1, 2))) == "NameRef(name='x', pos=(1, 2))"
    assert repr(Binary("*", NumLit(F(1, 2)), NameRef("y"))) == (
        "Binary(op='*', left=NumLit(value=Fraction(1, 2), pos=None), "
        "right=NameRef(name='y', pos=None), pos=None)"
    )
    assert repr(_Derived("n", 1)) == "_Derived(note='n', left=1, right=0)"
