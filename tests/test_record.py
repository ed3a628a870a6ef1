"""Immutable records: fixed fields, equality within one class, hashing and
printing."""

import pytest

from slackkit.record import Record


class Point(Record):
    _fields = ("x", "y")

    def __init__(self, x, y) -> None:
        self._set(x, y)


class Pair(Record):
    _fields = ("x", "y")

    def __init__(self, x, y) -> None:
        self._set(x, y)


def test_a_field_cannot_be_assigned_or_deleted():
    p = Point(1, 2)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        p.x = 3
    with pytest.raises(AttributeError, match="cannot delete field 'y'"):
        del p.y
    assert (p.x, p.y) == (1, 2)


def test_hash_and_repr_read_the_fields():
    assert hash(Point(1, (2, 3))) == hash((1, (2, 3)))
    assert repr(Point(1, "a")) == "Point(x=1, y='a')"


def test_records_of_two_classes_are_not_equal():
    assert Point(1, 2) == Point(1, 2)
    assert Point(1, 2) != Pair(1, 2)
    assert Pair(1, 2) != Point(1, 2)
