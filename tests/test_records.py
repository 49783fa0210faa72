"""The record contract, and equality, hashing and repr of the values.

Every library class with fields builds on rings.Record: its fields are
named once, in __slots__, assigning or deleting one raises, and repr
hides the private fields and those named in _unshown.  A plain record
has no __init__ of its own and is built positionally, one value per
field.  Values over rings built apart compare, hash and print alike.
"""
import importlib
import pkgutil
import re

import pytest

import gensplines
from gensplines.analysis import DecompositionReport
from gensplines.rings import INTEGERS, INTEGERS_MOD, POLY_RATIONAL, Ideal, Record, RingSpec
from gensplines.splines import Spline

from conftest import make_graph, triangle_z

for module in pkgutil.iter_modules(gensplines.__path__):
    importlib.import_module(f"gensplines.{module.name}")


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


RECORDS = sorted(subclasses(Record), key=lambda cls: cls.__name__)
PLAIN = [cls for cls in RECORDS if "__init__" not in vars(cls)]

# an instance of each record whose own __init__ validates, derives or
# supplies defaults
BUILT = {
    "RingSpec": lambda: RingSpec(INTEGERS_MOD, 12),
    "RingElement": lambda: RingSpec(INTEGERS).element(3),
    "Ideal": lambda: Ideal([RingSpec(INTEGERS).element(4), RingSpec(INTEGERS).element(6)]),
    "EdgeLabeledGraph": triangle_z,
    "Spline": lambda: Spline(triangle_z(), {v: RingSpec(INTEGERS).element(30)
                                            for v in ("v1", "v2", "v3")}),
    "DecompositionReport": lambda: DecompositionReport("union", (), True),
}


class Sentinel:
    def __init__(self, i):
        self.i = i

    def __repr__(self):
        return f"<field {self.i}>"


def fields(cls):
    return [name for name in cls.__slots__ if name != "__dict__"]


def hidden(cls, name):
    return name[0] == "_" or name in cls._unshown


def sentinel_record(cls):
    values = [Sentinel(i) for i in range(len(fields(cls)))]
    return cls(*values), values


def instance(cls):
    return sentinel_record(cls)[0] if cls in PLAIN else BUILT[cls.__name__]()


def test_every_record_is_covered():
    # a new record with an __init__ of its own needs an instance in BUILT
    assert len(RECORDS) == 15
    assert {cls.__name__ for cls in RECORDS if cls not in PLAIN} == set(BUILT)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestEveryRecord:
    def test_its_base_is_record_itself(self, cls):
        assert cls.__bases__ == (Record,)

    def test_its_fields_are_set_through_its_own_setters(self, cls):
        record = instance(cls)
        assert "_setters" in vars(cls) and len(cls._setters) == len(fields(cls))
        for name in fields(cls):
            getattr(record, name)  # set: an unset slot raises AttributeError

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = instance(cls)
        before = [getattr(record, name) for name in fields(cls)]
        for name in fields(cls) + ["extra"]:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(record, name)
        assert [getattr(record, name) for name in fields(cls)] == before

    def test_repr_hides_private_and_unshown_fields(self, cls):
        text = repr(instance(cls))
        assert not [name for name in fields(cls) if hidden(cls, name) and f"{name}=" in text]


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
class TestPlainRecords:
    def test_positional_values_round_trip(self, cls):
        record, values = sentinel_record(cls)
        assert [getattr(record, name) for name in fields(cls)] == values
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields(cls), values)
                          if not hidden(cls, name))
        assert repr(record) == f"{cls.__name__}({shown})"

    def test_a_wrong_count_raises_type_error(self, cls):
        k = len(fields(cls))
        for values in ([None] * (k - 1), [None] * (k + 1)):
            message = f"{cls.__name__} takes {k} fields, got {len(values)}"
            with pytest.raises(TypeError, match=re.escape(message)):
                cls(*values)

    def test_fields_are_not_taken_by_keyword(self, cls):
        with pytest.raises(TypeError):
            cls(**dict.fromkeys(fields(cls)))


# each ring built apart on every call, with values of which the first
# two are equal in that ring and the third differs
RINGS = {
    "Z": (lambda: RingSpec(INTEGERS), [5, 5, -3]),
    "Z/12": (lambda: RingSpec(INTEGERS_MOD, 12), [5, 17, 0]),
    "Q[x]": (lambda: RingSpec(POLY_RATIONAL), [["1/2", 0, 3], ["2/4", "0", "3"], [1, 2]]),
}
# generator lists with one canonical generator, and its repr
IDEALS = {
    "Z": ([[4, 6], [2], [-2], [6, 4, 10]], "<2>"),
    "Z/12": ([[8], [4], [4, 0], [20]], "<4>"),
    "Q[x]": ([[[-2, 2]], [[-1, 1]], [[-1, 0, 1], [0, -1, 1]]], "<x - 1>"),
}
ELEMENT_REPR = {"Z": "<Z: 5>", "Z/12": "<Z/12: 5>", "Q[x]": "<Q[x]: 3x^2 + 1/2>"}


@pytest.mark.parametrize("name", RINGS)
class TestValuesBuiltApart:
    def test_rings_are_equal_and_hash_equal(self, name):
        build, _ = RINGS[name]
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)

    def test_values_are_equal_hash_equal_and_collapse(self, name):
        build, values = RINGS[name]
        a = [build().element(v) for v in values]
        b = [build().element(v) for v in values]
        assert a == b and [hash(x) for x in a] == [hash(x) for x in b]
        assert a[0] == a[1] and hash(a[0]) == hash(a[1]) and a[0] != a[2]
        assert set(a) | set(b) == {a[0], a[2]} and len(set(a) | set(b)) == 2
        keys = {x: i for i, x in enumerate(a)}
        assert len(keys) == 2 and keys[b[0]] == 1 and keys[b[2]] == 2

    def test_element_repr(self, name):
        build, values = RINGS[name]
        assert repr(build().element(values[0])) == ELEMENT_REPR[name]
        assert [repr(build().element(v)) for v in values[:2]] == [ELEMENT_REPR[name]] * 2

    def test_ideals_with_one_canonical_generator_are_equal(self, name):
        build, _ = RINGS[name]
        lists, text = IDEALS[name]
        ideals = [Ideal([build().element(g) for g in gens]) for gens in lists]
        assert all(ideal == ideals[0] and hash(ideal) == hash(ideals[0]) for ideal in ideals)
        assert len(set(ideals)) == 1 and [repr(ideal) for ideal in ideals] == [text] * len(lists)

    def test_equal_splines_hash_equal(self, name):
        build, values = RINGS[name]

        def spline(vals):
            ring = build()
            graph = make_graph(ring, ["a", "b"], [("a", "b", values[2])])
            return Spline(graph, {"a": ring.element(vals[0]), "b": ring.element(vals[1])})

        p, q, r = spline(values[:2]), spline(values[1::-1]), spline(values[1:])
        assert p.graph is not q.graph and p == q and hash(p) == hash(q) and p != r
        assert len({p, q, r}) == 2
        text = ELEMENT_REPR[name].split(": ")[1][:-1]
        assert repr(p) == f"Spline(a: {text}, b: {text})"
