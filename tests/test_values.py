"""The value classes' contract: construction, refusals, equality, hash and repr.

Cells, summary elements, field specs, port records and audit checks are
built thousands of times per run; whatever their class is made of, each
compares and hashes by value, prints as its constructor call (fuzz
failures print the query), builds from keywords, refuses bad parts, and
a hashable one refuses attribute assignment.
"""

from decimal import Decimal

import pytest

from tallyflow import (
    FieldSpec,
    Kind,
    Missing,
    MonoidElement,
    Quantity,
    avg_of,
    cell_key,
    count,
    max_of,
    min_of,
    paccioli,
    set_of,
    sum_of,
    tuple_of,
)
from tallyflow.audit import Check
from tallyflow.csvio import ColumnSpec
from tallyflow.exprs import Compare, FieldDefined
from tallyflow.ops import AggSpec
from tallyflow.pipeline import ConservationSpec, PortPids, Sink, Violation
from tallyflow.ra import BaseRelation, Select
from tallyflow.relation import PathTag, pid_bits

D = Decimal

# (class, keyword arguments, an equal value built differently, unequal values, repr)
HASHABLE = [
    (Quantity, {"amount": D("1.5"), "unit": "kg"}, Quantity(D("1.50"), "kg"),
     [Quantity(D("1.5"), "lb"), Quantity(D("2"), "kg")],
     "Quantity(amount=Decimal('1.5'), unit='kg')"),
    (Missing, {"reason": "empty"}, Missing("empty"), [Missing("n/a")],
     "Missing(reason='empty')"),
    (MonoidElement, {"kind": Kind.SUM, "payload": D("2"), "unit": "$"}, sum_of(D("2.00"), "$"),
     [sum_of(D("2")), sum_of(D("3"), "$"), min_of(D("2"), "$")],
     "MonoidElement(kind=<Kind.SUM: 'sum'>, payload=Decimal('2'), unit='$')"),
    (FieldSpec, {"name": "price", "sem": "decimal", "unit": "$"}, FieldSpec("price", "decimal", "$"),
     [FieldSpec("price", "decimal"), FieldSpec("cost", "decimal", "$")],
     "FieldSpec(name='price', sem='decimal', unit='$')"),
    (Check, {"name": "coverage:all", "ok": True, "detail": "fine"},
     Check("coverage:all", True, "fine"),
     [Check("coverage:all", False, "fine"), Check("coverage:main", True, "fine")],
     "Check(name='coverage:all', ok=True, detail='fine')"),
    (Violation, {"kind": "Cycle", "where": "a", "detail": "in a cycle"},
     Violation("Cycle", "a", "in a cycle"),
     [Violation("Cycle", "b", "in a cycle"), Violation("UnknownEndpoint", "a", "in a cycle")],
     "Violation(kind='Cycle', where='a', detail='in a cycle')"),
    (Sink, {"name": "kept", "kind": "report", "report": "main"}, Sink("kept", "report"),
     [Sink("kept", "error"), Sink("kept", "report", "B"), Sink("lost", "report")],
     "Sink(name='kept', kind='report', report='main')"),
    (ConservationSpec, {"scheme": "sum", "fld": "price"}, ConservationSpec("sum", "price"),
     [ConservationSpec("count"), ConservationSpec("sum", "cost"),
      ConservationSpec("paccioli", "price")],
     "ConservationSpec(scheme='sum', fld='price')"),
    (AggSpec, {"field": "price", "op": "sum"}, AggSpec("price", "sum"),
     [AggSpec("price", "min"), AggSpec("cost", "sum")],
     "AggSpec(field='price', op='sum')"),
    (ColumnSpec, {"name": "price", "type": "decimal", "unit": "$", "unit_from": None,
                  "sentinels": ("NA",), "empty": "missing"},
     ColumnSpec("price", "decimal", "$", sentinels=["NA"]),
     [ColumnSpec("price", "decimal", "$"),
      ColumnSpec("price", "decimal", "$", None, ("NA",), "0")],
     "ColumnSpec(name='price', type='decimal', unit='$', unit_from=None, sentinels=('NA',), "
     "empty='missing')"),
    (PathTag, {"side": "inl"}, PathTag("inl"), [PathTag("inr")], "PathTag(side='inl')"),
    (Compare, {"op": "ge", "field": "price", "value": D("2")}, Compare("ge", "price", D("2.00")),
     [Compare("gt", "price", D("2")), Compare("ge", "price", D("3")),
      Compare("ge", "cost", D("2"))],
     "Compare(op='ge', field='price', value=Decimal('2'))"),
    (Select, {"of": BaseRelation("t"), "pred": FieldDefined("x")},
     Select(BaseRelation("t"), FieldDefined("x")),
     [Select(BaseRelation("u"), FieldDefined("x")), Select(BaseRelation("t"), FieldDefined("y"))],
     "Select(of=BaseRelation(name='t'), pred=FieldDefined(field='x'))"),
]


@pytest.mark.parametrize("cls, kwargs, same, others, text", HASHABLE,
                         ids=[case[0].__name__ for case in HASHABLE])
def test_a_hashable_value_class_keeps_its_contract(cls, kwargs, same, others, text):
    v = cls(**kwargs)
    assert v == same and hash(v) == hash(same) and not v != same
    for other in others:
        assert v != other and not v == other
    assert len({v, same, *others}) == 1 + len(others)
    assert v != tuple(kwargs.values())
    assert repr(v) == text
    for name, value in kwargs.items():
        assert getattr(v, name) == value
        with pytest.raises(AttributeError):
            setattr(v, name, value)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v == cls(**kwargs)


SLOTTED = [Quantity(D(1), "kg"), Missing("empty"), count(1), FieldSpec("n", "integer"),
           Check("coverage:all", True, "fine"), PortPids("j", "inner", pid_bits({1}), {})]


@pytest.mark.parametrize("value", SLOTTED, ids=lambda v: type(v).__name__)
def test_a_slotted_value_class_keeps_no_instance_dict(value):
    assert not hasattr(value, "__dict__")


def test_optional_fields_default_to_none():
    assert MonoidElement(Kind.COUNT, 1).unit is None
    assert MonoidElement(kind=Kind.COUNT, payload=1) == count(1)
    assert FieldSpec("n", "integer").unit is None
    assert FieldSpec(name="n", sem="integer") == FieldSpec("n", "integer", None)


def test_port_pids_compare_by_value_are_frozen_and_are_not_hashable():
    kwargs = {"owner": "j", "port": "inner", "pids": pid_bits({1, 2}), "repeats": {2: 2}}
    p = PortPids(**kwargs)
    assert p == PortPids("j", "inner", pid_bits({1, 2}), {2: 2})
    assert p != PortPids("j", "inner", pid_bits({1, 2}), {})
    assert p != PortPids("j", "left_only", pid_bits({1, 2}), {2: 2})
    assert repr(p) == "PortPids(owner='j', port='inner', pids=6, repeats={2: 2})"
    assert [getattr(p, n) for n in kwargs] == list(kwargs.values())
    with pytest.raises(TypeError):
        hash(p)
    with pytest.raises(AttributeError):
        p.pids = frozenset()


@pytest.mark.parametrize("build, error, match", [
    (lambda: Quantity(1, "kg"), TypeError, "Quantity.amount must be a Decimal"),
    (lambda: Quantity(1.5, "kg"), TypeError, "Quantity.amount must be a Decimal"),
    (lambda: Quantity(D("Infinity"), "kg"), ValueError, "must be finite"),
    (lambda: Quantity(D("NaN"), "kg"), ValueError, "must be finite"),
    (lambda: Quantity(D(1), ""), ValueError, "nonempty label"),
    (lambda: Missing(""), ValueError, "Missing.reason must be nonempty"),
    (lambda: FieldSpec("x", "float"), ValueError, "unknown semantic type 'float'"),
    (lambda: FieldSpec("", "text"), ValueError, "field name must be nonempty"),
    (lambda: MonoidElement(Kind.COUNT, -1), ValueError, "nonnegative int"),
    (lambda: MonoidElement(Kind.COUNT, True), ValueError, "nonnegative int"),
    (lambda: MonoidElement(Kind.COUNT, D(1)), ValueError, "nonnegative int"),
    (lambda: MonoidElement(Kind.SUM, 1), ValueError, "sum payload must be a Decimal"),
    (lambda: MonoidElement(Kind.MIN, 1), ValueError, "min payload must be a Decimal"),
    (lambda: MonoidElement(Kind.MAX, "1"), ValueError, "max payload must be a Decimal"),
    (lambda: MonoidElement(Kind.AVG, (D(1),)), ValueError, "avg payload must be a 2-tuple"),
    (lambda: MonoidElement(Kind.AVG, [D(1), 1]), ValueError, "avg payload must be a 2-tuple"),
    (lambda: MonoidElement(Kind.AVG, (1, 1)), ValueError, r"\(Decimal sum, int count\)"),
    (lambda: MonoidElement(Kind.AVG, (D(1), 0)), ValueError, "avg invariant"),
    (lambda: MonoidElement(Kind.AVG, (D(0), -1)), ValueError, "avg invariant"),
    (lambda: MonoidElement(Kind.SET, {1}), ValueError, "set payload must be a frozenset"),
    (lambda: MonoidElement(Kind.PACCIOLI, D(1)), ValueError, "paccioli payload must be a 2-tuple"),
    (lambda: MonoidElement(Kind.PACCIOLI, (D(1), 1)), ValueError, r"\(Decimal, Decimal\)"),
    (lambda: MonoidElement(Kind.PACCIOLI, (D(-1), D(0))), ValueError, "legs must be nonnegative"),
    (lambda: MonoidElement(Kind.TUPLE, [count()]), ValueError, "tuple of MonoidElements"),
    (lambda: MonoidElement(Kind.TUPLE, (count(), 1)), ValueError, "tuple of MonoidElements"),
], ids=lambda x: "" if callable(x) or isinstance(x, type) else x)
def test_constructors_refuse_bad_parts(build, error, match):
    with pytest.raises(error, match=match):
        build()


class Label(str):
    pass


def _same(a, b) -> bool:
    """Equal, and of the same classes all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, frozenset):
        return a == b and sorted(map(repr, a)) == sorted(map(repr, b))
    return a == b


CELL_KEYS = [
    ("red", ("str", "red")),
    (Label("red"), ("str", Label("red"))),
    (7, ("int", 7)),
    (True, ("bool", True)),
    (D("2.5000"), ("dec", D("2.5000"))),
    (D("-0"), ("dec", D("-0"))),
    (Missing("empty"), ("missing",)),
    (Missing("refused"), ("missing",)),
    (Quantity(D("1.5"), "kg"), ("qty", D("1.5"), "kg")),
    (count(3), ("elem", "count", None, 3)),
    (sum_of(D(2), "$"), ("elem", "sum", "$", D(2))),
    (min_of(D(1)), ("elem", "min", None, D(1))),
    (max_of(D(4), "kg"), ("elem", "max", "kg", D(4))),
    (avg_of(D(3), 2), ("elem", "avg", None, (D(3), 2))),
    (set_of(["a", 1]), ("elem", "set", None, frozenset({("str", "a"), ("int", 1)}))),
    (paccioli(D(5), D(0), "$"), ("elem", "paccioli", "$", (D(5), D(0)))),
    (tuple_of(count(1), sum_of(D(1))),
     ("elem", "tuple", None, (("elem", "count", None, 1), ("elem", "sum", None, D(1))))),
]


@pytest.mark.parametrize("value, key", CELL_KEYS, ids=[repr(v) for v, _ in CELL_KEYS])
def test_cell_keys_are_tagged_by_class(value, key):
    assert _same(cell_key(value), key)


def test_cell_keys_equate_scales_and_zeros_but_not_classes():
    assert cell_key(D("-0")) == cell_key(D("0.0000"))
    assert cell_key(True) != cell_key(1) and cell_key(1) != cell_key(D(1))
    assert cell_key(Label("1")) == cell_key("1") != cell_key(1)
    with pytest.raises(TypeError, match="not a field value"):
        cell_key(1.5)
