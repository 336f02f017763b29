"""Measures over relations: per-record charges fused by a monoid."""

from decimal import Decimal

import pytest

from tallyflow import (
    FieldSpec,
    Missing,
    Quantity,
    SchemaMismatch,
    count_space,
    decimal_sum_space,
    fuse,
    fuse_all,
    ingest,
    paccioli_space,
    quantity_sum_space,
    schema,
    Compare,
    partition_detailed,
)


D = Decimal

LEDGER = schema(
    FieldSpec("who", "text"),
    FieldSpec("amount", "decimal", "$"),
    FieldSpec("load", "quantity"),
)


def ledger():
    return ingest(LEDGER, [
        {"who": "ann", "amount": D("10.5"), "load": Quantity(D(2), "kg")},
        {"who": "bob", "amount": D("-3"), "load": Quantity(D(5), "kg")},
        {"who": "cid", "amount": Missing("empty"), "load": Quantity(D(1), "lb")},
    ])


def test_count_space_counts_provenance_not_rows():
    rel = ledger()
    assert count_space().measure(rel).payload == 3


def test_decimal_sum_space_sums_and_skips_missing():
    total = decimal_sum_space("amount", "$").measure(ledger())
    assert total.payload == D("7.5")
    assert total.unit == "$"


def test_quantity_sum_space_is_per_unit():
    rel = ledger()
    assert quantity_sum_space("load", "kg").measure(rel).payload == D(7)
    assert quantity_sum_space("load", "lb").measure(rel).payload == D(1)


def test_paccioli_space_keeps_both_legs():
    e = paccioli_space("amount", "$").measure(ledger())
    assert e.payload == (D("10.5"), D(3))


def test_measure_is_additive_over_a_partition():
    rel = ledger()
    space = decimal_sum_space("amount", "$")
    acc, rej, _ = partition_detailed(rel, Compare("gt", "amount", D(0)))
    fused = fuse(space.measure(acc), space.measure(rej))
    assert fused == space.measure(rel)


@pytest.mark.parametrize("space", [
    count_space(),
    decimal_sum_space("amount", "$"),
    quantity_sum_space("load", "kg"),
    paccioli_space("amount", "$"),
], ids=lambda sp: sp.name)
def test_measure_folds_the_payloads_per_record_checks(space):
    def replace(value, **changes):  # a copy of a Frozen record with changes
        return type(value)(**{**{n: getattr(value, n) for n in value._fields}, **changes})

    # measure() folds bare payloads; building each record's element from
    # payload validates it, and fuse_all checks and folds those
    rel = ledger()
    elements = [replace(space.unit, payload=space.payload(r)) for r in rel.rows]
    assert space.measure(rel) == fuse_all(elements, space.unit)


def test_space_refuses_a_relation_without_its_field():
    bare = ingest(schema(FieldSpec("x", "integer")), [{"x": 1}])
    with pytest.raises(SchemaMismatch):
        decimal_sum_space("amount").measure(bare)
    # the field is there, but not with the sem the scheme reads
    text = ingest(schema(FieldSpec("amount", "text")), [])
    with pytest.raises(SchemaMismatch, match="needs a decimal field 'amount'"):
        decimal_sum_space("amount").measure(text)
