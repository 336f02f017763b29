"""Relations, schemas and the facts a lossless operation must keep."""

from collections import Counter
from decimal import Decimal

import pytest

from tallyflow import (
    FieldSpec,
    IrrelevantPart,
    Missing,
    PathTag,
    Quantity,
    Record,
    Relation,
    SchemaMismatch,
    UnknownField,
    cell_key,
    dec4,
    dedup,
    error_schema,
    field_names,
    ingest,
    lossless_project,
    pids,
    plain,
    schema,
    set_of,
    triples,
)
from tallyflow.relation import check_rows


D = Decimal

SCH = schema(
    FieldSpec("name", "text"),
    FieldSpec("n", "integer"),
    FieldSpec("price", "decimal", "$"),
)


def rel():
    return ingest(SCH, [
        {"name": "a", "n": 1, "price": D("1.5")},
        {"name": "a", "n": 1, "price": D("1.5")},
        {"name": "b", "n": 2, "price": Missing("empty")},
    ])


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaMismatch):
        schema(FieldSpec("x", "integer"), FieldSpec("x", "text"))


def test_field_spec_rejects_unknown_sem():
    with pytest.raises(ValueError):
        FieldSpec("x", "whatever")
    with pytest.raises(ValueError):
        FieldSpec("", "integer")


def test_ingest_numbers_rows_and_checks_cells():
    r = rel()
    assert pids(r) == frozenset({1, 2, 3})
    assert [sorted(rec.pids) for rec in r.rows] == [[1], [2], [3]]
    with pytest.raises(SchemaMismatch):
        ingest(SCH, [{"name": "a", "n": "one", "price": D(1)}])
    ok = {"name": "a", "n": 1, "price": D(1)}
    with pytest.raises(SchemaMismatch, match=r"^row 8: missing field 'name'$"):
        ingest(SCH, [ok, {"n": 1}], 7)
    with pytest.raises(SchemaMismatch, match=r"^row 2: undeclared fields \['x', 'y'\]$"):
        ingest(SCH, [ok, {**ok, "y": 0, "x": 0}])
    with pytest.raises(SchemaMismatch, match=r"^field 'n': 'one' is not integer$"):
        ingest(SCH, [{**ok, "n": "one"}])


def test_relation_trusts_its_rows_and_check_rows_checks_them():
    typo = Record(pids=frozenset({1}), fields={"name": "a", "n": "one", "price": D(1)})
    short = Record(pids=frozenset({2}), fields={"name": "a", "n": 1})
    assert len(Relation(SCH, (typo, short))) == 2
    with pytest.raises(SchemaMismatch, match="field 'n': 'one' is not integer"):
        check_rows(SCH, [typo])
    with pytest.raises(SchemaMismatch, match="do not match schema"):
        check_rows(SCH, [short])


def _row(pid: int, **fields) -> Record:
    return Record(pids=frozenset({pid}), fields=fields)


GOOD = {"name": "a", "n": 1, "price": D(1)}

# each case: the rows, and the error a row-by-row scan meets first
CHECK_PRECEDENCE = {
    "a wrong field set before later bad cells": (
        [_row(1, **GOOD), _row(2, name="a", n=1, cost=D(1)),
         _row(3, name=7, n="two", price=D(1)), _row(4, name="a", n="four", price=D(1))],
        "record fields ['cost', 'n', 'name'] do not match schema ('name', 'n', 'price')"),
    "two bad cells before a wrong field set: the first in schema order": (
        [_row(1, **GOOD), _row(2, name="a", n="two", price="dear"),
         _row(3, name="a", n=1), _row(4, name=4, n=1, price=D(1))],
        "field 'n': 'two' is not integer"),
    "a row's wrong field set before its own bad cells": (
        [_row(1, **GOOD), _row(2, name=2, n="two"), _row(3, name="a", n="three", price=D(1))],
        "record fields ['n', 'name'] do not match schema ('name', 'n', 'price')"),
    "an earlier row's later field before a later row's earlier field": (
        [_row(1, **GOOD), _row(2, name="a", n=1, price="dear"),
         _row(3, name=3, n="three", price=D(1)), _row(4, name="a", n=1)],
        "field 'price': 'dear' is not decimal"),
}


@pytest.mark.parametrize("case", sorted(CHECK_PRECEDENCE))
def test_check_rows_names_the_first_bad_row_then_its_first_bad_field(case):
    rows, message = CHECK_PRECEDENCE[case]
    with pytest.raises(SchemaMismatch) as err:
        check_rows(SCH, rows)
    assert str(err.value) == message


def test_missing_is_welcome_in_any_column():
    r = ingest(SCH, [{"name": Missing("n/a"), "n": Missing("n/a"),
                      "price": Missing("n/a")}])
    assert all(isinstance(v, Missing) for v in r.rows[0].fields.values())


def test_cell_key_collapses_decimal_scales_and_missing_reasons():
    assert cell_key(D("4")) == cell_key(D("4.0000"))
    assert cell_key(Missing("empty")) == cell_key(Missing("closed"))
    assert cell_key(Quantity(D(2), "kg")) != cell_key(Quantity(D(2), "lb"))
    assert cell_key(1) != cell_key("1")
    assert cell_key(True) != cell_key(1)


def test_cell_key_is_exact_on_decimal_values():
    assert cell_key(D("-0")) == cell_key(D("0")) == cell_key(D("0.0000"))
    assert cell_key(Quantity(D("-0.00"), "kg")) == cell_key(Quantity(D(0), "kg"))
    assert cell_key(1) != cell_key(D(1))
    assert cell_key(D("0.00001")) != cell_key(D(0))
    assert cell_key(set_of({"a", "b"})) == cell_key(set_of(["b", "a", "b"]))
    assert cell_key(set_of({1, 2})) != cell_key(set_of({"1", "2"}))
    assert cell_key(set_of({1})) != cell_key(set_of({1, 2}))


def test_a_record_keeps_the_contract_of_a_frozen_row():
    part = IrrelevantPart(frozenset({1}), {"x": 1})
    rec = Record(pids={1, 2}, fields={"a": 1}, irrelevant=(part,), tags=(PathTag("inl"),))
    assert rec.pids == frozenset({1, 2}) and type(rec.pids) is frozenset
    assert Record([3], {"a": 1}).pids == frozenset({3})
    with pytest.raises(ValueError, match="at least one pid"):
        Record(pids=(), fields={})
    assert rec == Record(frozenset({1, 2}), {"a": 1}, (part,), (PathTag("inl"),))
    assert rec != Record(frozenset({1, 2}), {"a": 1}, (part,))
    assert rec != Record(frozenset({1}), {"a": 1}, (part,), rec.tags)
    assert rec != Record(rec.pids, {"a": 2}, (part,), rec.tags)
    assert rec != (rec.pids, rec.fields, rec.irrelevant, rec.tags)
    with pytest.raises(TypeError):
        hash(rec)
    assert repr(Record(pids=frozenset({1}), fields={"a": 1})) == (
        "Record(pids=frozenset({1}), fields={'a': 1}, irrelevant=(), tags=())")
    assert not hasattr(rec, "__dict__")


def test_dec4_pins_the_scale():
    assert dec4(3) == D("3.0000")
    assert str(dec4("2.5")) == "2.5000"
    # ties round half-even, the Decimal default
    assert dec4("1.00005") == D("1.0000")
    assert dec4("1.00015") == D("1.0002")
    with pytest.raises(ValueError):
        dec4("soup")


def test_nan_is_not_a_number_at_any_entry():
    for value in ("NaN", "-NaN", "nan", "sNaN", "Infinity", "1e400", D("NaN"), D("-NaN")):
        with pytest.raises(ValueError, match="not a decimal"):
            dec4(value)
    with pytest.raises(SchemaMismatch, match="field 'price': Decimal\\('NaN'\\) is not decimal"):
        ingest(SCH, [{"name": "a", "n": 1, "price": D("NaN")}])
    with pytest.raises(ValueError, match="Quantity.amount must be finite"):
        Quantity(D("NaN"), "kg")


def test_plain_and_cell_key_never_round():
    big, near = D("1234567890123456789012345678.9"), D("1234567890123456789012345679")
    assert plain(big) == "1234567890123456789012345678.9"
    assert plain(D("-0.000")) == plain(D("0E+3")) == "0"
    assert cell_key(big) != cell_key(near)
    r = dedup(ingest(schema(FieldSpec("x", "decimal")), [{"x": big}, {"x": near}]))
    assert [rec.pids for rec in r.rows] == [frozenset({1}), frozenset({2})]


def test_triples_list_every_field_value_pid_fact():
    r = ingest(SCH, [{"name": "a", "n": 1, "price": D(2)}])
    got = Counter(triples(r))
    assert got == Counter({
        ("name", cell_key("a"), 1): 1,
        ("n", cell_key(1), 1): 1,
        ("price", cell_key(D(2)), 1): 1,
    })


def test_lossless_project_narrows_but_keeps_the_facts():
    r = rel()
    narrowed = lossless_project(r, ["name"])
    assert field_names(narrowed.schema) == ("name",)
    assert Counter(triples(narrowed)) == Counter(triples(r))
    moved = narrowed.rows[0].irrelevant[0]
    assert moved.fields == {"n": 1, "price": D("1.5")}


def test_lossless_project_refuses_unknown_or_duplicate_fields():
    with pytest.raises(UnknownField):
        lossless_project(rel(), ["ghost"])
    with pytest.raises(SchemaMismatch):
        lossless_project(rel(), ["name", "name"])


def test_dedup_merges_equal_rows_and_unions_their_pids():
    r = dedup(rel())
    assert len(r.rows) == 2
    assert r.rows[0].pids == frozenset({1, 2})
    assert Counter(triples(r)) == Counter(triples(rel()))


def test_dedup_after_project_still_loses_nothing():
    r = rel()
    narrowed = dedup(lossless_project(r, ["name", "n"]))
    assert len(narrowed.rows) == 2
    assert Counter(triples(narrowed)) == Counter(triples(r))


def test_relation_equality_is_structural():
    assert rel() == rel()
    assert rel() != dedup(rel())


def test_error_schema_appends_the_two_error_columns():
    sch = error_schema(SCH)
    assert field_names(sch) == ("name", "n", "price", "error_stage", "error_reason")
    with pytest.raises(SchemaMismatch):
        error_schema(sch)
