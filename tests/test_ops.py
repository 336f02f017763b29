"""Operations on relations: every one partitions, tags or enriches."""

from decimal import Decimal

import pytest

from tallyflow import (
    AggSpec,
    Col,
    Compare,
    FieldDefined,
    FieldSpec,
    ForbiddenFieldWrite,
    Kind,
    Lit,
    Missing,
    MonoidElement,
    NumOf,
    Quantity,
    SchemaMismatch,
    UntagMissing,
    aggregate,
    as_errors,
    dedup,
    drill_down,
    empty,
    field_names,
    fmap,
    ingest,
    outer_join,
    partition_detailed,
    pids,
    rename,
    schema,
    strip_tags,
    tagged_union,
    untag,
)


D = Decimal

PEOPLE = schema(FieldSpec("name", "text"), FieldSpec("age", "integer"))
JOBS = schema(FieldSpec("who", "text"), FieldSpec("job", "text"))


def people():
    return ingest(PEOPLE, [
        {"name": "ann", "age": 34},
        {"name": "bob", "age": 17},
        {"name": "cid", "age": Missing("unknown")},
    ])


def jobs(first_pid=10):
    return ingest(JOBS, [
        {"who": "ann", "job": "pilot"},
        {"who": "ann", "job": "tutor"},
        {"who": "dee", "job": "clerk"},
    ], first_pid)


# -- partition ----------------------------------------------------------

def test_partition_splits_and_loses_no_one():
    adult = Compare("ge", "age", 18)
    acc, rej, _ = partition_detailed(people(), adult)
    assert [r.fields["name"] for r in acc.rows] == ["ann"]
    assert [r.fields["name"] for r in rej.rows] == ["bob", "cid"]
    assert pids(acc) | pids(rej) == pids(people())


def test_partition_detailed_says_why_each_row_fell_out():
    acc, rej, reasons = partition_detailed(people(), Compare("ge", "age", 18))
    assert len(reasons) == len(rej.rows)
    assert "unknown" in reasons[1]


def test_partition_needs_its_field():
    from tallyflow import UnknownField
    with pytest.raises(UnknownField):
        partition_detailed(people(), FieldDefined("salary"))


# -- enrichment ---------------------------------------------------------

def test_fmap_only_adds_fields():
    out = fmap(people(), {"next_age": NumOf(Col("age"))}, {"next_age": "decimal"})
    assert field_names(out.schema) == ("name", "age", "next_age")
    assert out.rows[0].fields["next_age"] == D(34)
    assert isinstance(out.rows[2].fields["next_age"], Missing)


def test_fmap_refuses_to_overwrite():
    with pytest.raises(ForbiddenFieldWrite):
        fmap(people(), {"age": Lit(0)}, {"age": "integer"})


def test_fmap_carries_declared_units():
    out = fmap(people(), {"fee": Lit(D("1.5"))}, {"fee": "decimal"},
               {"fee": "$"})
    spec = out.schema[-1]
    assert (spec.name, spec.sem, spec.unit) == ("fee", "decimal", "$")


def test_as_errors_stamps_stage_and_reason():
    err = as_errors(people(), "intake", "unreadable")
    assert field_names(err.schema)[-2:] == ("error_stage", "error_reason")
    assert err.rows[0].fields["error_stage"] == "intake"
    assert err.rows[0].fields["error_reason"] == "unreadable"
    per_row = as_errors(people(), "intake", ["a", "b", "c"])
    assert [r.fields["error_reason"] for r in per_row.rows] == ["a", "b", "c"]


# -- tagging ------------------------------------------------------------

def test_tagged_union_then_untag_is_exact():
    a, b = people(), ingest(PEOPLE, [{"name": "eve", "age": 1}], 50)
    u = tagged_union(a, b)
    assert len(u.rows) == 4
    left, right = untag(u)
    assert left == a
    assert right == b


def test_untag_without_tags_is_refused():
    with pytest.raises(UntagMissing):
        untag(people())


def test_strip_tags_forgets_the_split():
    u = tagged_union(people(), people())
    flat = strip_tags(u)
    assert flat.schema == PEOPLE
    assert all(not r.tags for r in flat.rows)


def test_mixed_shape_union_remembers_both_schemas():
    u = tagged_union(people(), jobs())
    left, right = untag(u)
    assert left.schema == PEOPLE
    assert right.schema == JOBS


# -- rename -------------------------------------------------------------

def test_rename_changes_schema_and_rows_together():
    out = rename(people(), {"name": "who"})
    assert field_names(out.schema) == ("who", "age")
    assert out.rows[0].fields["who"] == "ann"


def test_rename_refuses_collisions_and_ghosts():
    from tallyflow import CollisionAfterRename, UnknownField
    with pytest.raises(CollisionAfterRename):
        rename(people(), {"name": "age"})
    with pytest.raises(UnknownField):
        rename(people(), {"ghost": "x"})


# -- joins --------------------------------------------------------------

def test_outer_join_routes_every_row_somewhere():
    inner, left, right = outer_join(people(), jobs(), [("name", "who")])
    assert [(r.fields["name"], r.fields["job"]) for r in inner.rows] == [
        ("ann", "pilot"), ("ann", "tutor")]
    assert [r.fields["name"] for r in left.rows] == ["bob", "cid"]
    assert [r.fields["who"] for r in right.rows] == ["dee"]
    assert pids(inner) | pids(left) | pids(right) == pids(people()) | pids(jobs())


def test_join_on_same_named_pair_keeps_one_column():
    a = ingest(schema(FieldSpec("k", "text"), FieldSpec("x", "integer")),
               [{"k": "a", "x": 1}])
    b = ingest(schema(FieldSpec("k", "text"), FieldSpec("y", "integer")),
               [{"k": "a", "y": 2}], 10)
    inner, _, _ = outer_join(a, b, [("k", "k")])
    assert field_names(inner.schema) == ("k", "x", "y")
    assert inner.rows[0].pids == frozenset({1, 10})


def test_missing_never_matches_a_join_key():
    a = ingest(schema(FieldSpec("k", "text")), [{"k": Missing("empty")}])
    b = ingest(schema(FieldSpec("k", "text")), [{"k": Missing("empty")}], 10)
    inner, left, right = outer_join(a, b, [("k", "k")])
    assert not inner.rows
    assert len(left.rows) == len(right.rows) == 1


def test_missing_matches_missing_when_asked():
    a = ingest(schema(FieldSpec("k", "text")), [{"k": Missing("empty")}])
    b = ingest(schema(FieldSpec("k", "text")), [{"k": Missing("n/a")}], 10)
    inner, left, right = outer_join(a, b, [("k", "k")], missing_matches=True)
    assert len(inner.rows) == 1
    assert not left.rows and not right.rows


def test_join_key_typing_is_strict():
    # unlike cell types never match, so such a join is refused before any
    # row moves
    a = ingest(schema(FieldSpec("k", "text")), [{"k": "1"}])
    b = ingest(schema(FieldSpec("k", "integer")), [{"k": 1}], 10)
    from tallyflow import JoinColumnMissing
    with pytest.raises(SchemaMismatch, match=r"join key pair \('k', 'k'\) mixes text with integer"):
        outer_join(a, b, [("k", "k")])
    with pytest.raises(JoinColumnMissing):
        outer_join(a, b, [("ghost", "k")])


def test_a_key_pair_declares_one_unit_unless_its_cells_carry_theirs():
    # 10 $ would match a plain 10: a decimal cell carries no unit, so the
    # pair is refused whatever its names; a quantity cell carries its unit
    dollars = ingest(schema(FieldSpec("p", "decimal", "$")), [{"p": D("10")}])
    bare = ingest(schema(FieldSpec("q", "decimal")), [{"q": D("10")}], 10)
    with pytest.raises(SchemaMismatch, match=r"join key pair \('p', 'q'\) has unit '\$' "
                                             r"on the left but None on the right"):
        outer_join(dollars, bare, [("p", "q")])
    kg = ingest(schema(FieldSpec("p", "quantity", "kg")), [{"p": Quantity(D("10"), "kg")}])
    lb = ingest(schema(FieldSpec("q", "quantity")), [{"q": Quantity(D("10"), "lb")}], 10)
    inner, left, right = outer_join(kg, lb, [("p", "q")])
    assert not inner.rows and len(left.rows) == len(right.rows) == 1


def test_cartesian_is_join_on_nothing():
    inner, left, right = outer_join(people(), jobs(), [])
    assert not left.rows and not right.rows
    assert sorted(r.pids for r in inner.rows) == sorted(
        a.pids | b.pids for a in people().rows for b in jobs().rows)


# -- aggregation --------------------------------------------------------

def sales():
    sch = schema(
        FieldSpec("shop", "text"),
        FieldSpec("qty", "quantity"),
        FieldSpec("price", "decimal", "$"),
    )
    return ingest(sch, [
        {"shop": "n", "qty": Quantity(D(2), "kg"), "price": D("4.5")},
        {"shop": "n", "qty": Quantity(D(3), "kg"), "price": D("2.5")},
        {"shop": "n", "qty": Quantity(D(7), "lb"), "price": D(1)},
        {"shop": "s", "qty": Quantity(D(1), "kg"), "price": Missing("empty")},
    ])


def test_aggregate_groups_and_always_counts():
    out = aggregate(sales(), ["shop"], [AggSpec("price", "sum")])
    assert field_names(out.schema) == ("shop", "price_sum", "count")
    got = {r.fields["shop"]: r.fields for r in out.rows}
    assert got["n"]["price_sum"].payload == D(8)
    assert got["n"]["count"].payload == 3
    # a missing price contributes nothing, yet the row still counts
    assert got["s"]["price_sum"].payload == D(0)
    assert got["s"]["count"].payload == 1


def test_aggregate_subdivides_quantities_by_unit():
    out = aggregate(sales(), [], [AggSpec("qty", "sum")])
    got = {r.fields["qty_unit"]: r.fields["qty_sum"] for r in out.rows}
    assert got["kg"].payload == D(6)
    assert got["kg"].unit == "kg"
    assert got["lb"].payload == D(7)


def test_aggregate_min_max_avg_set():
    out = aggregate(sales(), [], [AggSpec("price", "min"),
                                  AggSpec("price", "max"),
                                  AggSpec("price", "avg")])
    row = out.rows[0].fields
    assert row["price_min"].payload == D(1)
    assert row["price_max"].payload == D("4.5")
    assert row["price_avg"].mean() == D("2.6667")
    shops = aggregate(sales(), [], [AggSpec("shop", "set")])
    assert shops.rows[0].fields["shop_set"].payload == frozenset({"n", "s"})


def test_aggregate_keeps_all_pids_for_drill_down():
    out = aggregate(sales(), ["shop"], [AggSpec("price", "sum")])
    assert pids(out) == frozenset({1, 2, 3, 4})
    assert drill_down(out, {"shop": "n"}) == frozenset({1, 2, 3})


def test_an_aggregate_builds_one_element_per_summary_cell(monkeypatch):
    # a cell's values are folded as bare payloads, not one element each
    rel = sales()
    rel = ingest(rel.schema, [r.fields for r in rel.rows] * 25)
    built = []
    check = MonoidElement.__post_init__
    monkeypatch.setattr(MonoidElement, "__post_init__", lambda e: built.append(e) or check(e))
    specs = [AggSpec("price", op) for op in ("sum", "min", "max", "avg")]
    out = aggregate(rel, [], specs + [AggSpec("qty", "sum"), AggSpec("shop", "set")])
    # one group per qty unit, each with six summaries and a count
    assert len(rel) == 100 and len(out) == 2
    cells = [v for r in out.rows for v in r.fields.values() if isinstance(v, MonoidElement)]
    assert len(cells) == 14 and list(map(id, built)) == list(map(id, cells))
    kg = next(r.fields for r in out.rows if r.fields["qty_unit"] == "kg")
    assert (kg["price_sum"].payload, kg["qty_sum"].payload, kg["count"].payload) == (
        D(175), D(150), 75)


def test_aggregate_validates_fields_and_ops():
    from tallyflow import UnknownField
    with pytest.raises(UnknownField):
        aggregate(sales(), ["ghost"], [])
    with pytest.raises(SchemaMismatch):
        aggregate(sales(), [], [AggSpec("shop", "sum")])
    with pytest.raises(ValueError):
        AggSpec("price", "median")
    clash = ingest(schema(FieldSpec("price", "decimal"),
                          FieldSpec("price_sum", "text")),
                   [{"price": D(1), "price_sum": "oops"}])
    with pytest.raises(SchemaMismatch):
        aggregate(clash, ["price_sum"], [AggSpec("price", "sum")])


def test_set_aggregation_needs_discrete_values():
    with pytest.raises(SchemaMismatch):
        aggregate(sales(), [], [AggSpec("price", "set")])


# -- emptiness ----------------------------------------------------------

def test_empty_relations_flow_through():
    e = empty(PEOPLE)
    assert not e.rows
    acc, rej, _ = partition_detailed(e, FieldDefined("name"))
    assert not acc.rows and not rej.rows
    out = aggregate(e, ["name"], [])
    assert not out.rows
    assert not dedup(e).rows
