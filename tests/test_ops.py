"""Operations on relations: every one partitions, tags or enriches."""

from decimal import Decimal
from random import Random

import pytest

from tallyflow import (
    AggSpec,
    BinOp,
    Col,
    Compare,
    FieldDefined,
    FieldSpec,
    FnNotTotal,
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
    avg_of,
    cell_key,
    count,
    dedup,
    empty,
    field_names,
    fmap,
    ingest,
    outer_join,
    partition_detailed,
    pids,
    rename,
    schema,
    set_of,
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


def test_fmap_reports_the_first_row_on_which_an_operand_fails():
    # a row reads its left operand first and stops at a Missing one, so the
    # error is the first failing row's, whichever operand fails there
    sch = schema(FieldSpec("a", "summary"), FieldSpec("b", "summary"))
    no_min, avg = MonoidElement(Kind.MIN, D("Infinity")), avg_of(D(4), 2)
    total = {"v": BinOp("add", NumOf(Col("a")), NumOf(Col("b")))}
    rows = [{"a": count(1), "b": no_min}, {"a": avg, "b": count(1)}]
    with pytest.raises(FnNotTotal, match="^the min of no values is not a number$"):
        fmap(ingest(sch, rows), total, {"v": "decimal"})
    with pytest.raises(FnNotTotal, match="^no numeric view of a avg summary$"):
        fmap(ingest(sch, rows[::-1]), total, {"v": "decimal"})
    # a Missing left operand leaves the right one unread on its row
    rows = [{"a": Missing("empty"), "b": avg}, {"a": count(1), "b": count(2)}]
    out = fmap(ingest(sch, rows), total, {"v": "decimal"})
    assert [r.fields["v"] for r in out.rows] == [Missing("empty"), D(3)]
    # add reads both operands before either one's number, and num its
    # operand's number at once
    rows = [{"a": avg, "b": Missing("n/a")}]
    out = fmap(ingest(sch, rows), {"w": BinOp("add", Col("a"), Col("b"))}, {"w": "decimal"})
    assert out.rows[0].fields["w"] == Missing("n/a")
    with pytest.raises(FnNotTotal, match="^no numeric view of a avg summary$"):
        fmap(ingest(sch, rows), {"v": BinOp("add", NumOf(Col("a")), Col("b"))}, {"v": "decimal"})


def test_fmap_reports_the_first_row_on_which_any_added_field_fails():
    # rows are read in order and each row's added fields in order, so two
    # added fields that fail on different rows raise the earlier row's fault
    sch = schema(FieldSpec("a", "summary"), FieldSpec("b", "summary"))
    no_min, avg = MonoidElement(Kind.MIN, D("Infinity")), avg_of(D(4), 2)
    adds = {"x": NumOf(Col("a")), "y": NumOf(Col("b"))}
    sems = {"x": "decimal", "y": "decimal"}
    rows = [{"a": count(1), "b": avg}, {"a": no_min, "b": count(1)}]
    with pytest.raises(FnNotTotal, match="^no numeric view of a avg summary$"):
        fmap(ingest(sch, rows), adds, sems)
    with pytest.raises(FnNotTotal, match="^the min of no values is not a number$"):
        fmap(ingest(sch, rows[::-1]), adds, sems)
    # on one row, the first added field's fault
    with pytest.raises(FnNotTotal, match="^the min of no values is not a number$"):
        fmap(ingest(sch, [{"a": no_min, "b": avg}]), adds, sems)


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
    # a union of two shapes is refused, and its message names both
    with pytest.raises(SchemaMismatch, match=r"left is \(name text, age integer\) "
                                             r"and the right is \(who text, job text\)$"):
        tagged_union(people(), jobs())
    # a sem or a unit alone tells the two sides apart
    years = schema(PEOPLE[0], FieldSpec("age", "decimal"))
    for left, spec, shown in ((PEOPLE, FieldSpec("age", "decimal"), "age decimal"),
                              (years, FieldSpec("age", "decimal", "yr"), "age decimal in yr")):
        other = ingest(schema(PEOPLE[0], spec), [])
        with pytest.raises(SchemaMismatch) as e:
            tagged_union(ingest(left, []), other)
        assert str(e.value).endswith(f"(name text, age {left[1].sem}) and the right "
                                     f"is (name text, {shown})")


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


# -- the key rule: join, dedup and aggregate key a cell as cell_key does --

# each column's cells, in classes that cell_key keys alike: equal values in
# different texts (4 and 4.0000, -0 and 0), Missing cells of different
# reasons; and classes apart that compare equal as values (a summary of
# the set {1} and one of {1.0000}) or as amounts in two units
KEY_CELLS = {
    "n": [[D(4), D("4.0000")], [D("-0"), D("0.00")], [D("4.5")],
          [Missing("empty"), Missing("n/a")]],
    "q": [[Quantity(D(2), "kg"), Quantity(D("2.0000"), "kg")], [Quantity(D(2), "lb")],
          [Quantity(D("-0"), "kg"), Quantity(D(0), "kg")], [Missing("no unit")]],
    "s": [[set_of({1})], [MonoidElement(Kind.SET, frozenset({D(1)}))], [count(1)],
          [Missing("gone"), Missing("empty")]],
    "t": [["a"], ["b"], [Missing("empty"), Missing("closed")]],
    "i": [[0], [4], [Missing("n/a"), Missing("empty")]],
}
KEY_SEMS = {"n": "decimal", "q": "quantity", "s": "summary", "t": "text", "i": "integer"}
KEY_SETS = [[n] for n in KEY_CELLS] + [["n", "t"], ["q", "s", "i"], list(KEY_CELLS)]


def keyed(seed: int, prefix: str = "", first_pid: int = 1):
    """40 rows, each a random member of each class of one of 8 rows of
    classes, which every seed shares: the first 4 take every class of each
    column, the others are drawn at random."""
    sch = schema(*(FieldSpec(prefix + n, sem) for n, sem in KEY_SEMS.items()))
    shape_rng, rng = Random(0), Random(seed)
    shapes = [{n: classes[j % len(classes)] for n, classes in KEY_CELLS.items()}
              for j in range(4)]
    shapes += [{n: shape_rng.choice(classes) for n, classes in KEY_CELLS.items()}
               for _ in range(4)]
    return ingest(sch, [{prefix + n: rng.choice(cls) for n, cls in rng.choice(shapes).items()}
                        for _ in range(40)], first_pid)


def cell_keys(rec, names) -> tuple:
    return tuple(cell_key(rec.fields[n]) for n in names)


def cell_key_groups(rel, names) -> list:
    """The pid set of each group of rows whose cells cell_key keys alike,
    in first-seen order."""
    groups: dict = {}
    for rec in rel.rows:
        groups.setdefault(cell_keys(rec, names), set()).update(rec.pids)
    return list(groups.values())


@pytest.mark.parametrize("names", KEY_SETS, ids="-".join)
def test_dedup_and_aggregate_group_rows_as_cell_key_does(names):
    rel = keyed(1)
    want = cell_key_groups(rel, names)
    assert len(want) < len(rel.rows)  # the case has rows to merge
    assert [r.pids for r in aggregate(rel, names, []).rows] == want
    sch = schema(*(FieldSpec(n, KEY_SEMS[n]) for n in names))
    narrow = ingest(sch, [{n: rec.fields[n] for n in names} for rec in rel.rows])
    assert [r.pids for r in dedup(narrow).rows] == cell_key_groups(narrow, names)


@pytest.mark.parametrize("missing_matches", [False, True])
@pytest.mark.parametrize("names", KEY_SETS, ids="-".join)
def test_join_matches_rows_as_cell_key_does(names, missing_matches):
    left, right = keyed(2), keyed(3, "r_", first_pid=100)
    rnames = ["r_" + n for n in names]

    def matches(x, y) -> bool:
        k = cell_keys(x, names)
        return k == cell_keys(y, rnames) and (missing_matches or ("missing",) not in k)

    want = [x.pids | y.pids for x in left.rows for y in right.rows if matches(x, y)]
    assert want  # the case has matches
    inner, left_only, right_only = outer_join(left, right, list(zip(names, rnames)),
                                              missing_matches)
    assert [r.pids for r in inner.rows] == want
    assert [r.pids for r in left_only.rows] == [
        x.pids for x in left.rows if not any(matches(x, y) for y in right.rows)]
    assert [r.pids for r in right_only.rows] == [
        y.pids for y in right.rows if not any(matches(x, y) for x in left.rows)]


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


def test_an_aggregate_row_keeps_the_pids_of_its_group():
    out = aggregate(sales(), ["shop"], [AggSpec("price", "sum")])
    assert pids(out) == frozenset({1, 2, 3, 4})
    (north,) = [rec for rec in out.rows if rec.fields["shop"] == "n"]
    assert north.pids == {1, 2, 3}


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
    assert len(cells) == 14 and sorted(map(id, built)) == sorted(map(id, cells))
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
