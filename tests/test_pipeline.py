"""Pipeline graphs: wiring rules, execution, audit and dashboards."""

from decimal import Decimal

import pytest

from tallyflow import (
    AggregateNode,
    AggSpec,
    Compare,
    DedupNode,
    ErrorizeNode,
    FieldDefined,
    FieldSpec,
    InvalidGraph,
    JoinNode,
    Lit,
    MapNode,
    Missing,
    MissingInput,
    PartitionNode,
    PipelineGraph,
    ProjectNode,
    Quantity,
    Record,
    Relation,
    RenameNode,
    SchemaMismatch,
    StripTagsNode,
    SumSchema,
    TaggedUnionNode,
    TeeNode,
    UnknownPid,
    UntagNode,
    add_lookup,
    attribution_classes,
    audit_document,
    conservation_check,
    dashboard_document,
    ingest,
    pids,
    render_dashboard,
    schema,
    trace,
)
from tallyflow.audit import pid_ranges
from tallyflow.exprs import encode_expr, encode_pred
from tallyflow.pipeline import NODE_TYPES
from tallyflow.pipeline_doc import _make_node


D = Decimal

ORDERS = schema(
    FieldSpec("item", "text"),
    FieldSpec("qty", "quantity"),
    FieldSpec("price", "decimal", "$"),
)


def orders():
    return ingest(ORDERS, [
        {"item": "bolt", "qty": Quantity(D(4), "kg"), "price": D(2)},
        {"item": "nut", "qty": Quantity(D(1), "kg"), "price": Missing("empty")},
        {"item": "gear", "qty": Quantity(D(2), "lb"), "price": D(7)},
    ])


def priced_graph(stage="has_price"):
    g = PipelineGraph("priced")
    g.add_source("orders", ORDERS)
    g.add_conservation("count")
    g.add_conservation("sum_by_unit", "qty")
    g.add_conservation("paccioli", "price")
    g.add_node(PartitionNode(stage, FieldDefined("price"),
                             rejected_to_errors=True))
    g.connect("orders", f"{stage}.in")
    g.add_sink("priced", "report")
    g.add_sink("unpriced", "error")
    g.connect(f"{stage}.accepted", "priced")
    g.connect(f"{stage}.rejected", "unpriced")
    return g


# -- wiring rules -------------------------------------------------------

def test_fan_out_needs_a_tee():
    g = PipelineGraph("t")
    g.add_source("src", ORDERS)
    g.add_sink("a", "report")
    g.add_sink("b", "report")
    g.connect("src", "a")
    g.connect("src", "b")
    assert [v.kind for v in g.validate()] == ["DuplicateConsumer"]


def test_fan_in_needs_a_union():
    g = PipelineGraph("t")
    g.add_source("src", ORDERS)
    g.add_node(TeeNode("t1"))
    g.connect("src", "t1.in")
    g.add_sink("a", "report")
    g.connect("t1.left", "a")
    g.connect("t1.right", "a")
    assert [v.kind for v in g.validate()] == ["DuplicateProducer"]


def test_every_output_port_must_go_somewhere():
    g = PipelineGraph("t")
    g.add_source("src", ORDERS)
    g.add_node(PartitionNode("p", FieldDefined("price")))
    g.connect("src", "p.in")
    g.add_sink("a", "report")
    g.connect("p.accepted", "a")
    found = {(v.kind, v.where) for v in g.validate()}
    assert ("UnconsumedPort", "p.rejected") in found


def test_unwired_inputs_and_unknown_endpoints_are_reported():
    g = PipelineGraph("t")
    g.add_source("src", ORDERS)
    g.add_node(PartitionNode("p", FieldDefined("price")))
    g.add_sink("a", "report")
    g.connect("p.accepted", "a")
    g.add_sink("b", "error")
    g.connect("p.rejected", "b")
    kinds = {v.kind for v in g.validate()}
    assert kinds == {"UnconsumedPort", "UnwiredInput"}
    g2 = PipelineGraph("t")
    g2.add_source("src", ORDERS)
    g2.add_sink("a", "report")
    g2.connect("ghost.out", "a")
    assert "UnknownEndpoint" in {v.kind for v in g2.validate()}


def test_cycles_are_reported():
    g = PipelineGraph("t")
    g.add_source("src", ORDERS)
    g.add_node(TaggedUnionNode("u"))
    g.add_node(TeeNode("t"))
    g.connect("src", "u.left")
    g.connect("u.out", "t.in")
    g.connect("t.left", "u.right")
    g.add_sink("a", "report")
    g.connect("t.right", "a")
    assert "Cycle" in {v.kind for v in g.validate()}


def test_schema_problems_surface_before_any_data_flows():
    g = PipelineGraph("t")
    g.add_source("src", ORDERS)
    g.add_node(MapNode("m", {"price": Lit(1)}, {"price": "integer"}))
    g.connect("src", "m.in")
    g.add_sink("a", "report")
    g.connect("m.out", "a")
    violations = g.validate()
    assert [v.kind for v in violations] == ["SchemaMismatch"]
    assert "may only add" in violations[0].detail


def emap_graph(rejected_to_errors: bool) -> PipelineGraph:
    g = PipelineGraph("t")
    g.add_source("src", ORDERS)
    g.add_node(PartitionNode("has_price", FieldDefined("price"),
                             rejected_to_errors=rejected_to_errors))
    g.add_node(MapNode("note", {"note": Lit("seen")}, {"note": "text"}, kind="emap"))
    g.connect("src", "has_price.in")
    g.connect("has_price.rejected", "note.in")
    g.add_sink("ok", "report")
    g.add_sink("bad", "error")
    g.connect("has_price.accepted", "ok")
    g.connect("note.out", "bad")
    return g


def test_emap_stage_enriches_the_error_rail_and_refuses_ordinary_rows():
    res = emap_graph(rejected_to_errors=True).run({"src": orders()})
    [rec] = res.sinks["bad"].rows
    assert rec.fields["note"] == "seen"
    assert rec.fields["error_stage"] == "has_price"
    violations = emap_graph(rejected_to_errors=False).validate()
    assert [(v.kind, v.where) for v in violations] == [("SchemaMismatch", "note")]
    assert "needs error-rail input" in violations[0].detail


def test_each_document_op_decodes_to_its_stage():
    cases = {
        "partition": ({"when": encode_pred(FieldDefined("price")),
                       "rejected_to_errors": True},
                      PartitionNode("s", FieldDefined("price"), True)),
        "tee": ({}, TeeNode("s")),
        "tagged_union": ({"label": "both"}, TaggedUnionNode("s", "both")),
        "untag": ({}, UntagNode("s")),
        "strip_tags": ({}, StripTagsNode("s")),
        "project": ({"fields": ["item"]}, ProjectNode("s", ("item",))),
        "rename": ({"map": {"item": "thing"}}, RenameNode("s", {"item": "thing"})),
        "dedup": ({}, DedupNode("s")),
        "fmap": ({"add": {"fee": encode_expr(Lit(D(1)))}, "sems": {"fee": "decimal"},
                  "units": {"fee": "$"}},
                 MapNode("s", {"fee": Lit(D(1))}, {"fee": "decimal"}, units={"fee": "$"})),
        "emap": ({"add": {"note": encode_expr(Lit("x"))}, "sems": {"note": "text"}},
                 MapNode("s", {"note": Lit("x")}, {"note": "text"}, kind="emap")),
        "errorize": ({"reason": "bad"}, ErrorizeNode("s", "bad")),
        "join": ({"keys": [["a", "b"]], "missing_matches": True},
                 JoinNode("s", (("a", "b"),), True)),
        "aggregate": ({"by": ["item"], "specs": [{"field": "price", "op": "sum"}]},
                      AggregateNode("s", ("item",), (AggSpec("price", "sum"),))),
    }
    assert set(cases) == set(NODE_TYPES)
    for op, (entry, node) in cases.items():
        assert _make_node({"op": op, "name": "s", **entry}) == node, op
    with pytest.raises(ValueError, match="unknown node op 'filter'"):
        _make_node({"op": "filter", "name": "s"})


def test_duplicate_names_are_claimed_once():
    g = PipelineGraph("t")
    g.add_source("src", ORDERS)
    with pytest.raises(ValueError):
        g.add_node(TeeNode("src"))


def test_run_refuses_an_invalid_graph():
    g = PipelineGraph("t")
    g.add_source("src", ORDERS)
    g.add_sink("a", "report")
    with pytest.raises(InvalidGraph) as info:
        g.run({"src": orders()})
    assert [v.kind for v in info.value.violations] == ["UnconsumedPort", "UnwiredInput"]


def test_run_checks_inputs_against_declared_schemas():
    g = priced_graph()
    with pytest.raises(MissingInput):
        g.run({})
    other = ingest(schema(FieldSpec("item", "text")), [{"item": "x"}])
    with pytest.raises(SchemaMismatch):
        g.run({"orders": other})
    # Relation(...) trusts its rows, so run() is where they are checked
    typo = Record(pids=frozenset({1}),
                  fields={"item": "bolt", "qty": Quantity(D(4), "kg"), "price": "two"})
    with pytest.raises(SchemaMismatch, match="field 'price': 'two' is not decimal"):
        g.run({"orders": Relation(ORDERS, (typo,))})
    short = Record(pids=frozenset({1}), fields={"item": "bolt", "price": D(2)})
    with pytest.raises(SchemaMismatch, match="do not match schema"):
        g.run({"orders": Relation(ORDERS, (short,))})


def test_a_source_needs_a_plain_schema():
    g = PipelineGraph("t")
    with pytest.raises(SchemaMismatch, match="source 'src' needs a plain schema"):
        g.add_source("src", SumSchema(ORDERS, ORDERS))
    assert g.sources == {}


# -- execution and audit ------------------------------------------------

def test_rows_route_to_the_declared_sinks():
    res = priced_graph().run({"orders": orders()})
    assert [r.fields["item"] for r in res.sinks["priced"].rows] == ["bolt", "gear"]
    unpriced = res.sinks["unpriced"]
    assert [r.fields["item"] for r in unpriced.rows] == ["nut"]
    assert unpriced.rows[0].fields["error_stage"] == "has_price"
    assert "empty" in unpriced.rows[0].fields["error_reason"]


def test_no_pid_is_ever_dropped():
    res = priced_graph().run({"orders": orders()})
    seen = frozenset().union(*(pids(rel) for rel in res.sinks.values()))
    assert seen == res.audit.all_source_pids() == frozenset({1, 2, 3})


def test_conservation_verdict_is_exact_and_green():
    res = priced_graph().run({"orders": orders()})
    report = conservation_check(res.audit)
    assert report.ok
    by_name = {c.name: c.ok for c in report.checks}
    assert by_name["measure:main:count"]
    assert by_name["measure:main:sum[qty:kg]"]
    assert by_name["measure:main:sum[qty:lb]"]
    assert by_name["measure:main:paccioli[price]"]


def test_attribution_explains_where_each_pid_went():
    res = priced_graph().run({"orders": orders()})
    classes = attribution_classes(res.audit, "main")
    assert classes["priced"] == frozenset({1, 3})
    assert classes["unpriced"] == frozenset({2})


def test_trace_follows_one_pid_through_the_graph():
    res = priced_graph().run({"orders": orders()})
    steps = trace(res.audit, 2)
    owners = [owner for owner, _ in steps]
    assert owners[0] == "orders"
    assert owners[-1] == "unpriced"
    assert "has_price" in owners


def test_trace_refuses_a_pid_no_source_issued():
    res = priced_graph().run({"orders": orders()})
    for pid in (0, 4, 99):
        with pytest.raises(UnknownPid, match=f"pid {pid} was never issued by a source"):
            trace(res.audit, pid)


def test_audit_document_is_json_friendly_and_timeless():
    res = priced_graph().run({"orders": orders()})
    doc = audit_document(res.audit, conservation_check(res.audit))
    assert set(doc) == {"sources", "stages", "sinks", "reports",
                        "paths", "conservation"}
    assert "timings" not in doc
    assert doc["conservation"]["ok"] is True


def test_pid_ranges_writes_runs_of_consecutive_pids():
    assert pid_ranges(set()) == ""
    assert pid_ranges([5]) == "5"
    assert pid_ranges({5, 6}) == "5-6"
    assert pid_ranges({1, 2, 3, 7, 9, 10, 11, 12}) == "1-3,7,9-12"
    assert pid_ranges([12, 3, 1, 10, 7, 2, 11, 9]) == "1-3,7,9-12"
    assert pid_ranges(frozenset({4, 2, 8, 6})) == "2,4,6,8"
    assert pid_ranges(frozenset(range(1, 25_001))) == "1-25000"


def test_dashboard_reads_as_stable_text():
    res = priced_graph().run({"orders": orders()})
    report = conservation_check(res.audit)
    doc = dashboard_document(priced_graph(), res, report)
    text = render_dashboard(doc)
    assert text == render_dashboard(dashboard_document(priced_graph(), res, report))
    assert "conservation: balanced" in text
    assert "priced: 2 rows" in text


def test_a_report_lists_only_its_own_checks_on_the_dashboard():
    g = priced_graph(stage="main")  # named like the sinks' default report
    res = g.run({"orders": orders()})
    report = conservation_check(res.audit)
    assert "stage:main" in [c.name for c in report.checks]
    doc = dashboard_document(g, res, report)
    assert [c["name"] for c in doc["reports"]["main"]["checks"]] == [
        "coverage:main", "measure:main:count", "measure:main:sum[qty:kg]",
        "measure:main:sum[qty:lb]", "measure:main:paccioli[price]"]


# -- the lookup helper --------------------------------------------------

def test_add_lookup_wires_the_three_way_outcome():
    left = schema(FieldSpec("sku", "text"), FieldSpec("n", "integer"))
    right = schema(FieldSpec("sku", "text"), FieldSpec("price", "decimal"))
    g = PipelineGraph("lk")
    g.add_source("orders", left)
    g.add_source("prices", right)
    ends = add_lookup(g, "match", [("sku", "sku")], "main")
    g.add_sink("ok", "report")
    g.connect(ends["inner"], "ok")
    g.connect("orders", "match.left")
    g.connect("prices", "match.right")
    assert g.validate() == []
    res = g.run({
        "orders": ingest(left, [{"sku": "a", "n": 1}, {"sku": "x", "n": 2}]),
        "prices": ingest(right, [{"sku": "a", "price": D(5)},
                                 {"sku": "z", "price": D(9)}], 10),
    })
    assert ends == {"inner": "match.inner", "left": "match.left",
                    "right": "match.right"}
    assert [r.fields["sku"] for r in res.sinks["ok"].rows] == ["a"]
    missing = res.sinks["match_missing_sink"]
    unused = res.sinks["match_unused_sink"]
    assert [r.fields["sku"] for r in missing.rows] == ["x"]
    assert [r.fields["error_reason"] for r in missing.rows] == ["missing"]
    assert [r.fields["sku"] for r in unused.rows] == ["z"]
    assert [r.fields["error_reason"] for r in unused.rows] == ["unused"]
