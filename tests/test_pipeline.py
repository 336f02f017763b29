"""Pipeline graphs: wiring rules, execution, audit and dashboards."""

import pickle
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal

import pytest

from tallyflow import (
    AggregateNode,
    AggSpec,
    Col,
    Compare,
    DedupNode,
    ErrorizeNode,
    FieldDefined,
    FieldSpec,
    FnNotTotal,
    InvalidGraph,
    JoinNode,
    Lit,
    MapNode,
    Missing,
    MissingInput,
    NumOf,
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
    TallyError,
    TeeNode,
    UnknownPid,
    UntagNode,
    attribution_classes,
    audit_document,
    conservation_check,
    dashboard_document,
    ingest,
    pids,
    quantity_sum_space,
    render_dashboard,
    schema,
    trace,
)
from tallyflow.audit import build_charges, path_classes, pid_ranges
from tallyflow.exprs import encode_expr, encode_pred
from tallyflow.pipeline import NODE_TYPES, ConservationSpec, Node, RunAudit
from tallyflow.pipeline_doc import _make_node, build_graph


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

def test_an_inputs_mapping_wires_ports_like_port_keys():
    def joined(wiring):
        return build_graph({
            "name": "w", "sources": {"orders": {}, "stock": {}},
            "nodes": [{"op": "join", "name": "j", "keys": [["item", "item"]], **wiring}],
            "sinks": {"both": {"from": "j.inner"},
                      "orders_only": {"kind": "error", "from": "j.left_only"},
                      "stock_only": {"kind": "error", "from": "j.right_only"}},
        }, {"orders": ORDERS, "stock": schema(FieldSpec("item", "text"),
                                              FieldSpec("held", "integer"))})
    by_keys = joined({"left": "orders", "right": "stock"})
    by_inputs = joined({"inputs": {"left": "orders", "right": "stock"}})
    assert by_inputs.wires == by_keys.wires
    assert by_inputs.validate() == []
    typo = joined({"inputs": {"left": "orders", "rihgt": "stock"}})
    assert [(v.kind, v.where) for v in typo.validate()] == [
        ("UnknownEndpoint", "j.rihgt"), ("UnwiredInput", "j.right")]


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


def test_num_over_the_min_of_no_values_is_refused_before_a_row_is_sunk():
    # typing cannot see this one: a group whose prices are all missing has
    # no minimum (its payload is +Infinity), so num refuses it when the row
    # is computed, and run() returns no sink at all
    g = PipelineGraph("t")
    g.add_source("orders", ORDERS)
    g.add_node(AggregateNode("cheapest", ("item",), (AggSpec("price", "min"),)))
    g.add_node(MapNode("floor", {"floor": NumOf(Col("price_min"))}, {"floor": "decimal"}))
    g.connect("orders", "cheapest.in")
    g.connect("cheapest.out", "floor.in")
    g.add_sink("floors", "report")
    g.connect("floor.out", "floors")
    assert g.validate() == []
    unpriced = ingest(ORDERS, [
        {"item": "bolt", "qty": Quantity(D(4), "kg"), "price": D(2)},
        {"item": "nut", "qty": Quantity(D(1), "kg"), "price": Missing("empty")},
    ])
    with pytest.raises(FnNotTotal, match="floor"):
        g.run({"orders": unpriced})


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
        "tagged_union": ({"label": "both"}, TaggedUnionNode("s")),
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


def test_an_invalid_graph_error_survives_pickling():
    # so that one raised in a forked fuzz worker reaches the caller intact
    g = PipelineGraph("t")
    g.add_source("src", ORDERS)
    with pytest.raises(InvalidGraph) as info:
        g.run({"src": orders()})
    back = pickle.loads(pickle.dumps(info.value))
    assert type(back) is InvalidGraph
    assert (str(back), back.violations) == (str(info.value), info.value.violations)
    assert back.violations


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


def test_run_refuses_sources_that_share_pids():
    g = PipelineGraph("t")
    for name in ("a", "b"):
        g.add_source(name, ORDERS)
        g.add_sink(f"{name}_out", "report")
        g.connect(name, f"{name}_out")
    # two ingest() calls without first_pid both issue pids 1-3
    with pytest.raises(TallyError, match="sources 'a' and 'b' share pids"):
        g.run({"a": orders(), "b": orders()})
    own = ingest(ORDERS, [rec.fields for rec in orders().rows], first_pid=4)
    assert g.run({"a": orders(), "b": own}).audit.source_pids["b"] == {4, 5, 6}


def test_run_refuses_a_source_whose_rows_share_a_pid():
    # the ledger keys each source row by its pid, so a second row under the
    # same pid would replace the first and both checks would still balance
    sch = schema(FieldSpec("item", "text"), FieldSpec("price", "decimal", "$"))
    g = PipelineGraph("t")
    g.add_source("src", sch)
    g.add_sink("out", "report")
    g.connect("src", "out")
    g.add_conservation("count")
    g.add_conservation("sum", "price")
    shared = Relation(sch, (Record({2}, {"item": "a", "price": D(5)}),
                            Record({1}, {"item": "b", "price": D(1)}),
                            Record({2}, {"item": "c", "price": D(7)}),
                            Record({1}, {"item": "d", "price": D(3)})))
    with pytest.raises(TallyError, match="source 'src' has rows that share pid 1; "
                                         "each source row needs its own pid"):
        g.run({"src": shared})
    fresh = g.run({"src": ingest(sch, [r.fields for r in shared.rows])}).audit
    assert fresh.totals == {"count": {"src": 4}, "sum[price]": {"src": D(16)}}


def test_a_source_needs_a_plain_schema():
    g = PipelineGraph("t")
    with pytest.raises(SchemaMismatch, match="source 'src' needs a plain schema"):
        g.add_source("src", SumSchema(ORDERS, ORDERS))
    assert g.sources == {}


def measured_graph(scheme, fld, *schemas):
    """Sources s0, s1, ... each sunk whole, balancing one measure."""
    g = PipelineGraph("m")
    for i, sch in enumerate(schemas):
        g.add_source(f"s{i}", sch)
        g.add_sink(f"k{i}", "report")
        g.connect(f"s{i}", f"k{i}")
    g.add_conservation(scheme, fld)
    return g


@pytest.mark.parametrize("scheme, fld, sem", [
    ("sum", "ghost", "decimal"),      # no such field
    ("paccioli", "item", "decimal"),  # a text field
    ("sum", "qty", "decimal"),        # a quantity field
    ("sum_by_unit", "price", "quantity"),
])
def test_a_measure_no_source_carries_is_a_violation(scheme, fld, sem):
    g = measured_graph(scheme, fld, ORDERS)
    assert [(v.kind, v.where, v.detail) for v in g.validate()] == [
        ("UnmeasuredField", f"{scheme}[{fld}]", f"no source has a {sem} field {fld!r}")]
    with pytest.raises(InvalidGraph):
        g.run({"s0": orders()})


def amounts(unit):
    return schema(FieldSpec("amt", "decimal", unit))


@pytest.mark.parametrize("scheme, units, detail", [
    ("sum", ("$", "EUR"), "carriers declare s0: $, s1: EUR"),
    ("sum", ("$", None), "carriers declare s0: $, s1: no unit"),
    ("paccioli", ("$", "EUR"), "carriers declare s0: $, s1: EUR"),
], ids=["dollars-euros", "dollars-no-unit", "paccioli-dollars-euros"])
def test_a_sum_over_unlike_units_is_a_violation(scheme, units, detail):
    g = measured_graph(scheme, "amt", *(amounts(u) for u in units))
    assert [(v.kind, v.where, v.detail) for v in g.validate()] == [
        ("MixedUnits", f"{scheme}[amt]", detail)]
    with pytest.raises(InvalidGraph):
        g.run({"s0": ingest(amounts(units[0]), [{"amt": D(5)}]),
               "s1": ingest(amounts(units[1]), [{"amt": D(7)}], first_pid=2)})


def test_a_sum_reads_only_its_carriers():
    # s1's amt is text, so s1 carries no sum[amt] and its unit does not count
    g = measured_graph("sum", "amt", amounts("$"), schema(FieldSpec("amt", "text")))
    assert g.validate() == []
    res = g.run({"s0": ingest(amounts("$"), [{"amt": D(5)}]),
                 "s1": ingest(schema(FieldSpec("amt", "text")), [{"amt": "7"}], first_pid=2)})
    assert res.audit.space_units["sum[amt]"].unit == "$"
    assert res.audit.charges["sum[amt]"].keys() == {1}
    assert conservation_check(res.audit).ok


def test_a_multi_pid_source_row_charges_its_smallest_pid():
    # one row carrying pids {3, 4}, fanned out to two sinks of one report
    g = PipelineGraph("m")
    g.add_source("s", amounts("$"))
    g.add_node(TeeNode("fan"))
    g.connect("s", "fan.in")
    for i, port in enumerate(("left", "right")):
        g.add_sink(f"k{i}", "report")
        g.connect(f"fan.{port}", f"k{i}")
    for scheme, fld in (("count", None), ("sum", "amt"), ("paccioli", "amt")):
        g.add_conservation(scheme, fld)
    res = g.run({"s": Relation(amounts("$"), (Record(frozenset({3, 4}), {"amt": D("-2.5")}),))})
    # pid 4 has no entry: the check reads it as the unit payload
    assert res.audit.charges == {
        "count": {3: 2},
        "sum[amt]": {3: D("-2.5")},
        "paccioli[amt]": {3: (D(0), D("2.5"))},
    }
    got = verdicts(res)
    assert got["measure:main:count"] == (True, "sinks 2 == sources 2")
    assert got["measure:main:sum[amt]"] == (True, "sinks -2.5 $ == sources -2.5 $")
    assert got["measure:main:paccioli[amt]"] == (
        True, "sinks dr 0 / cr 2.5 == sources dr 0 / cr 2.5")


def test_sum_by_unit_reads_each_carrier_once_for_every_unit():
    qty = schema(FieldSpec("item", "text"), FieldSpec("qty", "quantity"))
    # the unit labels first appear in the order lb, kg, t
    s0 = ingest(qty, [{"item": "a", "qty": Quantity(D(1), "lb")},
                      {"item": "b", "qty": Missing("empty")},
                      {"item": "c", "qty": Quantity(D("4.5"), "kg")}])
    s1 = ingest(qty, [{"item": "d", "qty": Quantity(D(2), "t")},
                      {"item": "e", "qty": Quantity(D("0.25"), "lb")},
                      {"item": "f", "qty": Quantity(D(3), "kg")}], first_pid=4)
    g = measured_graph("sum_by_unit", "qty", qty, qty)
    reads = Counter()

    class Fields(dict):
        def __getitem__(self, key):
            reads[key] += 1
            return super().__getitem__(key)

    def counted(rel):
        return Relation(rel.schema, tuple(Record(r.pids, Fields(r.fields)) for r in rel.rows))

    inputs = {"s0": counted(s0), "s1": counted(s1)}
    res = g.run(inputs)
    reads.clear()
    build_charges(g, RunAudit(), inputs)
    assert reads == {"qty": 6}  # one read per carrier row, for all three units
    assert [(c.name, c.ok, c.detail) for c in conservation_check(res.audit).checks
            if c.name.startswith("measure:")] == [
        ("measure:main:sum[qty:kg]", True, "sinks 7.5 kg == sources 7.5 kg"),
        ("measure:main:sum[qty:lb]", True, "sinks 1.25 lb == sources 1.25 lb"),
        ("measure:main:sum[qty:t]", True, "sinks 2 t == sources 2 t"),
    ]
    # a carrier pid has an entry only in its own quantity's unit space
    assert {space: c.keys() for space, c in res.audit.charges.items()} == {
        "sum[qty:kg]": {3, 6}, "sum[qty:lb]": {1, 5}, "sum[qty:t]": {4}}
    # each carrier's total is what its unit's space measures
    for unit in ("kg", "lb", "t"):
        space = quantity_sum_space("qty", unit)
        assert res.audit.totals[space.name] == {
            "s0": space.measure(s0).payload, "s1": space.measure(s1).payload}


def test_a_conservation_spec_names_a_field_exactly_when_its_scheme_reads_one():
    with pytest.raises(ValueError, match="count conservation takes no field"):
        ConservationSpec("count", "x")
    with pytest.raises(ValueError, match="sum conservation needs a field"):
        ConservationSpec("sum")
    with pytest.raises(ValueError, match="unknown conservation scheme"):
        ConservationSpec("average", "x")


# -- execution and audit ------------------------------------------------

def test_rows_route_to_the_declared_sinks():
    res = priced_graph().run({"orders": orders()})
    assert [r.fields["item"] for r in res.sinks["priced"].rows] == ["bolt", "gear"]
    unpriced = res.sinks["unpriced"]
    assert [r.fields["item"] for r in unpriced.rows] == ["nut"]
    assert unpriced.rows[0].fields["error_stage"] == "has_price"
    assert "empty" in unpriced.rows[0].fields["error_reason"]


def test_run_orders_the_stages_once(monkeypatch):
    g = PipelineGraph("two")
    g.add_source("orders", ORDERS)
    g.add_node(PartitionNode("priced", FieldDefined("price"), rejected_to_errors=True))
    g.add_node(PartitionNode("named", FieldDefined("item"), rejected_to_errors=True))
    g.connect("orders", "named.in")
    g.connect("named.accepted", "priced.in")
    for port, sink in (("named.rejected", "nameless"), ("priced.rejected", "unpriced"),
                       ("priced.accepted", "priced_rows")):
        g.add_sink(sink, "report" if sink == "priced_rows" else "error")
        g.connect(port, sink)
    calls = Counter()
    topo_order = PipelineGraph._topo_order

    def counted(graph):
        calls["topo"] += 1
        return topo_order(graph)

    monkeypatch.setattr(PipelineGraph, "_topo_order", counted)
    for n in (1, 2):
        res = g.run({"orders": orders()})
        assert calls["topo"] == n
        assert [v.stage for v in res.audit.stage_visits] == ["named", "priced"]
    assert [r.fields["item"] for r in res.sinks["priced_rows"].rows] == ["bolt", "gear"]


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
    assert set(doc) == {"reports", "paths", "conservation"}
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


KEYS = schema(FieldSpec("k", "text"))


def reach_graph(right_only_report: str) -> PipelineGraph:
    """a's tee branches meet again before report A; b feeds only report B;
    the join of d with c sends inner and left_only to report B, and c also
    reaches A through a tee.  The join's right_only port feeds an errorize
    into an error sink of right_only_report."""
    g = PipelineGraph("reach")
    g.add_source("a", ORDERS)
    for name in "bcd":
        g.add_source(name, KEYS)
    for node in (TeeNode("t"), TaggedUnionNode("u"), StripTagsNode("s"), TeeNode("tc"),
                 JoinNode("j", (("k", "k"),)), ErrorizeNode("unused", "unused"),
                 ErrorizeNode("alone", "no partner")):
        g.add_node(node)
    for name, kind, label in (("a_rows", "report", "A"), ("c_unused", "error", "A"),
                              ("b_rows", "report", "B"), ("joined", "report", "B"),
                              ("unmatched", "error", "B"),
                              ("c_alone", "error", right_only_report)):
        g.add_sink(name, kind, label)
    for src, dst in (("a", "t.in"), ("t.left", "u.left"), ("t.right", "u.right"),
                     ("u.out", "s.in"), ("s.out", "a_rows"), ("b", "b_rows"),
                     ("c", "tc.in"), ("tc.left", "j.right"), ("tc.right", "unused.in"),
                     ("unused.out", "c_unused"), ("d", "j.left"), ("j.inner", "joined"),
                     ("j.left_only", "unmatched"), ("j.right_only", "alone.in"),
                     ("alone.out", "c_alone")):
        g.connect(src, dst)
    return g


def reach_inputs() -> dict:
    return {"a": orders(), "b": ingest(KEYS, [{"k": "x"}], 10),
            "c": ingest(KEYS, [{"k": "x"}, {"k": "z"}], 20),
            "d": ingest(KEYS, [{"k": "x"}, {"k": "y"}], 30)}


def test_report_sources_follow_every_port_to_every_sink():
    # reach is per source: c reaches A through its tee and B through the
    # join, so it counts toward both reports; d reaches only B
    g = reach_graph("B")
    res = g.run(reach_inputs())
    assert res.audit.report_sources == {"A": ("a", "c"), "B": ("b", "c", "d")}
    report = conservation_check(res.audit)
    assert report.ok
    assert audit_document(res.audit, report)["reports"] == {
        "A": {"sinks": ["a_rows", "c_unused"], "sources": ["a", "c"]},
        "B": {"sinks": ["b_rows", "joined", "unmatched", "c_alone"], "sources": ["b", "c", "d"]},
    }
    dash = dashboard_document(g, res, report)["reports"]
    assert {label: ([s["name"] for s in e["report_sinks"]], [s["name"] for s in e["error_sinks"]],
                    e["accounted_pids"], e["unaccounted_pids"]) for label, e in dash.items()} == {
        "A": (["a_rows"], ["c_unused"], 3, 2),
        "B": (["b_rows", "joined"], ["unmatched", "c_alone"], 3, 2),
    }


@pytest.mark.parametrize("right_only_report", ["A", "C"])
def test_a_stage_whose_ports_reach_different_reports_is_refused(right_only_report):
    # each report must hold all of a source's rows; a join that splits its
    # rows across reports left each report missing some of them, and the
    # run said BROKEN of a graph that lost no pid
    g = reach_graph(right_only_report)
    detail = f"inner, left_only reach B; right_only reaches {right_only_report}"
    assert [(v.kind, v.where, v.detail) for v in g.validate()] == [("SplitReport", "j", detail)]
    with pytest.raises(InvalidGraph, match="SplitReport@j"):
        g.run(reach_inputs())


# -- negative controls: stages that break the pid bookkeeping ----------


@dataclass(frozen=True)
class RewriteNode(Node):
    """A stage that rewrites its input's rows with a fixed function."""

    name: str
    rows: object  # rows of the input -> rows of the output

    def apply(self, ins: dict) -> dict:
        rel = ins["in"]
        return {"out": Relation(rel.schema, self.rows(rel.rows))}


def rewrite_graph(rows) -> PipelineGraph:
    g = PipelineGraph("rewrite")
    g.add_source("orders", ORDERS)
    g.add_conservation("count")
    g.add_node(RewriteNode("bad", rows))
    g.connect("orders", "bad.in")
    g.add_sink("kept", "report")
    g.connect("bad.out", "kept")
    return g


def verdicts(res) -> dict:
    return {c.name: (c.ok, c.detail) for c in conservation_check(res.audit).checks}


def test_a_stage_that_drops_a_row_is_caught():
    res = rewrite_graph(lambda rows: rows[1:]).run({"orders": orders()})
    got = verdicts(res)
    assert got["stage:bad"] == (False, "lost {1}, invented {}")
    assert got["coverage:all"] == (False, "missing from sinks {1}, unknown in sinks {}")
    assert got["coverage:main"] == (False, "missing {1}, foreign {}")
    assert trace(res.audit, 1) == (("orders", "out"),)


def test_a_stage_that_invents_a_pid_is_caught():
    def invent(rows):
        return rows + tuple(Record(frozenset({99}), r.fields) for r in rows[:1])

    res = rewrite_graph(invent).run({"orders": orders()})
    got = verdicts(res)
    assert got["stage:bad"] == (False, "lost {}, invented {99}")
    assert got["coverage:all"] == (False, "missing from sinks {}, unknown in sinks {99}")
    with pytest.raises(UnknownPid):
        trace(res.audit, 99)
    # the audit document still gives the invented pid its path
    assert path_classes(res.audit)[-1] == (
        (("bad", "out", 1), ("kept", "in", 1)), frozenset({99}))


def test_a_stage_that_copies_a_row_stays_balanced():
    res = rewrite_graph(lambda rows: rows + rows[:1]).run({"orders": orders()})
    report = conservation_check(res.audit)
    assert report.ok, report.checks
    assert trace(res.audit, 1) == (("orders", "out"), ("bad", "out"), ("bad", "out"),
                                   ("kept", "in"), ("kept", "in"))
    assert trace(res.audit, 2) == (("orders", "out"), ("bad", "out"), ("kept", "in"))
    assert path_classes(res.audit) == [
        ((("orders", "out", 1), ("bad", "out", 2), ("kept", "in", 2)), frozenset({1})),
        ((("orders", "out", 1), ("bad", "out", 1), ("kept", "in", 1)), frozenset({2, 3})),
    ]
