"""The typed query layer: static checks, compilation and the cross-check."""

import hashlib
import json
from decimal import Decimal

import pytest
import yaml

from tallyflow import (
    AggSpec,
    Aggregate,
    BaseRelation,
    BinOp,
    Col,
    Compare,
    CrossProduct,
    ExprTypeError,
    FieldDefined,
    FieldSpec,
    Intersect,
    JoinNode,
    Lit,
    Map,
    Minus,
    Missing,
    NaturalJoin,
    PipelineGraph,
    NumOf,
    OuterJoin,
    PartitionNode,
    PathTag,
    Project,
    Quantity,
    Rename,
    Select,
    StripTagsNode,
    TeeNode,
    Union,
    UnionAll,
    equivalence_check,
    field_names,
    infer_schema,
    ingest,
    make_case,
    reference_eval,
    schema,
    schema_field,
    translate,
)
from tallyflow.fuzz import OPERATOR_KINDS, run_share
from tallyflow.grammar import read
from tallyflow.pipeline_doc import DOCUMENT, build_graph
import tallyflow.ra as ra_mod
from tallyflow.ra import _children, base_names, query_document


D = Decimal

ITEMS = schema(
    FieldSpec("name", "text"),
    FieldSpec("commodity", "text"),
    FieldSpec("qty", "quantity"),
)
QUOTES = schema(
    FieldSpec("commodity", "text"),
    FieldSpec("price", "decimal", "$"),
)
CATALOG = {"items": ITEMS, "quotes": QUOTES}


def items():
    return ingest(ITEMS, [
        {"name": "grain", "commodity": "wheat", "qty": Quantity(D(200), "t")},
        {"name": "milk", "commodity": "milk", "qty": Quantity(D(5), "t")},
        {"name": "cat", "commodity": Missing("empty"), "qty": Quantity(D(1), "x")},
        {"name": "oil", "commodity": "nut oil", "qty": Quantity(D(9), "t")},
    ])


def quotes():
    return ingest(QUOTES, [
        {"commodity": "wheat", "price": D("6.10")},
        {"commodity": "wheat", "price": D("6.05")},
        {"commodity": "milk", "price": D("33.98")},
    ], 100)


def inputs():
    return {"items": items(), "quotes": quotes()}


# -- static typing ------------------------------------------------------

def test_schemas_flow_through_operators():
    q = Project(Select(BaseRelation("items"), FieldDefined("commodity")),
                ("name", "qty"))
    assert field_names(infer_schema(q, CATALOG)) == ("name", "qty")
    j = NaturalJoin(BaseRelation("items"), BaseRelation("quotes"))
    assert field_names(infer_schema(j, CATALOG)) == (
        "name", "commodity", "qty", "price")


def test_type_errors_carry_the_node_path():
    bad = Union(BaseRelation("items"),
                Project(BaseRelation("items"), ("ghost",)))
    with pytest.raises(ExprTypeError) as e:
        infer_schema(bad, CATALOG)
    assert "Union/right/Project" in str(e.value)
    mismatch = Union(BaseRelation("items"),
                     Project(BaseRelation("items"), ("name",)))
    with pytest.raises(ExprTypeError) as e2:
        infer_schema(mismatch, CATALOG)
    assert str(e2.value).startswith("Union:")


def test_type_errors_are_type_errors():
    with pytest.raises(TypeError):
        infer_schema(Project(BaseRelation("items"), ("ghost",)), CATALOG)


@pytest.mark.parametrize("bad", [
    BaseRelation("nope"),
    Project(BaseRelation("items"), ()),
    Project(BaseRelation("items"), ("name", "name")),
    Select(BaseRelation("items"), FieldDefined("ghost")),
    Rename(BaseRelation("items"), (("ghost", "x"),)),
    Rename(BaseRelation("items"), (("name", "qty"),)),
    CrossProduct(BaseRelation("items"), BaseRelation("items")),
    NaturalJoin(BaseRelation("quotes"),
                Rename(BaseRelation("quotes"),
                       (("commodity", "c"), ("price", "p")))),
    OuterJoin(BaseRelation("items"), BaseRelation("quotes"),
              (("name", "price"),)),
    Minus(BaseRelation("items"), BaseRelation("quotes")),
    Aggregate(BaseRelation("items"), ("ghost",), ()),
    Aggregate(BaseRelation("items"), (), (AggSpec("name", "sum"),)),
    Map(BaseRelation("items"), (("name", Lit(1)),)),
    Map(BaseRelation("items"), (("v", NumOf(Col("name"))),)),
    Map(BaseRelation("items"), (("v", Lit(Missing("none"))),)),
])
def test_ill_typed_queries_are_rejected_up_front(bad):
    with pytest.raises(ExprTypeError):
        infer_schema(bad, CATALOG)


def test_map_types_literals_and_arithmetic():
    q = Map(BaseRelation("quotes"),
            (("double", BinOp("mul", NumOf(Col("price")), Lit(2))),))
    sch = infer_schema(q, CATALOG)
    assert sch[-1].sem == "decimal"
    lit = Map(BaseRelation("quotes"), (("w", Lit(Quantity(D(1), "kg"))),))
    spec = infer_schema(lit, CATALOG)[-1]
    assert (spec.sem, spec.unit) == ("quantity", "kg")


def test_base_names_walks_leaves_in_order():
    q = Union(
        Select(BaseRelation("items"), FieldDefined("name")),
        BaseRelation("items"))
    assert base_names(q) == ["items", "items"]


# -- compiled pipelines match the naive evaluator -----------------------

def check(expr, data=None):
    v = equivalence_check(expr, data or inputs())
    assert v.ok, v.detail
    assert v.conservation_ok
    return v


def test_select_matches_reference():
    check(Select(BaseRelation("items"), Compare("lt", "qty", Quantity(D(100), "t"))))


def test_project_matches_reference():
    check(Project(BaseRelation("items"), ("commodity",)))


def test_rename_matches_reference():
    check(Rename(BaseRelation("quotes"), (("price", "usd"),)))


def test_cross_product_matches_reference():
    disjoint = Rename(BaseRelation("quotes"),
                      (("commodity", "c"), ("price", "p")))
    v = check(CrossProduct(BaseRelation("items"), disjoint))
    assert v.got_rows == 12


def test_natural_join_matches_reference():
    v = check(NaturalJoin(BaseRelation("items"), BaseRelation("quotes")))
    assert v.got_rows == 3


def test_missing_keys_never_join():
    # the cat row's commodity is missing; it must not match anything,
    # it must land on the error side instead
    q = NaturalJoin(BaseRelation("items"), BaseRelation("quotes"))
    res = reference_eval(q, inputs())
    assert all(r.fields["name"] != "cat" for r in res.rows)
    # compiled, it leaves through the join's left unmatched port: no
    # partition screens the keys first
    g = translate(q, CATALOG)
    assert not any(isinstance(n, PartitionNode) for n in g.nodes.values())
    (join,) = (n for n in g.nodes.values() if isinstance(n, JoinNode))
    feeds = {str(w.src): w.dst.owner for w in g.wires}
    left_drain = feeds[f"{feeds[f'{join.name}.left_only']}.out"]
    sinks = g.run(inputs()).sinks
    cats = [(name, r) for name, rel in sinks.items() for r in rel.rows
            if r.fields["name"] == "cat"]
    assert [name for name, _ in cats] == [left_drain]
    cat = cats[0][1]
    assert cat.fields["error_reason"] == "no match"
    assert cat.fields["commodity"] == Missing("empty")
    check(q)


def test_outer_join_matches_reference():
    q = OuterJoin(
        BaseRelation("items"),
        Rename(BaseRelation("quotes"), (("commodity", "c"), ("price", "p"))),
        (("commodity", "c"),))
    v = check(q)
    assert v.got_rows == 5  # 3 matches, plus padded rows for cat and oil
    unkeyed = ingest(QUOTES, [
        {"commodity": "wheat", "price": D("6.10")},
        {"commodity": "wheat", "price": D("6.05")},
        {"commodity": "milk", "price": D("33.98")},
        {"commodity": Missing("empty"), "price": D("1.00")},
    ], 100)
    v = check(q, {"items": items(), "quotes": unkeyed})
    assert v.got_rows == 6  # and a padded row for the quote without a commodity
    # one join: a row with a missing key leaves through its unmatched port
    nodes = translate(q, CATALOG).nodes.values()
    assert sum(isinstance(n, JoinNode) for n in nodes) == 1
    assert not any(isinstance(n, (PartitionNode, StripTagsNode)) for n in nodes)


def test_outer_join_pads_with_missing():
    q = OuterJoin(
        BaseRelation("items"),
        Rename(BaseRelation("quotes"), (("commodity", "c"), ("price", "p"))),
        (("commodity", "c"),))
    res = reference_eval(q, inputs())
    oil = [r for r in res.rows if r.fields["name"] == "oil"][0]
    assert isinstance(oil.fields["p"], Missing)


def test_union_dedups_and_union_all_does_not():
    doubled = Union(BaseRelation("items"), BaseRelation("items"))
    v = check(doubled)
    assert v.got_rows == 4
    both = UnionAll(BaseRelation("items"), BaseRelation("items"))
    v2 = check(both)
    assert v2.got_rows == 8
    # no stage pops a path tag: each answer row keeps the side it came in on
    graphs = [translate(q, CATALOG) for q in (doubled, both)]
    assert not any(isinstance(n, StripTagsNode) for g in graphs for n in g.nodes.values())
    rows = graphs[1].run({"items": items()}).sinks["result"].rows
    assert [(r.pids, r.tags) for r in rows] == [
        (rec.pids, (PathTag(side),)) for side in ("inl", "inr") for rec in items().rows]


def test_minus_and_intersect_match_reference():
    some = Select(BaseRelation("items"), FieldDefined("commodity"))
    v = check(Minus(BaseRelation("items"), some))
    assert v.got_rows == 1  # only the cat row lacks a commodity
    v2 = check(Intersect(BaseRelation("items"), some))
    assert v2.got_rows == 3


def test_set_ops_treat_missing_rows_as_equal():
    # two relations that agree only up to the reason inside a missing cell
    sch = schema(FieldSpec("k", "text"))
    a = ingest(sch, [{"k": Missing("empty")}, {"k": "x"}])
    b = ingest(sch, [{"k": Missing("n/a")}], 10)
    v = check(Intersect(BaseRelation("a"), BaseRelation("b")),
              {"a": a, "b": b})
    assert v.got_rows == 1


def test_aggregate_matches_reference():
    q = Aggregate(BaseRelation("quotes"), ("commodity",),
                  (AggSpec("price", "min"),))
    v = check(q)
    assert v.got_rows == 2


def test_aggregate_subdivides_quantity_units():
    q = Aggregate(BaseRelation("items"), (), (AggSpec("qty", "sum"),))
    v = check(q)
    assert v.got_rows == 2  # tonnes and the cat's odd unit


def test_map_matches_reference():
    q = Map(BaseRelation("quotes"),
            (("cents", BinOp("mul", NumOf(Col("price")), Lit(100))),))
    check(q)


def test_map_over_summaries_matches_reference():
    # the query twin of a pipeline document's {num: {col: Price_min}}
    summary = Aggregate(BaseRelation("quotes"), ("commodity",),
                        (AggSpec("price", "sum"), AggSpec("price", "min")))
    q = Map(summary, (("total", NumOf(Col("price_sum"))),
                      ("floor", BinOp("mul", NumOf(Col("price_min")), Col("count"))),
                      ("rows", NumOf(Col("count")))))
    assert [s.sem for s in infer_schema(q, CATALOG)[-3:]] == ["decimal"] * 3
    v = check(q)
    assert v.got_rows == 2


def test_num_over_an_average_is_a_refusal_not_a_crash():
    # typing sees only "summary", so the oracle meets the avg on its first
    # row; it refuses as the engine does, and the check reports a verdict
    summary = Aggregate(BaseRelation("quotes"), ("commodity",), (AggSpec("price", "avg"),))
    v = equivalence_check(Map(summary, (("m", NumOf(Col("price_avg"))),)), inputs())
    assert not v.ok
    assert v.detail.startswith("FnNotTotal: no numeric view of ")


def test_deep_compositions_match_reference():
    q = Aggregate(
        Select(
            NaturalJoin(BaseRelation("items"), BaseRelation("quotes")),
            Compare("gt", "price", D(6))),
        ("commodity",),
        (AggSpec("price", "max"),))
    check(q)


def test_the_checker_can_see_a_divergence():
    # deliberately mistranslate: a union without its duplicate removal
    expr = Union(BaseRelation("items"), BaseRelation("items"))
    wrong = translate(UnionAll(BaseRelation("items"), BaseRelation("items")),
                      {"items": ITEMS})
    v = equivalence_check(expr, {"items": items()}, graph=wrong)
    assert not v.ok
    assert v.expected_rows == 4 and v.got_rows == 8
    assert v.detail == "row expected 1x but produced 2x: name=grain, commodity=wheat, qty=200 t"


def test_the_checker_names_a_row_it_did_not_expect():
    # deliberately mistranslate: a selection that keeps every row
    expr = Select(BaseRelation("items"), FieldDefined("commodity"))
    wrong = translate(BaseRelation("items"), {"items": ITEMS})
    v = equivalence_check(expr, {"items": items()}, graph=wrong)
    assert not v.ok
    assert v.expected_rows == 3 and v.got_rows == 4
    assert v.detail == ("row produced 1x but expected 0x: "
                        "name=cat, commodity=<missing: empty>, qty=1 x")


def test_the_first_fuzz_failure_names_its_case_and_prints_an_evaluable_query(monkeypatch):
    import tallyflow.fuzz as fuzz_mod
    # planted by case, not by call count, since forked workers run some cases;
    # 2 and 5 sit in different shares when the job runs in two
    planted = [make_case(4, 2)[0], make_case(4, 5)[0]]

    def fail_iterations_2_and_5(expr, tables):
        return ra_mod.Verdict(expr not in planted, "planted divergence", 1, 2, True)

    monkeypatch.setattr(fuzz_mod, "equivalence_check", fail_iterations_2_and_5)
    report = fuzz_mod.run_fuzz(4, 6)
    assert report.failures == 2
    head, query = report.first_failure.split("\n")
    assert head == "iteration 2 (seed 4): planted divergence"
    assert query.startswith("query: ")
    names: dict = {}
    exec("from tallyflow.ra import *", names)
    assert eval(query[len("query: "):], names) == make_case(4, 2)[0]


def test_the_checker_validates_each_graph_once(monkeypatch):
    calls = []
    validate = PipelineGraph.validate

    def counted_validate(graph):
        calls.append(graph.name)
        return validate(graph)

    monkeypatch.setattr(PipelineGraph, "validate", counted_validate)
    assert equivalence_check(BaseRelation("items"), inputs()).ok
    assert len(calls) == 1
    unwired = PipelineGraph("unwired")
    unwired.add_source("items", ITEMS)
    v = equivalence_check(BaseRelation("items"), inputs(), graph=unwired)
    assert len(calls) == 2
    assert not v.ok
    assert v.detail == "graph does not validate: UnconsumedPort@items.out"
    assert (v.expected_rows, v.got_rows) == (4, 0)


def test_translation_reports_every_input_pid_somewhere():
    q = Select(BaseRelation("items"), FieldDefined("commodity"))
    g = translate(q, {"items": ITEMS})
    res = g.run({"items": items()})
    seen = frozenset().union(*(rel and {p for r in rel.rows for p in r.pids}
                               for rel in res.sinks.values()))
    assert seen == frozenset({1, 2, 3, 4})



def _stages(expr) -> int:
    """Stages compiled for expr over CATALOG, not counting tees."""
    g = translate(expr, CATALOG)
    return sum(not isinstance(n, TeeNode) for n in g.nodes.values())


DISJOINT_QUOTES = Rename(BaseRelation("quotes"), (("commodity", "c"), ("price", "p")))


# each operator over base relations, and the stages it compiles to of its own
OWN_STAGES = [
    (Select(BaseRelation("items"), FieldDefined("commodity")), 1),
    (Project(BaseRelation("items"), ("name",)), 1),
    (Rename(BaseRelation("quotes"), (("price", "usd"),)), 1),
    (CrossProduct(BaseRelation("items"), DISJOINT_QUOTES), 3),
    (NaturalJoin(BaseRelation("items"), BaseRelation("quotes")), 3),
    (OuterJoin(BaseRelation("items"), BaseRelation("quotes"),
               (("commodity", "commodity"),)), 6),
    (Union(BaseRelation("items"), BaseRelation("items")), 2),
    (UnionAll(BaseRelation("items"), BaseRelation("items")), 1),
    (Minus(BaseRelation("items"), BaseRelation("items")), 5),
    (Intersect(BaseRelation("items"), BaseRelation("items")), 5),
    (Aggregate(BaseRelation("items"), ("commodity",), (AggSpec("qty", "sum"),)), 2),
    (Map(BaseRelation("quotes"), (("double", BinOp("mul", NumOf(Col("price")), Lit(2))),)), 1),
]


@pytest.mark.parametrize("expr, own", OWN_STAGES,
                         ids=[type(expr).__name__ for expr, _ in OWN_STAGES])
def test_each_operator_compiles_to_its_own_stages(expr, own):
    # a natural join is one join and its two unmatched drains, as its
    # missing keys leave through the unmatched ports
    assert _stages(expr) - sum(_stages(c) for _, c in _children(expr)) == own


# sha256 of the compiled documents of make_case(seed, i), seeds 0 and 1, i < 300
COMPILED_GRAPHS_DIGEST = "9e874b9cff450abd7b0ef23c6ecda35f3418ac140a871101a4f8301d0c3e0b4d"


def test_compiled_graphs_match_their_pinned_digest():
    """Query results cannot show a renamed stage or a reordered wire; this
    pins the documents translate() builds from: stage names and parameters
    in declaration order, their feeds, sinks and conservation specs."""
    digest = hashlib.sha256()
    roots = set()
    for seed in (0, 1):
        for i in range(300):
            expr, tables = make_case(seed, i)
            roots.add(type(expr))
            doc = query_document(expr, {name: t.schema for name, t in tables.items()})
            digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert roots == set(OPERATOR_KINDS)
    assert digest.hexdigest() == COMPILED_GRAPHS_DIGEST


@pytest.mark.parametrize("i", range(len(OPERATOR_KINDS)), ids=[k.__name__ for k in OPERATOR_KINDS])
def test_a_compiled_document_survives_yaml_text(i):
    expr, tables = make_case(0, i)
    assert type(expr) is OPERATOR_KINDS[i]  # make_case roots case i at OPERATOR_KINDS[i % 12]
    catalog = {name: t.schema for name, t in tables.items()}
    text = yaml.safe_dump(query_document(expr, catalog), sort_keys=False)
    g = build_graph(read(DOCUMENT, yaml.safe_load(text), "query.yaml"), catalog)
    want = translate(expr, catalog)
    assert g.sources == want.sources
    assert g.nodes == want.nodes
    assert g.sinks == want.sinks
    assert g.wires == want.wires
    assert g.conservation == want.conservation


def test_a_compiled_document_the_grammar_refuses_fails_its_case(monkeypatch):
    # negative control: an undeclared key in one node entry of every
    # compiled document
    real = ra_mod.query_document

    def planted(*args, **kwargs):
        doc = real(*args, **kwargs)
        doc["nodes"][-1]["bogus"] = 1
        return doc

    monkeypatch.setattr(ra_mod, "query_document", planted)
    q = Select(BaseRelation("items"), FieldDefined("commodity"))
    with pytest.raises(ExprTypeError, match=r"^query: nodes\[0\] \(partition 'select_1'\): "
                                            r"needs one of the keys .*, not 'bogus'$"):
        translate(q, CATALOG)
    failures, first, _ = run_share(0, 3, 0, 1)
    assert failures == 3
    assert first[1].startswith("iteration 0 (seed 0): ExprTypeError: query: nodes[")


def test_a_literal_four_places_cannot_hold_is_refused_not_rounded():
    q = Select(BaseRelation("quotes"), Compare("gt", "price", D("1.23456")))
    with pytest.raises(ExprTypeError, match="the literal 1.23456 does not fit"):
        translate(q, CATALOG)
    # four places hold 1.5 exactly: the document reads it as 1.5000, the same value
    g = translate(Select(BaseRelation("quotes"), Compare("gt", "price", D("1.5"))), CATALOG)
    assert g.nodes["select_1"].pred == Compare("gt", "price", D("1.5"))
    assert str(g.nodes["select_1"].pred.value) == "1.5000"


def _cell_document(v):
    if isinstance(v, Missing):
        return ["missing", v.reason]
    if isinstance(v, Quantity):
        return ["qty", str(v.amount), v.unit]
    if isinstance(v, Decimal):
        return ["dec", str(v)]
    return [type(v).__name__, v]


# sha256 of the tables of make_case(seed, i), seeds 0 and 1, i < 300
GENERATED_ROWS_DIGEST = "dcaf5cd9229968ef730c459679fd06bcb60d98fcfca92db9dce771ab179f62ad"


def test_generated_fuzz_rows_match_their_pinned_digest():
    """The compiled-graph digest sees only table schemas, so a generator
    that drew other cells with the same number of draws would pass it;
    this pins every table's pids and cells, in row and schema order."""
    digest = hashlib.sha256()
    for seed in (0, 1):
        for i in range(300):
            _, tables = make_case(seed, i)
            for name, rel in tables.items():
                names = field_names(rel.schema)
                doc = [name, list(names), [[sorted(rec.pids), [_cell_document(rec.fields[n])
                                                               for n in names]]
                                           for rec in rel.rows]]
                digest.update(json.dumps(doc).encode() + b"\n")
    assert digest.hexdigest() == GENERATED_ROWS_DIGEST


def _aggregates(expr):
    if isinstance(expr, Aggregate):
        yield expr
    for _, child in _children(expr):
        yield from _aggregates(child)


def test_the_generator_draws_aggregates_by_asking_ops():
    # aggregate_schema accepts a spec on a quantity f beside an input
    # column f_unit that is not a group key, so a generator that asks it
    # draws such aggregates too
    def first():
        for seed in range(10):
            for i in range(1000):
                expr, tables = make_case(seed, i)
                catalog = {name: t.schema for name, t in tables.items()}
                for agg in _aggregates(expr):
                    sch = infer_schema(agg.of, catalog)
                    if any(schema_field(sch, s.field).sem == "quantity"
                           and f"{s.field}_unit" in field_names(sch) for s in agg.specs):
                        return seed, i
        return None

    assert first() == (0, 202)
    assert equivalence_check(*make_case(0, 202)).ok


def _ast_nodes(expr) -> int:
    return 1 + sum(_ast_nodes(child) for _, child in _children(expr))


def _count_infer_calls(monkeypatch) -> list:
    """Count every _infer call in calls[0] from now on."""
    calls = [0]
    real = ra_mod._infer

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ra_mod, "_infer", counted)
    return calls


def test_translate_types_each_query_node_once(monkeypatch):
    calls = _count_infer_calls(monkeypatch)
    for i in range(500):
        expr, tables = make_case(0, i)
        before = calls[0]
        translate(expr, {name: t.schema for name, t in tables.items()})
        assert calls[0] - before <= _ast_nodes(expr), i


def test_the_oracle_types_each_query_node_once(monkeypatch):
    calls = _count_infer_calls(monkeypatch)
    for i in range(500):
        expr, tables = make_case(0, i)
        before = calls[0]
        reference_eval(expr, tables)
        assert calls[0] - before <= _ast_nodes(expr), i


def test_an_equivalence_check_types_each_query_node_once(monkeypatch):
    calls = _count_infer_calls(monkeypatch)
    for i in range(300):
        expr, tables = make_case(0, i)
        before = calls[0]
        assert equivalence_check(expr, tables).ok, i
        assert calls[0] - before <= _ast_nodes(expr), i


def test_the_typer_and_the_engine_agree_on_every_result_schema():
    # the fuzz cross-check compares row values only, so it cannot see a unit
    for seed in (0, 1):
        for i in range(300):
            expr, tables = make_case(seed, i)
            catalog = {name: t.schema for name, t in tables.items()}
            g = translate(expr, catalog)
            got = g.run({n: tables[n] for n in g.sources}).sinks["result"].schema
            assert got == infer_schema(expr, catalog), (seed, i)


def test_a_field_name_of_two_types_gets_a_measure_for_each():
    # b's quantity x is renamed away, but its source still carries it
    a = schema(FieldSpec("x", "decimal", "$"))
    b = schema(FieldSpec("x", "quantity"))
    q = CrossProduct(BaseRelation("a"), Rename(BaseRelation("b"), (("x", "y"),)))
    g = translate(q, {"a": a, "b": b})
    assert [(c.scheme, c.fld) for c in g.conservation] == [
        ("count", None), ("sum_by_unit", "x"), ("paccioli", "x")]
    tables = {"a": ingest(a, [{"x": D("1.5")}, {"x": D(-2)}]),
              "b": ingest(b, [{"x": Quantity(D(3), "kg")}, {"x": Quantity(D(4), "t")}], 10)}
    assert equivalence_check(q, tables).ok
