"""Row predicates and expressions: three-valued, total, serializable."""

from decimal import Decimal
from random import Random

import pytest

from tallyflow import (
    All,
    Always,
    AnyOf,
    BinOp,
    Col,
    Compare,
    ExprTypeError,
    FieldDefined,
    FieldSpec,
    FnNotTotal,
    InSet,
    Kind,
    Lit,
    Missing,
    MonoidElement,
    Not,
    NumOf,
    Quantity,
    UnitOf,
    UnknownField,
    avg_of,
    count,
    ingest,
    min_of,
    partition_detailed,
    schema,
)
from tallyflow.exprs import (
    EXPR,
    PRED,
    VALUE,
    compile_expr,
    compile_pred,
    describe,
    encode_expr,
    encode_pred,
    encode_value,
)
from tallyflow.fuzz import _Gen
from tallyflow.grammar import read
from tallyflow.ra import _o_pred


D = Decimal


def decode_value(doc):
    return read(VALUE, doc, "value")


def decode_pred(doc):
    return read(PRED, doc, "predicate")


def decode_expr(doc):
    return read(EXPR, doc, "expression")

SCH = schema(
    FieldSpec("i", "integer"),
    FieldSpec("d", "decimal"),
    FieldSpec("t", "text"),
    FieldSpec("q", "quantity"),
    FieldSpec("m", "integer"),
)

ROW = {
    "i": 1,
    "d": D("1.5"),
    "t": "b",
    "q": Quantity(D(2), "kg"),
    "m": Missing("empty"),
}


def columns(sch, rows) -> tuple:
    """The columns of rows, a list of field dicts, one per field of sch."""
    return tuple(tuple(row[s.name] for row in rows) for s in sch)


def verdict(p):
    """p's verdict on ROW: the one cell of its verdict column over [ROW]."""
    [v] = compile_pred(p, SCH)(columns(SCH, [ROW]), 1)
    return v


def state(p):
    """"t" where p holds on ROW, else "u" or "f" as its verdict is unknown or false."""
    v = verdict(p)
    return "t" if v is None else "u" if v[0] else "f"


def value(e):
    """e's value on ROW: the one cell of its column over [ROW]."""
    [v] = compile_expr(e, SCH)[0](columns(SCH, [ROW]), 1)
    return v


# -- three-valued evaluation -------------------------------------------

def test_defined_is_two_valued():
    assert state(FieldDefined("i")) == "t"
    assert state(FieldDefined("m")) == "f"


def test_comparing_a_missing_cell_is_unknown_not_false():
    assert state(Compare("eq", "m", 1)) == "u"
    assert verdict(Compare("eq", "m", 1)) == (True, "m missing: empty")


def test_equality_is_strict_about_types():
    assert state(Compare("eq", "i", 1)) == "t"
    # numerically equal but differently typed cells stay distinct
    # numerically equal but differently typed cells stay distinct, so a
    # literal that no cell of its field could equal is refused up front
    with pytest.raises(ExprTypeError, match="i is integer, so the decimal literal 1.0000 "
                                            "cannot match it"):
        state(Compare("eq", "i", D("1.0000")))
    with pytest.raises(ExprTypeError, match="i is integer, so the text literal '1' cannot "
                                            "match it"):
        state(Compare("ne", "i", "1"))


def test_ordered_compare_mixes_int_and_decimal():
    assert state(Compare("lt", "i", D("1.5"))) == "t"
    assert state(Compare("ge", "d", 1)) == "t"
    assert state(Compare("lt", "t", "c")) == "t"


def test_quantities_compare_within_one_unit_only():
    assert state(Compare("lt", "q", Quantity(D(5), "kg"))) == "t"
    assert state(Compare("lt", "q", Quantity(D(5), "lb"))) == "u"


def test_ordering_unlike_types_is_unknown():
    # only a bare missing literal meets a field of any type
    assert state(Compare("lt", "t", Missing("none"))) == "u"
    for p in (Compare("lt", "t", 5), InSet("t", ("a", 5)), Compare("eq", "q", D(2))):
        with pytest.raises(ExprTypeError, match="cannot match it"):
            state(p)


def test_not_flips_and_keeps_unknown():
    assert state(Not(FieldDefined("m"))) == "t"
    assert state(Not(Compare("eq", "m", 1))) == "u"


def test_all_is_kleene_conjunction():
    t = Compare("eq", "i", 1)
    f = Compare("eq", "i", 2)
    u = Compare("eq", "m", 1)
    assert state(All((t, t))) == "t"
    assert state(All((t, u))) == "u"
    assert state(All((f, u))) == "f"
    assert state(All(())) == "t"


def test_any_is_kleene_disjunction():
    t = Compare("eq", "i", 1)
    f = Compare("eq", "i", 2)
    u = Compare("eq", "m", 1)
    assert state(AnyOf((t, u))) == "t"
    assert state(AnyOf((f, u))) == "u"
    assert state(AnyOf((f, f))) == "f"
    assert state(AnyOf(())) == "f"


def test_in_set_membership():
    assert state(InSet("t", ("a", "b"))) == "t"
    assert state(InSet("t", ("x",))) == "f"
    assert state(InSet("m", (1,))) == "u"


def test_always_is_constant():
    assert state(Always(True)) == "t"
    assert state(Always(False)) == "f"


@pytest.mark.parametrize("seed", (0, 1))
def test_every_verdict_agrees_with_the_oracle_on_every_row(seed):
    # fuzz cases check only the rows a select accepts, so they cannot see a
    # false verdict and an unknown one swapped at the top of a predicate;
    # this reads each row's verdict: None where the oracle says True, an
    # unknown one where it says None, a false one where it says False
    rng = Random(seed)
    seen = set()
    for _ in range(300):
        gen = _Gen(rng)
        p = gen.pred(gen.sch_a, 3)
        rows = [rec.fields for name in ("a1", "a2") for rec in gen.tables[name].rows]
        verdicts = compile_pred(p, gen.sch_a)(columns(gen.sch_a, rows), len(rows))
        for row, v in zip(rows, verdicts, strict=True):
            want = _o_pred(p, row)
            got = True if v is None else None if v[0] else False
            assert got is want, (describe(p), row, v)
            assert v is None or v[1], (describe(p), row)  # a rejected row has a reason
            seen.add(got)
    assert seen == {True, None, False}


def test_a_partition_rejects_false_and_unknown_rows_in_order_with_their_reasons():
    sch = schema(FieldSpec("i", "integer"), FieldSpec("m", "integer"), FieldSpec("t", "text"))
    rel = ingest(sch, [
        {"i": 1, "m": 5, "t": "a"},                # the set test holds
        {"i": 2, "m": Missing("empty"), "t": "b"},  # unknown: the negation meets a hole
        {"i": 3, "m": 7, "t": "c"},                # false in both parts
        {"i": 1, "m": Missing("n/a"), "t": "d"},   # false: all's false part beats its unknown one
        {"i": 5, "m": 1, "t": "e"},                # all holds
    ])
    p = AnyOf((All((Not(Compare("eq", "m", 7)), Compare("ge", "i", 2))), InSet("t", ("a",))))
    acc, rej, reasons = partition_detailed(rel, p)
    assert [sorted(r.pids) for r in acc.rows] == [[1], [5]]
    assert [sorted(r.pids) for r in rej.rows] == [[2], [3], [4]]
    assert reasons == ("m missing: empty",
                       "negation of: m eq 7; t value c not in allowed set",
                       "i ge 2 failed for 1; t value d not in allowed set")


# -- expressions --------------------------------------------------------

def test_expressions_compute_numbers_and_units():
    assert value(NumOf(Col("q"))) == D(2)
    assert value(UnitOf(Col("q"))) == "kg"
    assert value(BinOp("add", NumOf(Col("q")), Lit(1))) == D(3)
    assert value(BinOp("sub", Col("d"), Col("i"))) == D("0.5")
    assert value(BinOp("mul", Col("i"), Lit(4))) == D(4)


def test_missing_poisons_an_expression_quietly():
    out = value(BinOp("mul", Col("m"), Lit(2)))
    assert isinstance(out, Missing)


def test_expressions_refuse_nonsense_instead_of_guessing():
    with pytest.raises(ExprTypeError):
        value(NumOf(Col("t")))
    with pytest.raises(ExprTypeError):
        value(UnitOf(Col("i")))


# -- compiled against a schema -----------------------------------------

def test_compiling_resolves_every_field_against_the_schema():
    sch = (FieldSpec("i", "integer"), FieldSpec("t", "text"))
    cols = columns(sch, [{"i": 1, "t": "b"}])
    assert compile_pred(InSet("t", ("a", "b")), sch)(cols, 1) == [None]
    assert compile_expr(BinOp("add", Col("i"), Lit(1)), sch)[0](cols, 1) == [2]
    with pytest.raises(UnknownField, match="no field 'x'"):
        compile_pred(Not(All((FieldDefined("i"), FieldDefined("x")))), sch)
    with pytest.raises(UnknownField, match="no field 'x'"):
        compile_expr(NumOf(Col("x")), sch)


def test_compiling_decides_the_type_of_every_expression():
    sch = SCH + (FieldSpec("s", "summary", "$"),)

    def typed(e):
        return compile_expr(e, sch)[1:]

    assert typed(Col("s")) == ("summary", "$")
    assert typed(Lit(Quantity(D(1), "kg"))) == ("quantity", "kg")
    assert typed(Lit(Missing("none"))) == (None, None)  # fits any sem
    assert typed(NumOf(Col("s"))) == ("decimal", None)
    assert typed(BinOp("mul", Col("i"), Col("s"))) == ("decimal", None)
    assert typed(UnitOf(Col("q"))) == ("text", None)
    for bad in (Lit(D("NaN")), Lit(1.5), Lit(True), NumOf(Col("t")),
                UnitOf(Col("d")), BinOp("add", Col("t"), Lit(1)), BinOp("div", Col("i"), Lit(1))):
        with pytest.raises(ExprTypeError):
            compile_expr(bad, sch)


def test_num_reads_a_count_or_a_fold_of_some_values():
    num = compile_expr(NumOf(Col("s")), (FieldSpec("s", "summary"),))[0]
    assert num(((count(3), min_of(D("2.5"))),), 2) == [D(3), D("2.5")]
    # a row with no number holds its fault in its own cell
    for bad in (avg_of(D(4), 2), MonoidElement(Kind.MIN, D("Infinity"))):
        good, fault = num(((count(3), bad),), 2)
        assert good == D(3) and isinstance(fault, FnNotTotal)


def test_describe_reads_like_a_sentence():
    assert describe(FieldDefined("m")) == "m is defined"
    assert describe(Not(InSet("u", ("a", "b")))) == "not (u in {a, b})"


# -- serialization ------------------------------------------------------

def test_predicates_roundtrip_through_documents():
    p = All((Compare("ge", "age", 18),
             Not(InSet("name", ("x", "y"))),
             AnyOf((FieldDefined("z"), Always(True)))))
    assert decode_pred(encode_pred(p)) == p


def test_expressions_roundtrip_through_documents():
    e = BinOp("mul", NumOf(Col("a")), Lit(Quantity(D("1.5"), "kg")))
    assert decode_expr(encode_expr(e)) == e


def test_values_roundtrip_with_type_fidelity():
    for v in [1, "x", D("2.5"), Quantity(D(1), "kg"), Missing("gone")]:
        assert decode_value(encode_value(v)) == v
    assert isinstance(decode_value(encode_value(D("2.5"))), D)


def test_bad_documents_are_refused():
    with pytest.raises(ValueError):
        decode_pred({"frob": 1})
    with pytest.raises(ValueError):
        decode_expr({"div": [1, 2]})
    with pytest.raises(ValueError):
        decode_pred({"cmp": {"op": "like", "field": "x", "value": 1}})
    # a wrong shape is refused, not read letter by letter or as text's truth
    for doc in ({"in": {"field": "u", "values": "person"}},
                {"always": "false"},
                {"always": 0},
                {"defined": 5},
                {"cmp": {"op": "eq", "field": 5, "value": 1}},
                {"in": {"field": 5, "values": [1]}}):
        with pytest.raises(ValueError):
            decode_pred(doc)
    for doc in ({"qty": "5g"}, {"qty": ["5"]}, {"qty": ["5", "g", "x"]}, {"qty": [1, 5]},
                {"missing": [1]}):
        with pytest.raises(ValueError):
            decode_value(doc)
    # a body of the wrong shape is refused naming the shape its form needs
    for doc, need in (({"all": "ab"}, "a list of predicates"),
                      ({"any": 5}, "a list of predicates"),
                      ({"cmp": "x"}, "a comparison {op, field, value}"),
                      ({"in": 5}, "a set test {field, values}"),
                      ({"cmp": {"op": "eq", "field": "x"}}, "a number, text or a value")):
        with pytest.raises(ValueError) as info:
            decode_pred(doc)
        assert f"needs {need}" in str(info.value), doc
    for doc in ({"col": 5}, {"add": "ab"}, {"mul": [{"col": "x"}]}, {"sub": {"col": "x"}}):
        with pytest.raises(ValueError, match="needs a name|needs a \\[left, right\\] pair"):
            decode_expr(doc)
