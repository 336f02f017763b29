"""CSV ingestion, emission, and the command-line front end."""

import csv
import hashlib
import json
import os
import shutil
from collections import Counter
from decimal import Decimal
from importlib import resources
from random import Random

import pytest
import yaml

from tallyflow import Missing, PipelineGraph, Quantity, SchemaMismatch, SumSchema, schema
from tallyflow.audit import Check, ConservationReport
from tallyflow.cli import main
from tallyflow.csvio import (
    ColumnSpec,
    _parse_cell,
    load_sidecar,
    read_table,
    render_cell,
    table_schema,
    write_csv,
)
from tallyflow.monoid import count
from tallyflow.pipeline import trace
from tallyflow.relation import FieldSpec, Record, Relation


def fixture_dir(name: str) -> str:
    return str(resources.files("tallyflow") / "fixtures" / name)


# -- sidecar documents --------------------------------------------------


def write_sidecar(tmp_path, text: str) -> str:
    p = tmp_path / "t.csv.yaml"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_sidecar_round_trip(tmp_path):
    path = write_sidecar(tmp_path, """
columns:
  - {name: Description}
  - {name: Price, type: decimal, unit: "$", sentinels: [priceless, unknown]}
  - {name: Quantity, type: quantity, unit_from: Unit}
  - {name: Unit, type: text, empty: keep}
""")
    cols = load_sidecar(path)
    assert [c.name for c in cols] == ["Description", "Price", "Quantity", "Unit"]
    assert cols[0].type == "text"
    assert cols[1].sentinels == ("priceless", "unknown")
    assert cols[2].unit_from == "Unit"
    assert cols[3].empty == "keep"
    sch = table_schema(cols)
    specs = {f.name: f for f in sch}
    assert specs["Price"].sem == "decimal"
    assert specs["Price"].unit == "$"
    assert specs["Quantity"].sem == "quantity"


def test_sidecar_rejects_duplicate_columns(tmp_path):
    path = write_sidecar(tmp_path, "columns: [{name: a}, {name: a}]")
    with pytest.raises(ValueError, match="duplicate column names"):
        load_sidecar(path)


def test_sidecar_rejects_unknown_unit_source(tmp_path):
    path = write_sidecar(
        tmp_path, "columns: [{name: q, type: quantity, unit_from: ghost}]")
    with pytest.raises(ValueError, match="unknown column 'ghost'"):
        load_sidecar(path)


def test_sidecar_unit_source_must_be_text(tmp_path):
    path = write_sidecar(tmp_path, """
columns:
  - {name: q, type: quantity, unit_from: u}
  - {name: u, type: integer}
""")
    with pytest.raises(ValueError, match="must be text"):
        load_sidecar(path)


def test_unit_from_needs_quantity_type():
    with pytest.raises(ValueError, match="unit_from needs type quantity"):
        ColumnSpec("p", type="decimal", unit_from="u")


def test_unknown_column_type_is_refused():
    with pytest.raises(ValueError, match="unknown type 'float'"):
        ColumnSpec("p", type="float")


def test_sidecar_must_be_a_mapping_with_columns(tmp_path):
    path = write_sidecar(tmp_path, "- just\n- a list\n")
    with pytest.raises(ValueError, match="'columns'"):
        load_sidecar(path)


# -- cell parsing -------------------------------------------------------


def test_sentinel_text_becomes_absent_with_that_reason():
    col = ColumnSpec("Price", type="decimal", sentinels=("priceless",))
    v = _parse_cell("priceless", col)
    assert v == Missing("priceless")


def test_empty_cell_policies():
    assert _parse_cell("", ColumnSpec("a")) == Missing("empty")
    assert _parse_cell("", ColumnSpec("a", empty="keep")) == ""
    # keep only makes sense for text; numbers cannot hold an empty string
    assert _parse_cell("", ColumnSpec("a", type="decimal", empty="keep")) \
        == Missing("empty")
    assert _parse_cell("", ColumnSpec("a", empty="(blank)")) == "(blank)"
    assert _parse_cell("", ColumnSpec("a", type="integer", empty="0")) == 0


def test_numeric_cells_parse_exactly():
    assert _parse_cell("17", ColumnSpec("n", type="integer")) == 17
    assert _parse_cell("2.5", ColumnSpec("d", type="decimal")) == Decimal("2.5000")
    assert _parse_cell("6.0575", ColumnSpec("q", type="quantity")) \
        == Decimal("6.0575")


def test_junk_cells_raise_with_column_context():
    with pytest.raises(ValueError, match="column 'n': not an integer: 'x'"):
        _parse_cell("x", ColumnSpec("n", type="integer"))
    with pytest.raises(ValueError, match="column 'd': not a number: 'n/a'"):
        _parse_cell("n/a", ColumnSpec("d", type="decimal"))


# -- table loading ------------------------------------------------------


def write_table(tmp_path, csv_text: str) -> str:
    p = tmp_path / "t.csv"
    p.write_text(csv_text, encoding="utf-8")
    return str(p)


def test_read_table_assigns_one_pid_per_row_good_or_bad(tmp_path):
    path = write_table(tmp_path, "name,n\na,1\nb,oops\nc,3\n")
    cols = (ColumnSpec("name"), ColumnSpec("n", type="integer"))
    rel, bad, nxt = read_table(path, cols, first_pid=10, name="orders")
    assert [min(r.pids) for r in rel.rows] == [10, 12]
    assert [min(r.pids) for r in bad.rows] == [11]
    assert nxt == 13
    assert rel.rows[0].fields == {"name": "a", "n": 1}


def test_read_table_error_rail_keeps_raw_text(tmp_path):
    path = write_table(tmp_path, "name,n\nb,oops\n")
    cols = (ColumnSpec("name"), ColumnSpec("n", type="integer"))
    rel, bad, _ = read_table(path, cols, name="orders")
    assert len(rel) == 0
    rec = bad.rows[0]
    assert rec.fields["n"] == "oops"
    assert rec.fields["error_stage"] == "orders"
    assert rec.fields["error_reason"] == "column 'n': not an integer: 'oops'"
    # the error rail is an all-text relation plus the two error columns
    sems = {f.name: f.sem for f in bad.schema}
    assert sems == {"name": "text", "n": "text",
                    "error_stage": "text", "error_reason": "text"}


def test_read_table_sends_ragged_rows_to_the_error_rail(tmp_path):
    path = write_table(tmp_path, "a,b\n1,2\n3,4,5,6\n7\n")
    cols = (ColumnSpec("a", type="integer"), ColumnSpec("b", type="integer"))
    rel, bad, nxt = read_table(path, cols, name="t")
    assert [r.fields for r in rel.rows] == [{"a": 1, "b": 2}]
    assert [(min(r.pids), r.fields["a"], r.fields["b"], r.fields["error_reason"])
            for r in bad.rows] == [
        (2, "3", "4", "expected 2 cells, got 4"),
        (3, "7", "", "expected 2 cells, got 1"),
    ]
    assert nxt == 4


def test_read_table_stage_defaults_to_file_name(tmp_path):
    path = write_table(tmp_path, "n\noops\n")
    _, bad, _ = read_table(path, (ColumnSpec("n", type="integer"),))
    assert bad.rows[0].fields["error_stage"] == "t.csv"


def test_read_table_refuses_header_mismatch(tmp_path):
    path = write_table(tmp_path, "wrong,header\n1,2\n")
    cols = (ColumnSpec("name"), ColumnSpec("n", type="integer"))
    with pytest.raises(SchemaMismatch, match="does not match"):
        read_table(path, cols)


def test_quantity_cells_take_units_from_their_unit_column(tmp_path):
    path = write_table(tmp_path, "q,u\n200,tonne\n5,\n,litre\n")
    cols = (ColumnSpec("q", type="quantity", unit_from="u"),
            ColumnSpec("u", empty="keep"))
    rel, bad, _ = read_table(path, cols)
    assert len(bad) == 0
    assert rel.rows[0].fields["q"] == Quantity(Decimal("200"), "tonne")
    # a row without a unit keeps its amount problem visible, not dropped
    assert rel.rows[1].fields["q"] == Missing("no unit")
    assert rel.rows[2].fields["q"] == Missing("empty")


def test_quantity_cells_can_use_a_fixed_unit(tmp_path):
    path = write_table(tmp_path, "q\n3.5\n")
    rel, _, _ = read_table(path, (ColumnSpec("q", type="quantity", unit="kg"),))
    assert rel.rows[0].fields["q"] == Quantity(Decimal("3.5000"), "kg")


# -- emission -----------------------------------------------------------


def test_render_cell_covers_every_value_shape():
    assert render_cell(Missing("empty")) == ""
    assert render_cell(Missing("closed")) == "closed"
    assert render_cell(Quantity(Decimal("200"), "tonne")) == "200 tonne"
    assert render_cell(Decimal("2.5000")) == "2.5"
    assert render_cell(Decimal("20000000")) == "20000000"
    assert render_cell(count(2)) == "2"
    assert render_cell(17) == "17"
    assert render_cell("text") == "text"


def test_write_csv_is_deterministic_and_leaves_no_temp_files(tmp_path):
    sch = schema(FieldSpec("name", "text"), FieldSpec("n", "integer"))
    rel = Relation(sch, (
        Record(pids=frozenset({1}), fields={"name": "a", "n": 1}),
        Record(pids=frozenset({2}), fields={"name": "b", "n": 2}),
    ))
    out = tmp_path / "out.csv"
    write_csv(str(out), rel)
    assert out.read_text(encoding="utf-8") == "name,n\na,1\nb,2\n"
    write_csv(str(out), rel)
    assert out.read_text(encoding="utf-8") == "name,n\na,1\nb,2\n"
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


def test_written_files_honour_the_umask(tmp_path):
    rel = Relation(schema(FieldSpec("n", "integer")),
                   (Record(pids=frozenset({1}), fields={"n": 1}),))
    old = os.umask(0o027)
    try:
        write_csv(str(tmp_path / "out.csv"), rel)
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "out.csv").st_mode & 0o777 == 0o666 & ~0o027


def test_write_csv_refuses_tagged_sum_relations(tmp_path):
    sch = schema(FieldSpec("n", "integer"))
    rel = Relation(SumSchema(sch, sch), ())
    with pytest.raises(SchemaMismatch, match="tagged-sum"):
        write_csv(str(tmp_path / "out.csv"), rel)


# -- command line: check ------------------------------------------------


def test_check_accepts_the_bundled_pipelines(capsys):
    d = fixture_dir("ship")
    assert main(["check", os.path.join(d, "pipeline.yaml"), "--data", d]) == 0
    assert ("check: ship: graph is runnable (28 stages, 15 sinks)"
            in capsys.readouterr().out)
    d = fixture_dir("lookup")
    assert main(["check", os.path.join(d, "pipeline.yaml"), "--data", d]) == 0
    assert ("check: lookup: graph is runnable (5 stages, 3 sinks)"
            in capsys.readouterr().out)


def test_check_requires_the_data_directory(capsys):
    d = fixture_dir("ship")
    assert main(["check", os.path.join(d, "pipeline.yaml")]) == 2
    assert "needs --data" in capsys.readouterr().err


def test_check_reports_wiring_violations(tmp_path, capsys):
    (tmp_path / "a.csv.yaml").write_text("columns: [{name: x}]\n",
                                         encoding="utf-8")
    doc = tmp_path / "p.yaml"
    doc.write_text("""
name: demo
sources:
  a: {file: a.csv}
sinks:
  out: {from: ghost.out}
""", encoding="utf-8")
    assert main(["check", str(doc), "--data", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "UnknownEndpoint at ghost.out" in out
    assert "UnconsumedPort at a.out" in out


def test_check_rejects_malformed_documents(tmp_path, capsys):
    doc = tmp_path / "p.yaml"
    doc.write_text("name: demo\nsources: {a: {file: a.csv}}\n", encoding="utf-8")
    assert main(["check", str(doc), "--data", str(tmp_path)]) == 2
    assert "missing 'sinks'" in capsys.readouterr().err


# -- command line: run --------------------------------------------------


def test_run_executes_the_lookup_pipeline(tmp_path, capsys):
    d = fixture_dir("lookup")
    out = tmp_path / "out"
    rc = main(["run", os.path.join(d, "pipeline.yaml"),
               "--data", d, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "pipeline: lookup" in text
    assert "conservation: balanced" in text
    for fname in ("priced.csv", "missing_products.csv", "unused_references.csv",
                  "dashboard.txt", "dashboard.json", "audit.json"):
        assert (out / fname).exists(), fname
    priced = (out / "priced.csv").read_text(encoding="utf-8").splitlines()
    assert len(priced) == 1 + 5
    dash = json.loads((out / "dashboard.json").read_text(encoding="utf-8"))
    assert dash["conservation_ok"] is True
    audit = json.loads((out / "audit.json").read_text(encoding="utf-8"))
    assert audit["conservation"]["ok"] is True


def test_run_structured_format_prints_the_dashboard_document(tmp_path, capsys):
    d = fixture_dir("lookup")
    out = tmp_path / "out"
    rc = main(["run", os.path.join(d, "pipeline.yaml"),
               "--data", d, "--out", str(out), "--format", "structured"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pipeline"] == "lookup"
    assert set(doc) == {"pipeline", "reports", "conservation_ok"}


def test_run_rejects_missing_inputs(tmp_path, capsys):
    d = fixture_dir("lookup")
    assert main(["run", os.path.join(d, "pipeline.yaml"),
                 "--data", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert "run: source" in capsys.readouterr().err


def test_run_rejects_a_broken_graph(tmp_path, capsys):
    (tmp_path / "a.csv").write_text("x\n1\n", encoding="utf-8")
    (tmp_path / "a.csv.yaml").write_text("columns: [{name: x}]\n",
                                         encoding="utf-8")
    doc = tmp_path / "p.yaml"
    doc.write_text("""
name: demo
sources:
  a: {file: a.csv}
sinks:
  out: {from: ghost.out}
""", encoding="utf-8")
    assert main(["run", str(doc), "--data", str(tmp_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "run: UnknownEndpoint at ghost.out: no such output port\n"
        "run: UnconsumedPort at a.out: every output must be wired or sunk\n")
    assert not (tmp_path / "o").exists()


def test_run_signals_broken_conservation_after_writing_outputs(
        tmp_path, capsys, monkeypatch):
    import tallyflow.cli as cli_mod
    broken = ConservationReport(ok=False, checks=(
        Check("measure:main:count", False, "sinks 4 != sources 5"),))
    monkeypatch.setattr(cli_mod, "conservation_check", lambda audit: broken)
    d = fixture_dir("lookup")
    out = tmp_path / "out"
    rc = main(["run", os.path.join(d, "pipeline.yaml"),
               "--data", d, "--out", str(out)])
    assert rc == 3
    # outputs land on disk even when the accounting equation fails
    assert (out / "priced.csv").exists()
    dash = json.loads((out / "dashboard.json").read_text(encoding="utf-8"))
    assert dash["conservation_ok"] is False
    assert "conservation: BROKEN" in (out / "dashboard.txt").read_text(encoding="utf-8")
    err = capsys.readouterr().err
    assert "conservation broken: measure:main:count: sinks 4 != sources 5" in err


def test_run_validates_once_and_checks_conservation_once(tmp_path, monkeypatch):
    import tallyflow.audit as audit_mod
    import tallyflow.cli as cli_mod
    calls = Counter()
    validate, check = PipelineGraph.validate, audit_mod.conservation_check

    def counted_validate(graph):
        calls["validate"] += 1
        return validate(graph)

    def counted_check(audit):
        calls["conservation_check"] += 1
        return check(audit)

    monkeypatch.setattr(PipelineGraph, "validate", counted_validate)
    monkeypatch.setattr(cli_mod, "conservation_check", counted_check)
    monkeypatch.setattr(audit_mod, "conservation_check", counted_check)
    d = fixture_dir("lookup")
    assert main(["run", os.path.join(d, "pipeline.yaml"),
                 "--data", d, "--out", str(tmp_path / "out")]) == 0
    assert calls == {"validate": 1, "conservation_check": 1}


def test_run_checks_each_source_row_once(tmp_path, monkeypatch):
    import tallyflow.ops as ops_mod
    import tallyflow.pipeline as pipeline_mod
    import tallyflow.relation as relation_mod
    checked, computed = [], Counter()
    check_rows, check_cell = relation_mod.check_rows, ops_mod.check_cell

    def counted_rows(sch, rows):
        checked.extend(min(rec.pids) for rec in rows)
        check_rows(sch, rows)

    def counted_cell(spec, v):
        computed[spec.name] += 1
        check_cell(spec, v)

    monkeypatch.setattr(pipeline_mod, "check_rows", counted_rows)
    monkeypatch.setattr(relation_mod, "check_rows", counted_rows)
    monkeypatch.setattr(ops_mod, "check_cell", counted_cell)
    d = fixture_dir("lookup")
    assert main(["run", os.path.join(d, "pipeline.yaml"),
                 "--data", d, "--out", str(tmp_path / "out")]) == 0
    # 8 order lines and 5 products are pids 1-13; fmap computes one
    # value for each of the 5 priced rows
    assert sorted(checked) == list(range(1, 14))
    assert computed == {"value": 5}


def lookup_copy(tmp_path, fname: str, edit) -> str:
    """A copy of the lookup fixture with one of its documents edited."""
    data = tmp_path / "data"
    shutil.copytree(fixture_dir("lookup"), data)
    path = data / fname
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(data)


# each entry: the document edited, the edit, and the error line after "run: "
BAD_ENTRIES = {
    "errorize without reason": (
        "pipeline.yaml", lambda doc: doc["nodes"][2].pop("reason"),
        "malformed errorize node 'unknown_product': missing key 'reason'"),
    "conservation without scheme": (
        "pipeline.yaml", lambda doc: doc["conservation"][1].pop("scheme"),
        "malformed conservation entry {'field': 'quantity'}: missing key 'scheme'"),
    "column without name": (
        "products.csv.yaml", lambda doc: doc["columns"][1].pop("name"),
        "malformed column entry {'type': 'text'} in DATA/products.csv.yaml: "
        "missing key 'name'"),
    "report label all": (
        "pipeline.yaml", lambda doc: doc["sinks"]["priced"].update(report="all"),
        "sink 'priced': the report label 'all' is reserved for the run-wide "
        "check coverage:all"),
}


@pytest.mark.parametrize("case", list(BAD_ENTRIES))
def test_bad_document_entries_exit_2_naming_the_entry(tmp_path, capsys, case):
    fname, edit, message = BAD_ENTRIES[case]
    data = lookup_copy(tmp_path, fname, edit)
    message = message.replace("DATA", data)
    pipeline = os.path.join(data, "pipeline.yaml")
    assert main(["run", pipeline, "--data", data,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {message}\n"
    assert main(["check", pipeline, "--data", data]) == 2
    assert capsys.readouterr().err == f"check: {message}\n"
    assert not (tmp_path / "out").exists()


# each entry: how the section is given the wrong shape, and the shape it needs
BAD_SECTIONS = {
    "sources": (lambda doc: list(doc["sources"]), "mapping"),
    "sinks": (lambda doc: [{"name": k, **v} for k, v in doc["sinks"].items()], "mapping"),
    "conservation": (lambda doc: doc["conservation"][0], "list"),
    "nodes": (lambda doc: 3, "list"),
    "wires": (lambda doc: "orders.out", "list"),
}


@pytest.mark.parametrize("section", list(BAD_SECTIONS))
def test_sections_of_the_wrong_shape_exit_2(tmp_path, capsys, section):
    reshape, shape = BAD_SECTIONS[section]

    def edit(doc):
        doc[section] = reshape(doc)

    data = lookup_copy(tmp_path, "pipeline.yaml", edit)
    pipeline = os.path.join(data, "pipeline.yaml")
    message = f"{pipeline}: the {section!r} section must be a {shape}"
    assert main(["run", pipeline, "--data", data,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {message}\n"
    assert main(["check", pipeline, "--data", data]) == 2
    assert capsys.readouterr().err == f"check: {message}\n"
    assert not (tmp_path / "out").exists()


def test_run_scans_each_relation_once_for_its_pids(tmp_path, monkeypatch):
    import tallyflow.pipeline as pipeline_mod
    scanned = []
    real = pipeline_mod.rel_pids

    def counted(rel):
        scanned.append(rel)
        return real(rel)

    monkeypatch.setattr(pipeline_mod, "rel_pids", counted)
    d = fixture_dir("lookup")
    assert main(["run", os.path.join(d, "pipeline.yaml"),
                 "--data", d, "--out", str(tmp_path / "out")]) == 0
    # 2 sources and 7 stage outputs; stage inputs and sinks reuse the set
    # of the port that feeds them
    assert len(scanned) == len({id(rel) for rel in scanned}) == 9


def test_run_refuses_a_computed_value_of_another_sem(tmp_path, capsys):
    def declare_integer(doc):
        doc["nodes"][1]["sems"]["value"] = "integer"

    data = lookup_copy(tmp_path, "pipeline.yaml", declare_integer)
    assert main(["run", os.path.join(data, "pipeline.yaml"), "--data", data,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "run: field 'value': Decimal('20.00000000') is not integer\n")
    assert not (tmp_path / "out").exists()


# -- command line: run outputs ------------------------------------------

# sha256 of every deterministic `run` output: sinks, dashboards, audit.json
# (with the rendered `measure:*` balances of its conservation section) and
# stdout must not change by accident.
PINNED_DIGESTS = {
    "ship": {
        "iv_closed.csv": "b4f3ec06132c933a030d2896071124c9144bf9395445f5a23ba094ef763a8550",
        "iv_insured.csv": "7b3a632754e7d2e74ed305782f190eb9d92f4e31102eec5962778fa2a642f160",
        "iv_no_commodity.csv": "f77ea4cd3d6c635eb8f215f841dcde053d60648d52f3b7d7e3f5d11d93cf7a3e",
        "iv_purchased.csv": "1332e37ce5b40186983cbfd30ca8ad7e87f9da4ae0a9b162d737551b74c8b51f",
        "iv_quoted.csv": "959dd68a93f3c156b04d79dd7f5ca216d8e60762160b892d325569e4827f8c65",
        "iv_unquoted_sink.csv": "72fc183bfc93e4467e4ac8cbb3869bfaaf826c42a2aa176ab0caac96b9be4c9a",
        "iv_unused_sink.csv": "678af6df01b3abca77005dac7addec010bf875c6cf05b54f3463c830d2fda1d0",
        "rc_closed.csv": "5cab60453a36a580daf204330c945924b75ce658af1ca139afdf927487e7fedb",
        "rc_proxy.csv": "58fcb795ce1790a3bbe2e433c9511a5306b825c6346fd883af5c174f92bdab4f",
        "rc_purchased.csv": "3097a9a965c97b989038107b702f870a31dc90ea29563ca5cf1c0d7d9ff8739b",
        "rc_quoted.csv": "bd289faef7372a1467faabd8e43afbf39358cd646bb4382adddf1b6e0b2cbb62",
        "rc_unpriced.csv": "c8105306e941830f4c3358cd1b95ac99cf0b692190e0471b2c13ccd5e09e41b8",
        "rc_unused_sink.csv": "678af6df01b3abca77005dac7addec010bf875c6cf05b54f3463c830d2fda1d0",
        "wt_animate.csv": "2eaeedcc50bb2d8b14f115ee9a07def9729d3e1b0996b69704be4d355a8b6a91",
        "wt_summary.csv": "9d52053cad21ab08a874a02c2bb72769f85503462a8096bc8b9bd875de9cdfa5",
        "audit.json": "f74b6aa2a138d3cd54a9d58ac911039f469181c2872c532dc3dedbb92eec9cca",
        "dashboard.txt": "f2db630e8ac2d8aeafd30d59da963e37eac1c6d8450fd7c78b3b71fac3398420",
        "dashboard.json": "f8e84c2a1e17c1597439e767450a766f79ba4f61e5904e18afd7e14f069682eb",
        "stdout text": "f2db630e8ac2d8aeafd30d59da963e37eac1c6d8450fd7c78b3b71fac3398420",
        "stdout structured": "f8e84c2a1e17c1597439e767450a766f79ba4f61e5904e18afd7e14f069682eb",
    },
    "lookup": {
        "missing_products.csv": "6e926ad1218e5508c038e2fc4f758640cc8fd9728af69a60cc1450ccf8abfb05",
        "priced.csv": "d05bcfcc83e4fcbe3bfeb0e6de8b5ec83107eebf3497417bd5db5b104b3f74b7",
        "unused_references.csv": "d9de3e50bf0ce959b465cfa8576b4ffb8f5694197c3864aa225355e443069047",
        "audit.json": "4286556acd476e0c81ea57c3ed9806b0bbf6c2e91b69febd95960122bcb9022d",
        "dashboard.txt": "65cdb47e61481a13076a77f5c46058f5a9806777758c206a27af4a61cbbfef87",
        "dashboard.json": "7e6f9b2d2aa106cdfe9b5f83e34863e5c208f65bd0825a9766450fc6d25ed2c7",
        "stdout text": "65cdb47e61481a13076a77f5c46058f5a9806777758c206a27af4a61cbbfef87",
        "stdout structured": "7e6f9b2d2aa106cdfe9b5f83e34863e5c208f65bd0825a9766450fc6d25ed2c7",
    },
}


@pytest.mark.parametrize("fixture", sorted(PINNED_DIGESTS))
def test_sinks_dashboards_and_stdout_match_their_pinned_digests(fixture, tmp_path, capsys):
    d = fixture_dir(fixture)
    stdout, files = {}, {}
    for fmt in ("text", "structured"):
        out = tmp_path / fmt
        assert main(["run", os.path.join(d, "pipeline.yaml"), "--data", d,
                     "--out", str(out), "--format", fmt]) == 0
        stdout[f"stdout {fmt}"] = hashlib.sha256(
            capsys.readouterr().out.encode("utf-8")).hexdigest()
        files[fmt] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in out.iterdir()}
    assert files["text"] == files["structured"]
    assert files["text"] | stdout == PINNED_DIGESTS[fixture]


def _decode_pid_ranges(text: str) -> set:
    """Read "1-3,7,9-12"; refuse anything but ascending, maximal runs."""
    pids: set = set()
    last = None
    for part in text.split(",") if text else ():
        lo, dash, hi = part.partition("-")
        lo, hi = int(lo), int(hi) if dash else int(lo)
        assert hi > lo or not dash, part
        assert last is None or lo > last + 1, text
        pids.update(range(lo, hi + 1))
        last = hi
    return pids


def _run_and_capture_audit(monkeypatch, pipeline: str, data: str, out) -> tuple:
    """Run the CLI; return the in-memory RunAudit and the decoded audit.json."""
    import tallyflow.cli as cli_mod
    seen = []
    real = cli_mod.audit_document

    def capture(audit, report):
        seen.append(audit)
        return real(audit, report)

    monkeypatch.setattr(cli_mod, "audit_document", capture)
    assert main(["run", pipeline, "--data", data, "--out", str(out)]) == 0
    return seen[0], json.loads((out / "audit.json").read_text(encoding="utf-8"))


def _scaled_ship(tmp_path, rows: int) -> str:
    """The ship fixture with items.csv copied to `rows` shuffled rows."""
    src = fixture_dir("ship")
    data = tmp_path / "data"
    data.mkdir()
    for name in os.listdir(src):
        if name not in ("items.csv", "pipeline.yaml"):
            shutil.copyfile(os.path.join(src, name), data / name)
    with open(os.path.join(src, "items.csv"), newline="", encoding="utf-8") as fh:
        header, *template = list(csv.reader(fh))
    order = [i % len(template) for i in range(rows)]
    Random(300).shuffle(order)
    desc = header.index("Description")
    with open(data / "items.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for n, i in enumerate(order):
            row = list(template[i])
            row[desc] = f"{row[desc]} {n:03d}"
            w.writerow(row)
    return str(data)


def _scaled_lookup(tmp_path, rows: int) -> str:
    """The lookup fixture with order_details.csv cycled to `rows` rows."""
    src = fixture_dir("lookup")
    data = tmp_path / "data"
    shutil.copytree(src, data)
    with open(os.path.join(src, "order_details.csv"), newline="", encoding="utf-8") as fh:
        header, *template = list(csv.reader(fh))
    with open(data / "order_details.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for n in range(rows):
            w.writerow([str(n + 1)] + template[n % len(template)][1:])
    return str(data)


SCALED = {"ship x300 shuffled": lambda tmp_path: _scaled_ship(tmp_path, 300),
          "lookup x2000": lambda tmp_path: _scaled_lookup(tmp_path, 2000)}


@pytest.mark.parametrize("case", ["ship", "lookup", "ship x300 shuffled", "lookup x2000"])
def test_audit_json_round_trips_to_the_run_audit(case, tmp_path, monkeypatch):
    fixture = case.split()[0]
    pipeline = os.path.join(fixture_dir(fixture), "pipeline.yaml")
    data = SCALED[case](tmp_path) if case in SCALED else fixture_dir(fixture)
    audit, doc = _run_and_capture_audit(monkeypatch, pipeline, data, tmp_path / "out")

    assert {k: _decode_pid_ranges(v) for k, v in doc["sources"].items()} == \
        {k: set(v) for k, v in audit.source_pids.items()}
    assert {k: _decode_pid_ranges(v) for k, v in doc["sinks"].items()} == \
        {k: set(v) for k, v in audit.sink_pids.items()}
    assert [(s["stage"], {p: _decode_pid_ranges(r) for p, r in s["in"].items()},
             {p: _decode_pid_ranges(r) for p, r in s["out"].items()})
            for s in doc["stages"]] == \
        [(sv.stage, {p: set(x) for p, x in sv.ins.items()},
          {p: set(x) for p, x in sv.outs.items()})
         for sv in audit.stage_visits]

    path_of: dict = {}
    smallest = []
    for entry in doc["paths"]:
        pids = _decode_pid_ranges(entry["pids"])
        assert pids and not pids & path_of.keys(), "a pid is in two paths"
        runs = [tuple(step) for step in entry["steps"]]
        assert all(n >= 1 for _, _, n in runs)
        assert all(a[:2] != b[:2] for a, b in zip(runs, runs[1:])), "runs are maximal"
        assert len(runs) <= len(audit.ports)
        steps = tuple((owner, port) for owner, port, n in runs for _ in range(n))
        path_of.update(dict.fromkeys(pids, steps))
        smallest.append(min(pids))
    assert smallest == sorted(smallest)
    assert path_of.keys() == audit.all_source_pids()
    for pid, steps in path_of.items():
        assert steps == trace(audit, pid), pid
    if "x300" in case:
        assert len(path_of) == 304
        assert any("," in entry["pids"] for entry in doc["paths"])
    if "x2000" in case:
        # a path has at most one step per port, however many rows a join
        # copied a product into: 2 sources, 7 stage outputs, 3 sinks
        assert len(audit.ports) == 12
        products = audit.source_pids["products"]
        priced = [entry for entry in doc["paths"]
                  if _decode_pid_ranges(entry["pids"]) <= products
                  and any(owner == "priced" for owner, _, _ in entry["steps"])]
        assert priced
        for entry in priced:
            assert max(n for _, _, n in entry["steps"]) > 1, entry


# -- command line: fuzz -------------------------------------------------


def test_fuzz_runs_clean_on_a_small_budget(capsys):
    assert main(["fuzz", "--seed", "7", "--iterations", "40"]) == 0
    out = capsys.readouterr().out
    assert "fuzz: 40 iterations, seed 7, 0 failures" in out
    assert "node kinds seen:" in out


def test_fuzz_structured_format(capsys):
    assert main(["fuzz", "--seed", "7", "--iterations", "40",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["iterations"] == 40
    assert doc["failures"] == 0
    assert doc["first_failure"] == ""
    assert len(doc["kinds_seen"]) >= 3
