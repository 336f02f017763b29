"""CSV ingestion, emission, and the command-line front end."""

import codecs
import csv
import gc
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from importlib import resources
from random import Random

import pytest
import yaml

import tallyflow

from tallyflow import Missing, PipelineGraph, Quantity, SchemaMismatch, schema
from tallyflow.audit import Check, ConservationReport, build_charges, measure_carriers
from tallyflow.cli import main
from tallyflow.csvio import (
    BLOCK_ROWS,
    ColumnSpec,
    _cell_parser,
    _render_column,
    load_sidecar,
    read_table,
    read_yaml,
    render_cell,
    table_schema,
    write_csv,
)
from tallyflow.monoid import count
from tallyflow.pipeline import RunAudit, trace
from tallyflow.relation import FieldSpec, Record, Relation
from tallyflow.values import plain


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


def test_a_unit_needs_a_decimal_or_quantity_column():
    for kind in ("text", "integer"):
        with pytest.raises(ValueError, match="unit needs type decimal or quantity"):
            ColumnSpec("p", type=kind, unit="kg")
    assert ColumnSpec("p", type="decimal", unit="$").unit == "$"


def test_unknown_column_type_is_refused():
    with pytest.raises(ValueError, match="unknown type 'float'"):
        ColumnSpec("p", type="float")


def test_sidecar_must_be_a_mapping_with_columns(tmp_path):
    path = write_sidecar(tmp_path, "- just\n- a list\n")
    with pytest.raises(ValueError, match=r"t\.csv\.yaml: needs a column description "
                       r"\{columns\}, not \['just', 'a list'\]"):
        load_sidecar(path)


# -- cell parsing -------------------------------------------------------


def _parse_cell(raw: str, col: ColumnSpec):
    return _cell_parser(col)(raw)


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


def test_a_nan_cell_is_not_a_number():
    for raw in ("NaN", "-NaN"):
        for col in (ColumnSpec("d", type="decimal"), ColumnSpec("q", type="quantity")):
            with pytest.raises(ValueError, match=f"column '{col.name}': not a number: '{raw}'"):
                _parse_cell(raw, col)


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


def reference_read_table(csv_path: str, cols, first_pid: int = 1, name: str = "t"):
    """read_table's rows, parsed one row at a time with _cell_parser: the
    (good, bad, next pid) a row-by-row reader gives, for comparison."""
    good, bad, pid = [], [], first_pid
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        parsers = [(c.name, header.index(c.name), _cell_parser(c)) for c in cols]
        for cells in reader:
            if not cells:
                continue
            problem = None
            if len(cells) != len(header):
                problem = f"expected {len(header)} cells, got {len(cells)}"
            else:
                try:
                    fields = {n: parse(cells[i]) for n, i, parse in parsers}
                except ValueError as exc:
                    problem = str(exc)
            if problem is None:
                for c in cols:
                    amount = fields[c.name]
                    if c.type != "quantity" or isinstance(amount, Missing):
                        continue
                    unit = c.unit
                    if c.unit_from:
                        label = fields[c.unit_from]
                        unit = label if isinstance(label, str) else None
                    fields[c.name] = Quantity(amount, unit) if unit else Missing("no unit")
                good.append((pid, fields))
            else:
                raw = dict(zip(header, cells))
                bad.append((pid, {c.name: raw.get(c.name, "") for c in cols}
                            | {"error_stage": name, "error_reason": problem}))
            pid += 1
    return good, bad, pid


MESSY_COLUMNS = (
    ColumnSpec("id", type="integer"),
    ColumnSpec("label", empty="keep"),
    ColumnSpec("price", type="decimal", sentinels=("n/a", "closed"), empty="0"),
    ColumnSpec("amount", type="quantity", unit_from="unit", sentinels=("tbd",)),
    ColumnSpec("unit", sentinels=("?",)),
    ColumnSpec("weight", type="quantity", unit="kg", empty="keep"),
    ColumnSpec("note", empty="(none)", sentinels=("-",)),
    ColumnSpec("volume", type="quantity", unit_from="label"),
)
GOOD_CELLS = {"id": ["1", "42", "-7"], "label": ["a", "b c", "d,e"],
              "price": ["1.5", "20000000", "0.00005"], "amount": ["2", "6.0575", "-3"],
              "unit": ["each", "kg", "litre"], "weight": ["1", "2.25", "1e3"],
              "note": ["x", "y", "z"], "volume": ["3", "0.5", "12"]}
JUNK = ["oops", "1.2.3", "NaN", "Infinity", "1e400"]


def messy_table(rng: Random, rows: int) -> tuple:
    """(header, rows) of a seeded table.  Each column is clean or has junk,
    empty cells, sentinels or all three, so both ways of parsing a column
    block run; some rows are blank or ragged."""
    header = [c.name for c in MESSY_COLUMNS]
    while header.index("price") > header.index("id"):  # not the described order
        rng.shuffle(header)
    modes, start = ("clean", "junk", "empty", "sentinel", "all"), rng.randrange(5)
    mess = {c.name: modes[(start + k) % 5] for k, c in enumerate(MESSY_COLUMNS)}
    spec = {c.name: c for c in MESSY_COLUMNS}
    out = []
    for _ in range(rows):
        row = []
        for n in header:
            roll = rng.random()
            if mess[n] in ("junk", "all") and roll < 0.05 and spec[n].type != "text":
                row.append(rng.choice(JUNK))
            elif mess[n] in ("empty", "all") and roll < 0.15:
                row.append("")
            elif mess[n] in ("sentinel", "all") and roll < 0.25 and spec[n].sentinels:
                row.append(rng.choice(spec[n].sentinels))
            else:
                row.append(rng.choice(GOOD_CELLS[n]))
        shape = rng.random()
        if shape < 0.03:
            row = []  # a blank line
        elif shape < 0.06:
            row = row[:rng.randrange(1, len(row))] if rng.random() < 0.5 else row + ["extra"]
        out.append(row)
    return header, out


def write_rows(tmp_path, header: list, rows: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return write_table(tmp_path, buf.getvalue())


def assert_reads_like_the_reference(path: str):
    rel, bad, nxt = read_table(path, MESSY_COLUMNS, first_pid=5, name="t")
    want_good, want_bad, want_next = reference_read_table(path, MESSY_COLUMNS, first_pid=5)
    assert [(min(r.pids), r.fields) for r in rel.rows] == want_good
    assert [(min(r.pids), r.fields) for r in bad.rows] == want_bad
    assert nxt == want_next
    return rel, bad


def good_row(header: list, **cells) -> list:
    return [cells.get(n, GOOD_CELLS[n][0]) for n in header]


@pytest.mark.parametrize("seed", range(8))
def test_read_table_parses_messy_tables_like_a_row_by_row_reader(tmp_path, seed):
    header, rows = messy_table(Random(seed), 300)
    rows[7] = good_row(header, price="junk", id="x")  # price is first in the header
    rows[11] = good_row(header, unit="")
    rows[12] = good_row(header, unit="?")
    rows[13] = good_row(header, label="")
    _, bad = assert_reads_like_the_reference(write_rows(tmp_path, header, rows))
    assert [r.fields["error_reason"] for r in bad.rows if r.fields["id"] == "x"] == [
        "column 'id': not an integer: 'x'"]


def test_read_table_reads_a_junk_row_in_a_later_block_like_a_row_by_row_reader(tmp_path):
    header = [c.name for c in MESSY_COLUMNS]
    rows = [[GOOD_CELLS[n][k % 3] for n in header] for k in range(BLOCK_ROWS + 1)]
    rows[BLOCK_ROWS][header.index("price")] = "junk"
    rows.insert(3, [])  # a blank line takes no pid
    rel, bad = assert_reads_like_the_reference(write_rows(tmp_path, header, rows))
    assert len(rel) == BLOCK_ROWS
    assert [(min(r.pids), r.fields["error_reason"]) for r in bad.rows] == [
        (5 + BLOCK_ROWS, "column 'price': not a number: 'junk'")]


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


# plain's edge cases: zeros of every sign and scale, exponents, trailing
# zeros, more digits than the 28-digit context, and the infinities
PLAIN_TEXTS = {"0": "0", "-0": "0", "0.0000": "0", "-0.0000": "0", "0E+3": "0", "-0E+3": "0",
               "0E-10": "0", "1E+3": "1000", "-1E+3": "-1000", "1.2300": "1.23",
               "-12.5000": "-12.5", "1E-10": "0.0000000001",
               "123456789012345678901234567890": "123456789012345678901234567890",
               "-123456789012345678901234567890.1234": "-123456789012345678901234567890.1234",
               "Infinity": "inf", "-Infinity": "-inf"}


def test_plain_keeps_every_digit_and_folds_negative_zero():
    assert {t: plain(Decimal(t)) for t in PLAIN_TEXTS} == PLAIN_TEXTS


def test_a_column_of_one_class_renders_as_render_cell_renders_each_cell():
    ds = [Decimal(t) for t in PLAIN_TEXTS]
    quantities = [Quantity(d, u) for d in ds if d.is_finite() for u in ("kg", "lb")]
    columns = [ds, quantities, [1, -2, True], ["a", "b"], [Missing("empty"), Missing("n/a")],
               [count(2), Decimal(1)], [Decimal(1), Missing("empty"), "x", 3]]
    for cells in columns:
        assert _render_column(cells) == [render_cell(v) for v in cells]


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


def test_a_tagged_sum_at_a_sink_is_caught_before_any_row_moves(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(fixture_dir("lookup"), data)
    doc = data / "sumsink.yaml"
    doc.write_text("""
name: sumsink
sources: {orders: {file: order_details.csv}, products: {file: products.csv}}
conservation: [{scheme: count}]
nodes: [{op: tagged_union, name: both, left: orders, right: products}]
sinks: {everything: {kind: report, from: both.out}}
""", encoding="utf-8")
    # the union refuses two shapes before any later stage runs
    line = ("SchemaMismatch at both: the two sides need one schema, but the left is "
            "(order integer, product text, quantity quantity, unit text) and the right "
            "is (product text, description text, current_price decimal in $)")
    assert main(["check", str(doc), "--data", str(data)]) == 2
    assert capsys.readouterr().out == line + "\n"
    assert main(["run", str(doc), "--data", str(data), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {line}\n"
    assert not (tmp_path / "out").exists()


def test_untag_splits_a_union_again_after_a_shared_stage(tmp_path, capsys):
    # the orders split in two, meet again in a union, pass one partition
    # together, and untag hands each side back its own rows
    data = tmp_path / "data"
    shutil.copytree(fixture_dir("lookup"), data)
    doc = data / "untag.yaml"
    doc.write_text("""
name: untag
sources: {orders: {file: order_details.csv}}
conservation: [{scheme: count}, {scheme: sum_by_unit, field: quantity}]
nodes:
  - {op: partition, name: late, from: orders, when: {cmp: {op: ge, field: order, value: 5}}}
  - {op: tagged_union, name: both, left: late.accepted, right: late.rejected}
  - op: partition
    name: spelled
    from: both.out
    when: {not: {in: {field: product, values: [Nut oli]}}}
    rejected_to_errors: true
  - {op: untag, name: apart, from: spelled.accepted}
sinks:
  late_orders: {from: apart.left}
  early_orders: {from: apart.right}
  misspelled: {kind: error, from: spelled.rejected}
""", encoding="utf-8")
    assert main(["check", str(doc), "--data", str(data)]) == 0
    assert capsys.readouterr().out == "check: untag: graph is runnable (4 stages, 3 sinks)\n"
    out = tmp_path / "out"
    assert main(["run", str(doc), "--data", str(data), "--out", str(out)]) == 0
    assert "conservation: balanced" in capsys.readouterr().out

    def orders(sink):  # each order's number is its row's pid
        with open(out / f"{sink}.csv", newline="", encoding="utf-8") as fh:
            return [int(row["order"]) for row in csv.DictReader(fh)]
    # orders 3, 5 and 8 misspell their product; the rest keep their side
    assert orders("late_orders") == [6, 7]
    assert orders("early_orders") == [1, 2, 4]
    assert orders("misspelled") == [5, 8, 3]
    # the audit's paths agree: each pid's route, from its side of late to its sink
    paths = sorted((p["steps"][1][:2], p["steps"][-1][0], p["pids"])
                   for p in json.loads((out / "audit.json").read_text(encoding="utf-8"))["paths"])
    assert paths == [(["late", "accepted"], "late_orders", "6-7"),
                     (["late", "accepted"], "misspelled", "5,8"),
                     (["late", "rejected"], "early_orders", "1-2,4"),
                     (["late", "rejected"], "misspelled", "3")]


def test_check_rejects_malformed_documents(tmp_path, capsys):
    doc = tmp_path / "p.yaml"
    doc.write_text("name: demo\nsources: {a: {file: a.csv}}\n", encoding="utf-8")
    assert main(["check", str(doc), "--data", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"check: {doc}: sinks: needs a mapping of sink names "
                                       "to sinks, and is missing\n")


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
    import tallyflow.pipeline as pipeline_mod
    import tallyflow.relation as relation_mod
    checked, cells = [], Counter()
    check_rows = relation_mod.check_rows

    def counted_rows(sch, rows):
        checked.extend(min(rec.pids) for rec in rows)
        check_rows(sch, rows)

    def counting(sem, test):
        def counted(v):
            cells[sem] += 1
            return test(v)
        return counted

    monkeypatch.setattr(pipeline_mod, "check_rows", counted_rows)
    monkeypatch.setattr(relation_mod, "check_rows", counted_rows)
    for sem, test in list(relation_mod._SEM_CHECKS.items()):
        monkeypatch.setitem(relation_mod._SEM_CHECKS, sem, counting(sem, test))
    d = fixture_dir("lookup")
    assert main(["run", os.path.join(d, "pipeline.yaml"),
                 "--data", d, "--out", str(tmp_path / "out")]) == 0
    # 8 order lines (integer, text, quantity, text) and 5 products (text,
    # text, decimal) are pids 1-13; fmap's value is typed when the stage
    # compiles, so none of the 5 values it computes is checked
    assert sorted(checked) == list(range(1, 14))
    assert cells == {"integer": 8, "text": 8 * 2 + 5 * 2, "quantity": 8, "decimal": 5}


def fixture_copy(tmp_path, fixture: str, fname: str, edit) -> str:
    """A copy of a fixture with one of its documents edited."""
    data = tmp_path / "data"
    shutil.copytree(fixture_dir(fixture), data)
    path = data / fname
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(data)


def test_a_join_that_splits_its_ports_across_reports_is_caught_before_any_row_moves(
        tmp_path, capsys):
    # unused reference rows in a report of their own: report main would
    # cover the products that priced an order, audit the rest, and each
    # report's coverage would miss the other's pids
    data = lookup_copy(tmp_path, "pipeline.yaml",
                       lambda doc: doc["sinks"]["unused_references"].update(report="audit"))
    pipeline = os.path.join(data, "pipeline.yaml")
    line = ("SplitReport at price_lookup: inner, left_only reach main; "
            "right_only reaches audit")
    assert main(["check", pipeline, "--data", data]) == 2
    assert capsys.readouterr().out == line + "\n"
    assert main(["run", pipeline, "--data", data, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {line}\n"
    assert not (tmp_path / "out").exists()


def lookup_copy(tmp_path, fname: str, edit) -> str:
    return fixture_copy(tmp_path, "lookup", fname, edit)


def priced_through(node: dict):
    """An edit of the lookup pipeline that passes its priced rows through node."""
    def edit(doc):
        doc["nodes"].append({**node, "from": "valued.out"})
        doc["sinks"]["priced"]["from"] = f"{node['name']}.out"
    return edit


# each entry: the fixture, the document edited, the edit, and the error
# line after "run: "
BAD_ENTRIES = {
    "errorize without reason": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][2].pop("reason"),
        "DATA/pipeline.yaml: nodes[2] (errorize 'unknown_product') reason: needs text, "
        "and is missing"),
    "conservation without scheme": (
        "lookup", "pipeline.yaml", lambda doc: doc["conservation"][1].pop("scheme"),
        "DATA/pipeline.yaml: conservation[1].scheme: needs a name, and is missing"),
    "column without name": (
        "lookup", "products.csv.yaml", lambda doc: doc["columns"][1].pop("name"),
        "DATA/products.csv.yaml: columns[1] (column) name: needs a name, and is missing"),
    "report label all": (
        "lookup", "pipeline.yaml", lambda doc: doc["sinks"]["priced"].update(report="all"),
        "sink 'priced': the report label 'all' is reserved for the run-wide "
        "check coverage:all"),
    "fmap literal not a decimal": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][1]["add"].update(
            value={"add": [{"num": {"col": "quantity"}}, {"lit": {"dec": "soup"}}]}),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued') add.value.add[1].lit.dec: not a "
        "decimal: 'soup'"),
    "fmap sems and units for fields it does not add": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][1].update(
            sems={"value": "decimal", "valeu": "text"}, units={"valu": "$"}),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued'): map node 'valued' has sems or units "
        "for fields it does not add: ['valeu', 'valu']"),
    "quantity without a unit source": (
        "lookup", "order_details.csv.yaml", lambda doc: doc["columns"][2].pop("unit_from"),
        "DATA/order_details.csv.yaml: quantity column 'quantity' needs exactly one "
        "of unit and unit_from"),
    "sentinels written as one text": (
        "ship", "items.csv.yaml", lambda doc: doc["columns"][1].update(sentinels="unknown"),
        "DATA/items.csv.yaml: columns[1] (column 'Purchase price') sentinels: needs a list of "
        "cell texts, not 'unknown'"),
    "quantity with two unit sources": (
        "lookup", "order_details.csv.yaml", lambda doc: doc["columns"][2].update(unit="$"),
        "DATA/order_details.csv.yaml: quantity column 'quantity' needs exactly one "
        "of unit and unit_from"),
    "partition literal not a decimal": (
        "ship", "pipeline.yaml", lambda doc: doc["nodes"][3].update(
            when={"cmp": {"op": "ge", "field": "Insurance", "value": {"dec": "soup"}}}),
        "DATA/pipeline.yaml: nodes[3] (partition 'iv_by_insurance') when.cmp.value.dec: not a "
        "decimal: 'soup'"),
    "join key written as one name": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][0].update(keys=["product"]),
        "DATA/pipeline.yaml: nodes[0] (join 'price_lookup') keys[0]: needs a [left, right] "
        "pair of names, not 'product'"),
    "join key pair of one name": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][0].update(keys=[["product"]]),
        "DATA/pipeline.yaml: nodes[0] (join 'price_lookup') keys[0]: needs a [left, right] "
        "pair of names, not ['product']"),
    "fmap sem not a field type": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][1].update(sems={"value": "money"}),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued'): map node 'valued': unknown semantic "
        "type 'money' for field 'value'"),
    "stage name a number": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][2].update(name=7),
        "DATA/pipeline.yaml: nodes[2] (errorize 7) name: needs a name, not 7"),
    "source name a number": (
        "lookup", "pipeline.yaml",
        lambda doc: doc["sources"].update({7: doc["sources"].pop("products")}),
        "DATA/pipeline.yaml: sources: needs a name as each key, not 7"),
    "report label a number": (
        "lookup", "pipeline.yaml", lambda doc: doc["sinks"]["priced"].update(report=5),
        "DATA/pipeline.yaml: sinks.priced.report: needs text, not 5"),
    "source file a number": (
        "lookup", "pipeline.yaml", lambda doc: doc["sources"]["orders"].update(file=5),
        "DATA/pipeline.yaml: sources.orders.file: needs text, not 5"),
    "partition flag as text": (
        "ship", "pipeline.yaml", lambda doc: doc["nodes"][3].update(rejected_to_errors="false"),
        "DATA/pipeline.yaml: nodes[3] (partition 'iv_by_insurance') rejected_to_errors: needs "
        "true or false, not 'false'"),
    "join flag as text": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][0].update(missing_matches="no"),
        "DATA/pipeline.yaml: nodes[0] (join 'price_lookup') missing_matches: needs true or "
        "false, not 'no'"),
    "fmap unit a number": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][1].update(units={"value": 5}),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued') units.value: needs text or null, not 5"),
    "fmap added name a number": (
        "lookup", "pipeline.yaml", lambda doc: (doc["nodes"][1]["add"].update({5: {"lit": "x"}}),
                                                doc["nodes"][1]["sems"].update({5: "text"})),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued') add: needs a name as each key, not 5"),
    "rename to a number": (
        "lookup", "pipeline.yaml",
        priced_through({"op": "rename", "name": "relabel", "map": {"product": 5}}),
        "DATA/pipeline.yaml: nodes[5] (rename 'relabel') map.product: needs a name, not 5"),
    "project fields written as one name": (
        "lookup", "pipeline.yaml",
        priced_through({"op": "project", "name": "narrow", "fields": "order"}),
        "DATA/pipeline.yaml: nodes[5] (project 'narrow') fields: needs a list of names, not "
        "'order'"),
    "aggregate keys written as one name": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][3].update(by="product"),
        "DATA/pipeline.yaml: nodes[3] (aggregate 'missing_summary') by: needs a list of "
        "names, not 'product'"),
    "aggregate spec not in a list": (
        "lookup", "pipeline.yaml",
        lambda doc: doc["nodes"][3].update(specs={"field": "quantity", "op": "sum"}),
        "DATA/pipeline.yaml: nodes[3] (aggregate 'missing_summary') specs: needs a list of "
        "aggregations, not {'field': 'quantity', 'op': 'sum'}"),
    "join keys not in a list": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][0].update(keys="product"),
        "DATA/pipeline.yaml: nodes[0] (join 'price_lookup') keys: needs a list of [left, "
        "right] pairs of names, not 'product'"),
    "partition set written as one value": (
        "ship", "pipeline.yaml",
        lambda doc: doc["nodes"][26]["when"]["not"]["in"].update(values="person"),
        "DATA/pipeline.yaml: nodes[26] (partition 'wt_mass') when.not.in.values: needs a list "
        "of values, not 'person'"),
    "partition always as text": (
        "ship", "pipeline.yaml", lambda doc: doc["nodes"][3].update(when={"always": "false"}),
        "DATA/pipeline.yaml: nodes[3] (partition 'iv_by_insurance') when.always: needs true "
        "or false, not 'false'"),
    "fmap sems not a mapping": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][1].update(sems=["value"]),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued') sems: needs a mapping of each added "
        "field to its type, not ['value']"),
    "fmap units not a mapping": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][1].update(units=["value"]),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued') units: needs a mapping of each added "
        "field to its unit, not ['value']"),
    "fmap column named by a number": (
        "lookup", "pipeline.yaml",
        lambda doc: doc["nodes"][1]["add"].update(value={"num": {"col": 5}}),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued') add.value.num.col: needs a name, not 5"),
    "fmap quantity unit a number": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][1]["add"].update(
            value={"mul": [{"num": {"col": "quantity"}}, {"num": {"lit": {"qty": [1, 5]}}}]}),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued') add.value.mul[1].num.lit.qty[1]: needs "
        "text, not 5"),
    "fmap missing reason a list": (
        "lookup", "pipeline.yaml",
        lambda doc: doc["nodes"][1]["add"].update(value={"lit": {"missing": [1]}}),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued') add.value.lit.missing: needs text, not "
        "[1]"),
    "fmap arithmetic over text": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][1]["add"].update(value={"add": "ab"}),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued') add.value.add: needs a [left, right] "
        "pair of expressions, not 'ab'"),
    "fmap arithmetic over one operand": (
        "lookup", "pipeline.yaml",
        lambda doc: doc["nodes"][1]["add"].update(value={"sub": [{"col": "order"}]}),
        "DATA/pipeline.yaml: nodes[1] (fmap 'valued') add.value.sub: needs a [left, right] "
        "pair of expressions, not [{'col': 'order'}]"),
    "sink kind misspelled": (
        "lookup", "pipeline.yaml",
        lambda doc: doc["sinks"]["missing_products"].update(
            knd=doc["sinks"]["missing_products"].pop("kind")),
        "DATA/pipeline.yaml: sinks.missing_products: needs one of the keys "
        "kind | report | from, not 'knd'"),
    "partition flag misspelled": (
        "ship", "pipeline.yaml",
        lambda doc: doc["nodes"][26].update(
            rejected_to_error=doc["nodes"][26].pop("rejected_to_errors")),
        "DATA/pipeline.yaml: nodes[26] (partition 'wt_mass'): needs one of the keys "
        "op | name | when | rejected_to_errors | from | in | inputs, not 'rejected_to_error'"),
    "columns not a list": (
        "lookup", "products.csv.yaml", lambda doc: doc.update(columns=5),
        "DATA/products.csv.yaml: columns: needs a list of columns, not 5"),
    "column name a list": (
        "lookup", "products.csv.yaml", lambda doc: doc["columns"][1].update(name=[1]),
        "DATA/products.csv.yaml: columns[1] (column [1]) name: needs a name, not [1]"),
    "column name a number": (
        "lookup", "products.csv.yaml", lambda doc: doc["columns"][1].update(name=5),
        "DATA/products.csv.yaml: columns[1] (column 5) name: needs a name, not 5"),
    "errorize reason a list": (
        "lookup", "pipeline.yaml", lambda doc: doc["nodes"][2].update(reason=[1, {"a": 2}]),
        "DATA/pipeline.yaml: nodes[2] (errorize 'unknown_product') reason: needs text, "
        "not [1, {'a': 2}]"),
    "pipeline name a list": (
        "lookup", "pipeline.yaml", lambda doc: doc.update(name=[1]),
        "DATA/pipeline.yaml: name: needs text, not [1]"),
    "column unit a number": (
        "lookup", "products.csv.yaml", lambda doc: doc["columns"][2].update(unit=5),
        "DATA/products.csv.yaml: columns[2] (column 'current_price') unit: needs text, not 5"),
    "column unit a boolean": (
        "lookup", "products.csv.yaml", lambda doc: doc["columns"][2].update(unit=True),
        "DATA/products.csv.yaml: columns[2] (column 'current_price') unit: needs text, "
        "not True"),
    "column empty a list": (
        "ship", "items.csv.yaml", lambda doc: doc["columns"][4].update(empty=[1]),
        "DATA/items.csv.yaml: columns[4] (column 'Unit') empty: needs text or an integer, "
        "not [1]"),
    "project that keeps no fields": (
        "lookup", "pipeline.yaml",
        priced_through({"op": "project", "name": "narrow", "fields": []}),
        "SchemaMismatch at narrow: projection keeps no fields"),
    "partition set of integers over text": (
        "ship", "pipeline.yaml", lambda doc: doc["nodes"][26].update(
            when={"not": {"in": {"field": "Unit", "values": [5, 7]}}}),
        "SchemaMismatch at wt_mass: Unit is text, so the integer literal 5 cannot match it"),
    "column unit on a text column": (
        "lookup", "products.csv.yaml", lambda doc: doc["columns"][1].update(unit="kg"),
        "DATA/products.csv.yaml: columns[1] (column 'description'): column 'description': "
        "unit needs type decimal or quantity"),
    "column name empty": (
        "lookup", "products.csv.yaml", lambda doc: doc["columns"][0].update(name=""),
        "DATA/products.csv.yaml: columns[0] (column ''): a column name must be nonempty"),
}
# entries that build and are refused by the graph's validation: check
# prints each violation line on stdout, with no "check: " prefix
CAUGHT_BY_VALIDATION = {"project that keeps no fields", "partition set of integers over text"}


@pytest.mark.parametrize("case", list(BAD_ENTRIES))
def test_bad_document_entries_exit_2_naming_the_entry(tmp_path, capsys, case):
    fixture, fname, edit, message = BAD_ENTRIES[case]
    data = fixture_copy(tmp_path, fixture, fname, edit)
    message = message.replace("DATA", data)
    pipeline = os.path.join(data, "pipeline.yaml")
    assert main(["run", pipeline, "--data", data,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {message}\n"
    assert main(["check", pipeline, "--data", data]) == 2
    if case in CAUGHT_BY_VALIDATION:
        assert capsys.readouterr() == (f"{message}\n", "")
    else:
        assert capsys.readouterr().err == f"check: {message}\n"
    assert not (tmp_path / "out").exists()


def rename_priced(name: str):
    """An edit of the lookup pipeline that renames its priced sink."""
    def edit(doc):
        doc["sinks"][name] = doc["sinks"].pop("priced")
    return edit


@pytest.mark.parametrize("sink", ["sub/x", "sub\\x", "ABSOLUTE"])
def test_sink_names_that_leave_the_output_directory_exit_2(tmp_path, capsys, sink):
    sink = sink.replace("ABSOLUTE", str(tmp_path / "escaped"))
    data = lookup_copy(tmp_path, "pipeline.yaml", rename_priced(sink))
    pipeline = os.path.join(data, "pipeline.yaml")
    assert main(["check", pipeline, "--data", data]) == 2
    assert capsys.readouterr().err == f"check: bad owner name {sink!r}\n"
    assert main(["run", pipeline, "--data", data, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: bad owner name {sink!r}\n"
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "escaped.csv").exists()


def test_a_sink_named_like_a_sources_ingest_errors_exits_2(tmp_path, capsys):
    data = lookup_copy(tmp_path, "pipeline.yaml", rename_priced("orders_ingest_errors"))
    with open(os.path.join(data, "order_details.csv"), "a", encoding="utf-8") as fh:
        fh.write("x,Milk,1,each\n")  # an unparseable order number
    pipeline = os.path.join(data, "pipeline.yaml")
    message = "sink 'orders_ingest_errors' would overwrite the ingest errors of source 'orders'"
    assert main(["check", pipeline, "--data", data]) == 2
    assert capsys.readouterr().err == f"check: {message}\n"
    assert main(["run", pipeline, "--data", data, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {message}\n"
    assert not (tmp_path / "out").exists()


def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("a regular file\n", encoding="utf-8")
    d = fixture_dir("lookup")
    assert main(["run", os.path.join(d, "pipeline.yaml"), "--data", d, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("run: ") and str(out) in captured.err
    assert out.read_text(encoding="utf-8") == "a regular file\n"


# each entry: how the section is given the wrong shape, and the shape it needs
BAD_SECTIONS = {
    "sources": (lambda doc: list(doc["sources"]), "a mapping of source names to sources"),
    "sinks": (lambda doc: [{"name": k, **v} for k, v in doc["sinks"].items()],
              "a mapping of sink names to sinks"),
    "conservation": (lambda doc: doc["conservation"][0], "a list of conservation entries"),
    "nodes": (lambda doc: 3, "a list of nodes"),
    "wires": (lambda doc: "orders.out", "a list of wires"),
}


@pytest.mark.parametrize("section", list(BAD_SECTIONS))
def test_sections_of_the_wrong_shape_exit_2(tmp_path, capsys, section):
    reshape, shape = BAD_SECTIONS[section]

    def edit(doc):
        doc[section] = reshape(doc)

    data = lookup_copy(tmp_path, "pipeline.yaml", edit)
    pipeline = os.path.join(data, "pipeline.yaml")
    found = read_yaml(pipeline)[section]
    message = f"{pipeline}: {section}: needs {shape}, not {found!r}"
    assert main(["run", pipeline, "--data", data,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {message}\n"
    assert main(["check", pipeline, "--data", data]) == 2
    assert capsys.readouterr().err == f"check: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_csv_with_a_byte_order_mark_runs_like_one_without(tmp_path, capsys):
    # spreadsheet "CSV UTF-8" exports start with one
    runs = []
    for bom in (b"", codecs.BOM_UTF8):
        data = tmp_path / f"data{len(runs)}"
        shutil.copytree(fixture_dir("lookup"), data)
        path = data / "order_details.csv"
        path.write_bytes(bom + path.read_bytes())
        out = tmp_path / f"out{len(runs)}"
        assert main(["run", str(data / "pipeline.yaml"), "--data", str(data),
                     "--out", str(out)]) == 0
        runs.append(({p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr()))
    assert runs[1] == runs[0]


def test_run_scans_each_relation_once_for_its_pids(tmp_path, monkeypatch):
    from functools import cached_property
    scanned = []
    real = Relation.pid_record.func

    def counted(rel):
        scanned.append(rel)
        return real(rel)

    prop = cached_property(counted)
    prop.__set_name__(Relation, "pid_record")
    monkeypatch.setattr(Relation, "pid_record", prop)
    d = fixture_dir("lookup")
    assert main(["run", os.path.join(d, "pipeline.yaml"),
                 "--data", d, "--out", str(tmp_path / "out")]) == 0
    # 2 sources and 7 stage outputs; stage inputs and sinks read the
    # record of the relation that feeds them
    assert len(scanned) == len({id(rel) for rel in scanned}) == 9


def test_run_names_the_stage_that_fails_on_rows(tmp_path, capsys):
    # typing sees only "summary" for an avg column, so num over it passes
    # check and fails on the first row; run names the failing stage
    def average_then_number(doc):
        summary = next(n for n in doc["nodes"] if n["name"] == "missing_summary")
        summary["specs"] = [{"field": "quantity", "op": "avg"}]
        doc["nodes"].append({"op": "fmap", "name": "avg_number", "from": "missing_summary.out",
                             "add": {"num": {"num": {"col": "quantity_avg"}}},
                             "sems": {"num": "decimal"}})
        doc["sinks"]["missing_products"]["from"] = "avg_number.out"

    data = lookup_copy(tmp_path, "pipeline.yaml", average_then_number)
    pipeline = os.path.join(data, "pipeline.yaml")
    assert main(["check", pipeline, "--data", data]) == 0
    assert capsys.readouterr().out == "check: lookup: graph is runnable (6 stages, 3 sinks)\n"
    assert main(["run", pipeline, "--data", data, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "run: stage 'avg_number': no numeric view of a avg summary\n")
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_computed_value_of_another_sem(tmp_path, capsys):
    def declare_integer(doc):
        doc["nodes"][1]["sems"]["value"] = "integer"

    data = lookup_copy(tmp_path, "pipeline.yaml", declare_integer)
    assert main(["run", os.path.join(data, "pipeline.yaml"), "--data", data,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "run: SchemaMismatch at valued: field 'value' is declared integer but computes decimal\n")
    assert not (tmp_path / "out").exists()


def test_a_nan_price_lands_in_the_ingest_errors(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(fixture_dir("ship"), data)
    items = data / "items.csv"
    text = items.read_text(encoding="utf-8")
    assert text.count("\nNutella,10,") == 1
    items.write_text(text.replace("\nNutella,10,", "\nNutella,NaN,"), encoding="utf-8")
    assert main(["run", str(data / "pipeline.yaml"), "--data", str(data),
                 "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "items_ingest_errors.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["Description"], r["Purchase price"], r["error_reason"]) for r in rows] == [
        ("Nutella", "NaN", "column 'Purchase price': not a number: 'NaN'")]


def test_a_nan_literal_in_a_pipeline_document_exits_2(tmp_path, capsys):
    def nan_value(doc):
        doc["nodes"][1]["add"]["value"] = {"lit": {"dec": "NaN"}}

    data = lookup_copy(tmp_path, "pipeline.yaml", nan_value)
    assert main(["run", os.path.join(data, "pipeline.yaml"), "--data", data,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"run: {data}/pipeline.yaml: nodes[1] (fmap 'valued') "
                                       "add.value.lit.dec: not a decimal: 'NaN'\n")
    assert not (tmp_path / "out").exists()


def test_a_measure_no_source_carries_exits_2(tmp_path, capsys):
    # a sum reads decimal fields; the lookup fixture's quantity is a quantity
    def sum_quantity(doc):
        doc["conservation"][1] = {"scheme": "sum", "field": "quantity"}

    data = lookup_copy(tmp_path, "pipeline.yaml", sum_quantity)
    pipeline = os.path.join(data, "pipeline.yaml")
    message = "UnmeasuredField at sum[quantity]: no source has a decimal field 'quantity'"
    assert main(["check", pipeline, "--data", data]) == 2
    assert capsys.readouterr().out == f"{message}\n"
    assert main(["run", pipeline, "--data", data, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {message}\n"
    assert not (tmp_path / "out").exists()


# each entry: an edit of the lookup fixture's valued fmap, and the violation
# it makes; a computed type is decided when the stage compiles, whatever
# the data holds
COMPUTED_TYPE_ERRORS = {
    "num over text": (
        lambda nd: nd["add"].update(value={"num": {"col": "description"}}),
        "num applied to a text value"),
    "declared sem": (
        lambda nd: nd["sems"].update(value="integer"),
        "field 'value' is declared integer but computes decimal"),
    "unit_of over decimal": (
        lambda nd: nd["add"].update(value={"unit_of": {"col": "current_price"}}),
        "unit_of applied to a decimal value"),
}


@pytest.mark.parametrize("case", list(COMPUTED_TYPE_ERRORS))
def test_a_computed_type_error_is_caught_before_any_row_runs(tmp_path, capsys, case):
    edit, detail = COMPUTED_TYPE_ERRORS[case]
    data = lookup_copy(tmp_path, "pipeline.yaml", lambda doc: edit(doc["nodes"][1]))
    pipeline = os.path.join(data, "pipeline.yaml")
    message = f"SchemaMismatch at valued: {detail}"
    assert main(["check", pipeline, "--data", data]) == 2
    assert capsys.readouterr().out == f"{message}\n"
    assert main(["run", pipeline, "--data", data, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {message}\n"
    assert not (tmp_path / "out").exists()


def mixed_key_lookup(tmp_path) -> str:
    """The lookup fixture also joined on (order, current_price), with an
    order whose number is its product's price: an integer never keys
    equal to a decimal, so nothing would join."""
    data = lookup_copy(tmp_path, "pipeline.yaml", lambda doc: doc["nodes"][0].update(
        keys=[["product", "product"], ["order", "current_price"]]))
    with open(os.path.join(data, "order_details.csv"), "a", encoding="utf-8") as fh:
        fh.write("10,Nutella,1,each\n")  # Nutella costs 10
    return data


def unlike_unit_key(tmp_path, left: str = "k", right: str = "k") -> str:
    """Two tables joined on a decimal key, 10 $ on the left and 10 EUR on
    the right: a decimal cell carries no unit, so the two would match, and
    a same-named key would keep only the left unit."""
    data = tmp_path / "data"
    data.mkdir()
    for name, key, unit in (("a", left, "$"), ("b", right, "EUR")):
        (data / f"{name}.csv").write_text(f"{key}\n10\n", encoding="utf-8")
        (data / f"{name}.csv.yaml").write_text(yaml.safe_dump(
            {"columns": [{"name": key, "type": "decimal", "unit": unit}]}), encoding="utf-8")
    (data / "pipeline.yaml").write_text("""
name: keys
sources: {a: {file: a.csv}, b: {file: b.csv}}
conservation: [{scheme: count}]
nodes:
  - {op: join, name: match, left: a, right: b, keys: KEYS}
sinks:
  both: {from: match.inner}
  left_alone: {kind: error, from: match.left_only}
  right_alone: {kind: error, from: match.right_only}
""".replace("KEYS", f"[[{left}, {right}]]"), encoding="utf-8")
    return str(data)


# each entry: the copy's maker, the join stage and the error after its name
JOIN_KEY_ERRORS = {
    "integer with decimal": (
        mixed_key_lookup, "price_lookup",
        "join key pair ('order', 'current_price') mixes integer with decimal"),
    "same-named key in two units": (
        unlike_unit_key, "match", "join key 'k' has unit '$' on the left but 'EUR' on the right"),
    "differently named keys in two units": (
        lambda tmp_path: unlike_unit_key(tmp_path, "p", "q"), "match",
        "join key pair ('p', 'q') has unit '$' on the left but 'EUR' on the right"),
}


@pytest.mark.parametrize("case", list(JOIN_KEY_ERRORS))
def test_a_join_on_keys_that_cannot_match_is_caught_before_any_row_runs(tmp_path, capsys, case):
    make, stage, detail = JOIN_KEY_ERRORS[case]
    data = make(tmp_path)
    pipeline = os.path.join(data, "pipeline.yaml")
    message = f"SchemaMismatch at {stage}: {detail}"
    assert main(["check", pipeline, "--data", data]) == 2
    assert capsys.readouterr().out == f"{message}\n"
    assert main(["run", pipeline, "--data", data, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {message}\n"
    assert not (tmp_path / "out").exists()


# each entry: the fixture, the edit, the stage that names the field, the field
UNKNOWN_COLUMNS = {
    "fmap column": (
        "lookup", lambda doc: doc["nodes"][1]["add"]["value"]["mul"][1]["num"].update(
            col="qty_typo"), "valued", "qty_typo"),
    "partition field": (
        "ship", lambda doc: doc["nodes"][3]["when"].update(defined="Insurence"),
        "iv_by_insurance", "Insurence"),
}


@pytest.mark.parametrize("case", list(UNKNOWN_COLUMNS))
def test_an_unknown_column_is_caught_before_any_row_runs(tmp_path, capsys, case):
    fixture, edit, stage, field = UNKNOWN_COLUMNS[case]
    data = fixture_copy(tmp_path, fixture, "pipeline.yaml", edit)
    pipeline = os.path.join(data, "pipeline.yaml")
    message = f"SchemaMismatch at {stage}: no field {field!r} in schema ("
    assert main(["check", pipeline, "--data", data]) == 2
    assert capsys.readouterr().out.startswith(message)
    assert main(["run", pipeline, "--data", data, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"run: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fname,text", [("pipeline.yaml", "sources: {orders: [\n"),
                                        ("products.csv.yaml", "columns: [\n")])
def test_malformed_yaml_exits_2_naming_the_file(tmp_path, capsys, fname, text):
    data = tmp_path / "data"
    shutil.copytree(fixture_dir("lookup"), data)
    (data / fname).write_text(text, encoding="utf-8")
    pipeline = str(data / "pipeline.yaml")
    message = f"{data / fname}: not a YAML document: "
    assert main(["run", pipeline, "--data", str(data), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"run: {message}")
    assert main(["check", pipeline, "--data", str(data)]) == 2
    assert capsys.readouterr().err.startswith(f"check: {message}")
    assert not (tmp_path / "out").exists()


def fixture_yaml() -> list:
    return sorted(os.path.join(fixture_dir(f), name) for f in ("lookup", "ship")
                  for name in os.listdir(fixture_dir(f)) if name.endswith(".yaml"))


def test_the_c_and_python_loaders_read_every_fixture_alike():
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    assert len(fixture_yaml()) == 6
    for path in fixture_yaml():
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert fast == yaml.load(text, Loader=yaml.SafeLoader) == read_yaml(path)


def test_read_yaml_falls_back_to_the_python_loader(monkeypatch):
    loaders = []
    load = yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    for path in fixture_yaml():
        with open(path, encoding="utf-8") as fh:
            assert read_yaml(path) == yaml.safe_load(fh)
    assert set(loaders) == {yaml.SafeLoader}


# a run or a check through the CLI, then which optional modules it loaded;
# dataclasses counts as one, since generating a dataclass's methods costs
# start-up about half a millisecond per class, and so does inspect, which
# it imports.  Every run and check reads its documents through the
# grammar module, so the probe shows that module loads neither.
LAZY_PROBE = """
import sys
from tallyflow.cli import main
code = main(sys.argv[1:])
assert "tallyflow.grammar" in sys.modules
sys.stderr.write(repr([m for m in ("tallyflow.ra", "tallyflow.fuzz", "dataclasses", "inspect")
                       if m in sys.modules]))
sys.exit(code)
"""


def test_run_and_check_never_load_the_compiler_or_the_fuzzer(tmp_path):
    d = fixture_dir("lookup")
    pipeline = os.path.join(d, "pipeline.yaml")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tallyflow.__file__))}
    for argv in (["run", pipeline, "--data", d, "--out", str(tmp_path / "out")],
                 ["check", pipeline, "--data", d]):
        proc = subprocess.run([sys.executable, "-c", LAZY_PROBE, *argv], env=env,
                              capture_output=True, text=True, check=False)
        assert (proc.returncode, proc.stderr) == (0, "[]")


def test_the_compiler_and_the_fuzzer_load_on_first_access():
    from tallyflow import make_case, run_fuzz, translate
    from tallyflow.fuzz import make_case as fuzz_make_case
    from tallyflow.ra import translate as ra_translate

    assert (translate, make_case) == (ra_translate, fuzz_make_case)
    assert callable(run_fuzz) and tallyflow.ra.translate is translate
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        tallyflow.no_such_name


@pytest.mark.parametrize("fixture", ["lookup", "ship"])
def test_run_compiles_each_predicate_and_expression_once_per_apply(
        tmp_path, monkeypatch, fixture):
    import tallyflow.ops as ops_mod
    calls = Counter()

    def counting(name):
        real = getattr(ops_mod, name)

        def counted(tree, sch):
            calls[name] += 1
            return real(tree, sch)
        return counted

    for name in ("compile_pred", "compile_expr"):
        monkeypatch.setattr(ops_mod, name, counting(name))
    d = fixture_dir(fixture)
    pipeline = os.path.join(d, "pipeline.yaml")
    nodes = read_yaml(pipeline)["nodes"]
    assert main(["run", pipeline, "--data", d, "--out", str(tmp_path / "out")]) == 0
    # each stage applies twice, in the dry run and in the run, however
    # many rows it sees
    assert (calls["compile_pred"], calls["compile_expr"]) == (
        2 * sum(nd["op"] == "partition" for nd in nodes),
        2 * sum(len(nd["add"]) for nd in nodes if nd["op"] == "fmap"))


# -- command line: run outputs ------------------------------------------

# sha256 of every deterministic `run` output: sinks, dashboards, audit.json
# (with the rendered `measure:*` balances of its conservation section) and
# stdout must not change by accident.  The audit.json digests were last
# recomputed when its `sources`, `stages` and `sinks` sections were dropped
# (the path table holds every pid once); its `paths`, `reports` and
# `conservation` did not change.
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
        "audit.json": "9ea6cf78cc7bd86f4beddc525e5eed88891ff38f5a38e5a6dfde008338392730",
        "dashboard.txt": "f2db630e8ac2d8aeafd30d59da963e37eac1c6d8450fd7c78b3b71fac3398420",
        "dashboard.json": "f8e84c2a1e17c1597439e767450a766f79ba4f61e5904e18afd7e14f069682eb",
        "stdout text": "f2db630e8ac2d8aeafd30d59da963e37eac1c6d8450fd7c78b3b71fac3398420",
        "stdout structured": "f8e84c2a1e17c1597439e767450a766f79ba4f61e5904e18afd7e14f069682eb",
    },
    "lookup": {
        "missing_products.csv": "6e926ad1218e5508c038e2fc4f758640cc8fd9728af69a60cc1450ccf8abfb05",
        "priced.csv": "d05bcfcc83e4fcbe3bfeb0e6de8b5ec83107eebf3497417bd5db5b104b3f74b7",
        "unused_references.csv": "d9de3e50bf0ce959b465cfa8576b4ffb8f5694197c3864aa225355e443069047",
        "audit.json": "21e4282eb861d0d0efd6b371c77772bb2c6474c7e45004a80e80922a7f6c41f5",
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


PID_RANGES = re.compile(r"\d+(-\d+)?(,\d+(-\d+)?)*")


def _strings(node):
    """Every string of a decoded JSON document, keys included."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield k
            yield from _strings(v)
    elif isinstance(node, list):
        for v in node:
            yield from _strings(v)
    elif isinstance(node, str):
        yield node


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
    import tallyflow.cli as cli_mod
    graphs = []
    real_dashboard = cli_mod.dashboard_document

    def capture(graph, result, report):
        graphs.append(graph)
        return real_dashboard(graph, result, report)

    monkeypatch.setattr(cli_mod, "dashboard_document", capture)
    audit, doc = _run_and_capture_audit(monkeypatch, pipeline, data, tmp_path / "out")

    # the paths are the whole pid record: each pid is written once, and
    # every port's set is the union of the paths with a step at that port
    assert set(doc) == {"reports", "paths", "conservation"}
    assert sorted(s for s in _strings(doc) if PID_RANGES.fullmatch(s)) == \
        sorted(entry["pids"] for entry in doc["paths"])
    at_port: dict = {}
    for entry in doc["paths"]:
        for owner, port, _ in entry["steps"]:
            at_port.setdefault((owner, port), set()).update(
                _decode_pid_ranges(entry["pids"]))

    def port_set(owner, port):
        return at_port.get((owner, port), set())

    assert at_port.keys() <= {(e.owner, e.port) for e in audit.ports}
    for e in audit.ports:
        assert port_set(e.owner, e.port) == e.pids, (e.owner, e.port)
    assert {k: port_set(k, "out") for k in audit.source_pids} == audit.source_pids
    assert {k: port_set(k, "in") for k in audit.sink_pids} == audit.sink_pids
    feeder = {(w.dst.owner, w.dst.port): (w.src.owner, w.src.port)
              for w in graphs[0].wires}
    assert [(sv.stage, {p: port_set(*feeder[sv.stage, p]) for p in sv.ins},
             {p: port_set(sv.stage, p) for p in sv.outs})
            for sv in audit.stage_visits] == \
        [(sv.stage, sv.ins, sv.outs) for sv in audit.stage_visits]

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


def test_charges_come_from_the_sources_that_carry_each_measure(tmp_path, monkeypatch):
    runs = []
    real_run = PipelineGraph.run

    def run(graph, inputs):
        runs.append((graph, inputs))
        return real_run(graph, inputs)

    monkeypatch.setattr(PipelineGraph, "run", run)
    d = fixture_dir("ship")
    audit, _ = _run_and_capture_audit(
        monkeypatch, os.path.join(d, "pipeline.yaml"), d, tmp_path / "out")
    assert audit.charges["paccioli[Price]"].keys() == audit.source_pids["prices"]
    assert audit.charges["paccioli[Insurance]"].keys() == audit.source_pids["items"]
    assert audit.charges["count"].keys() == audit.all_source_pids()

    # perfbench/tracer.py times build_charges on a fresh RunAudit after the
    # run and counts its entries: that call must rebuild the run's ledger
    [(graph, inputs)] = runs
    fresh = RunAudit()
    build_charges(graph, fresh, inputs)
    assert list(fresh.charges) == list(audit.charges) == list(audit.space_units)
    assert {s: c.keys() for s, c in fresh.charges.items()} == \
        {s: c.keys() for s, c in audit.charges.items()}
    assert fresh.totals == audit.totals
    assert fresh.space_units == audit.space_units


@pytest.mark.parametrize("fixture", ["lookup", "ship"])
def test_the_ledger_holds_one_entry_per_carrier_row_per_charged_space(
        fixture, tmp_path, monkeypatch):
    runs = []
    real_run = PipelineGraph.run
    monkeypatch.setattr(PipelineGraph, "run",
                        lambda graph, inputs: runs.append((graph, inputs)) or real_run(graph, inputs))
    d = fixture_dir(fixture)
    assert main(["run", os.path.join(d, "pipeline.yaml"), "--data", d,
                 "--out", str(tmp_path / "out")]) == 0
    [(graph, inputs)] = runs
    audit = RunAudit()
    build_charges(graph, audit, inputs)
    # a row is charged at its smallest pid; a quantity only in its unit's space
    want: dict = {}
    for spec in graph.conservation:
        for rec in (r for name in measure_carriers(graph, spec) for r in inputs[name].rows):
            if spec.scheme != "sum_by_unit":
                space = spec.scheme if spec.fld is None else f"{spec.scheme}[{spec.fld}]"
            elif isinstance(rec.fields[spec.fld], Quantity):
                space = f"sum[{spec.fld}:{rec.fields[spec.fld].unit}]"
            else:
                continue
            want.setdefault(space, []).append(min(rec.pids))
    assert {s: sorted(c) for s, c in audit.charges.items()} == {
        s: sorted(p) for s, p in want.items()}


@pytest.mark.parametrize("space, pid, corrupt, failed", [
    ("count", 1, lambda p: p + 1, {
        "measure:insured_value:count": "sinks 12 != sources 11",
        "measure:replacement_cost:count": "sinks 12 != sources 11",
        "measure:weight:count": "sinks 8 != sources 7"}),
    ("sum[Quantity:tonne]", 3, lambda p: p + 1, {
        f"measure:{label}:sum[Quantity:tonne]": "sinks 201 tonne != sources 200 tonne"
        for label in ("insured_value", "replacement_cost", "weight")}),
    # prices pids reach no weight sink, so weight's check stays green
    ("paccioli[Price]", 8, lambda p: (p[0] + 1, p[1]), {
        f"measure:{label}:paccioli[Price]":
            "sinks dr 47.1356 / cr 0 != sources dr 46.1356 / cr 0"
        for label in ("insured_value", "replacement_cost")}),
], ids=["count", "sum_by_unit", "paccioli"])
def test_a_corrupted_ledger_payload_breaks_its_measure(
        tmp_path, capsys, monkeypatch, space, pid, corrupt, failed):
    # the sink side reads the ledger and the source side the carriers'
    # totals, so one wrong payload after the run turns its measure red
    import tallyflow.cli as cli_mod
    reports = []
    check = cli_mod.conservation_check

    def corrupted_check(audit):
        audit.charges[space][pid] = corrupt(audit.charges[space][pid])
        reports.append(check(audit))
        return reports[-1]

    monkeypatch.setattr(cli_mod, "conservation_check", corrupted_check)
    d = fixture_dir("ship")
    assert main(["run", os.path.join(d, "pipeline.yaml"),
                 "--data", d, "--out", str(tmp_path / "out")]) == 3
    [report] = reports
    assert not report.ok
    assert {c.name: c.detail for c in report.checks if not c.ok} == failed
    assert capsys.readouterr().err == "".join(
        f"run: conservation broken: {name}: {detail}\n" for name, detail in failed.items())


# -- command line: fuzz -------------------------------------------------


def test_fuzz_runs_clean_on_a_small_budget(capsys):
    assert main(["fuzz", "--seed", "7", "--iterations", "40"]) == 0
    out = capsys.readouterr().out
    assert "fuzz: 40 iterations, seed 7, 0 failures" in out
    assert "node kinds seen:" in out


def test_fuzz_refuses_a_negative_iteration_count(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["fuzz", "--iterations", "-1"])
    assert exit_.value.code == 2
    assert "argument --iterations: needs a count, 0 or more, not '-1'" in capsys.readouterr().err
    assert main(["fuzz", "--iterations", "0"]) == 0
    assert capsys.readouterr().out.startswith("fuzz: 0 iterations, seed 0, 0 failures\n")


def test_fuzz_structured_format(capsys):
    assert main(["fuzz", "--seed", "7", "--iterations", "40",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["iterations"] == 40
    assert doc["failures"] == 0
    assert doc["first_failure"] == ""
    assert len(doc["kinds_seen"]) >= 3


def test_a_case_that_raises_while_it_is_built_fails_that_case(monkeypatch, capsys):
    import tallyflow.fuzz as fuzz_mod
    from tallyflow.errors import ExprTypeError
    make_case = fuzz_mod.make_case

    def raise_at_3(seed, index):
        if index == 3:
            raise ExprTypeError("planted at case 3")
        return make_case(seed, index)

    monkeypatch.setattr(fuzz_mod, "make_case", raise_at_3)
    report = fuzz_mod.run_fuzz(5, 8)
    assert report.failures == 1
    assert report.first_failure == "iteration 3 (seed 5): ExprTypeError: planted at case 3"
    assert main(["fuzz", "--seed", "5", "--iterations", "8"]) == 1
    out, err = capsys.readouterr()
    assert "fuzz: 8 iterations, seed 5, 1 failures" in out
    assert "first failure:\niteration 3 (seed 5): ExprTypeError: planted at case 3\n" in out
    assert "Traceback" not in out + err


# a command through the CLI, then which process-pool modules it loaded
POOL_PROBE = """
import sys
from tallyflow.cli import main
code = main(sys.argv[1:])
sys.stderr.write(repr([m for m in ("multiprocessing", "concurrent.futures", "dataclasses")
                       if m in sys.modules]))
sys.exit(code)
"""


def test_run_check_and_an_empty_fuzz_never_load_a_process_pool(tmp_path):
    d = fixture_dir("lookup")
    pipeline = os.path.join(d, "pipeline.yaml")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tallyflow.__file__))}
    for argv in (["run", pipeline, "--data", d, "--out", str(tmp_path / "out")],
                 ["check", pipeline, "--data", d],
                 ["fuzz", "--iterations", "0"]):
        proc = subprocess.run([sys.executable, "-c", POOL_PROBE, *argv], env=env,
                              capture_output=True, text=True, check=False, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "[]"), argv


# structured fuzz reports of seeds 0-2; argv[1] == "1" pins the process to one CPU
FUZZ_SWEEP = """
import os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from tallyflow.cli import main
for seed in (0, 1, 2):
    main(["fuzz", "--seed", str(seed), "--iterations", "200", "--format", "structured"])
sys.stderr.write(repr("multiprocessing" in sys.modules))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_one_cpu_fuzz_forks_nothing_and_reports_what_a_default_one_does():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tallyflow.__file__))}
    default, one_cpu = (subprocess.run([sys.executable, "-c", FUZZ_SWEEP, flag], env=env,
                                       capture_output=True, text=True, check=True,
                                       timeout=300)
                        for flag in ("0", "1"))
    assert one_cpu.stderr == "False"
    assert one_cpu.stdout == default.stdout
    assert [json.loads(doc)["iterations"] for doc in re.findall(r"(?ms)^\{.*?^\}", default.stdout)] \
        == [200, 200, 200]


def test_a_one_case_fuzz_runs_in_this_process(monkeypatch):
    from tallyflow.fuzz import FuzzReport, make_case, node_kinds, run_fuzz

    def forbidden():
        raise AssertionError("a one-case fuzz forked")

    monkeypatch.setattr(os, "fork", forbidden)
    kinds = tuple(sorted(node_kinds(make_case(3, 0)[0])))
    assert run_fuzz(3, 1) == FuzzReport(1, 0, "", kinds)


def test_a_fuzz_forks_one_worker_per_share_but_its_own_and_leaves_none(monkeypatch):
    import concurrent.futures
    import multiprocessing
    import threading
    from tallyflow.fuzz import run_fuzz, run_share

    workers = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            workers.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    threads = threading.active_count()
    for iterations in (30, 2, 1, 0):
        failures, _, seen = run_share(6, iterations, 0, 1)
        report = run_fuzz(6, iterations)
        assert (report.failures, report.kinds_seen) == (failures, tuple(sorted(seen)))
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
    assert workers == [2, 1]


# -- command line: the cyclic collector ---------------------------------
# main() pauses the cyclic collector for one command; these pin why that is
# safe (a run's rows make no reference cycles) and that the caller's
# setting comes back however the command ends.


@pytest.fixture
def collector_paused():
    """Run the test with the cyclic collector off, as main() runs a command."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_gives_the_caller_back_its_collector_setting(tmp_path, capsys, monkeypatch, enabled):
    import tallyflow.cli as cli_mod
    d = fixture_dir("lookup")
    pipeline = os.path.join(d, "pipeline.yaml")
    seen = []
    read = cli_mod.read_table

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return read(*args, **kwargs)

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setattr(cli_mod, "read_table", spy)
        assert main(["run", pipeline, "--data", d, "--out", str(tmp_path / "out")]) == 0
        assert seen and not any(seen)
        assert gc.isenabled() is enabled
        assert main(["run", pipeline, "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "out2")]) == 2
        assert gc.isenabled() is enabled
        monkeypatch.setattr(cli_mod, "read_table", crash)
        with pytest.raises(RuntimeError, match="boom"):
            main(["run", pipeline, "--data", d, "--out", str(tmp_path / "out3")])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("fixture, scaled, rows", [("lookup", _scaled_lookup, 300),
                                                   ("ship", _scaled_ship, 40)])
def test_a_run_makes_no_reference_cycles_that_grow_with_its_rows(
        fixture, scaled, rows, tmp_path, collector_paused):
    pipeline = os.path.join(fixture_dir(fixture), "pipeline.yaml")
    garbage = []
    for n in (rows, rows, 10 * rows):  # the first run warms up
        base = tmp_path / str(len(garbage))
        base.mkdir()
        data = scaled(base, n)
        gc.collect()
        assert main(["run", pipeline, "--data", data, "--out", str(base / "out")]) == 0
        garbage.append(gc.collect())
    assert garbage[1] == garbage[2], garbage


def test_a_fuzz_makes_no_reference_cycles(collector_paused):
    from tallyflow.fuzz import run_share

    # one share holds every case, so all of them run in this process
    run_share(0, 50, 0, 1)
    gc.collect()
    for iterations in (50, 500):
        assert run_share(0, iterations, 0, 1)[0] == 0
        assert gc.collect() == 0, iterations
