"""CSV ingestion and emission, driven by per-table column descriptions.

A table's CSV file travels with a small YAML description saying how each
column parses: its type, an optional unit, which cell texts stand for
absent values, and what an empty cell means.  Rows that fail to parse are
never dropped and never abort the load; they land in a separate error
relation, raw text preserved, with the usual stage and reason columns.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from decimal import Decimal

import yaml

from .errors import SchemaMismatch, malformed
from .monoid import MonoidElement
from .relation import (
    ERROR_REASON,
    ERROR_STAGE,
    FieldSpec,
    Record,
    Relation,
    Schema,
    SumSchema,
    error_schema,
    field_names,
    schema,
)
from .values import Missing, Quantity, dec4, plain

COLUMN_TYPES = ("integer", "decimal", "text", "quantity")


@dataclass(frozen=True)
class ColumnSpec:
    """How one CSV column becomes typed cells."""

    name: str
    type: str = "text"
    unit: str | None = None
    unit_from: str | None = None
    sentinels: tuple = ()
    empty: str = "missing"

    def __post_init__(self) -> None:
        if self.type not in COLUMN_TYPES:
            raise ValueError(f"column {self.name!r}: unknown type {self.type!r}")
        if self.unit_from and self.type != "quantity":
            raise ValueError(f"column {self.name!r}: unit_from needs type quantity")
        object.__setattr__(self, "sentinels", tuple(self.sentinels))


def read_yaml(path: str):
    """The YAML document at path, read with PyYAML's safe loader.

    libyaml parses it when PyYAML was built with it (CSafeLoader); either
    loader gives the same document.  A syntax error is a ValueError that
    names the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: not a YAML document: {exc}") from None


def load_sidecar(path: str) -> tuple[ColumnSpec, ...]:
    """Read a table description document: {columns: [{name, type, ...}]}."""
    doc = read_yaml(path)
    if not isinstance(doc, dict) or "columns" not in doc:
        raise ValueError(f"{path}: expected a mapping with a 'columns' list")
    cols = []
    for c in doc["columns"]:
        with malformed(f"column entry {c!r} in {path}"):
            cols.append(ColumnSpec(
                name=c["name"],
                type=c.get("type", "text"),
                unit=c.get("unit"),
                unit_from=c.get("unit_from"),
                sentinels=tuple(str(s) for s in c.get("sentinels", ())),
                empty=str(c.get("empty", "missing")),
            ))
    names = [c.name for c in cols]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate column names")
    by_name = {c.name: c for c in cols}
    for c in cols:
        if c.unit_from:
            ref = by_name.get(c.unit_from)
            if ref is None:
                raise ValueError(f"{path}: {c.name!r} takes units from "
                                 f"unknown column {c.unit_from!r}")
            if ref.type != "text":
                raise ValueError(f"{path}: unit column {c.unit_from!r} must be text")
    return tuple(cols)


def table_schema(cols) -> Schema:
    return schema(*(FieldSpec(c.name, c.type, c.unit) for c in cols))


def _cell_parser(col: ColumnSpec):
    """One column's cell parse, units resolved later; raises ValueError on junk."""
    sentinels = frozenset(col.sentinels)
    convert, what = {"text": (str, ""), "integer": (int, "an integer")}.get(
        col.type, (dec4, "a number"))  # decimal and quantity amounts share dec4
    if col.empty == "missing" or (col.empty == "keep" and col.type != "text"):
        on_empty = Missing("empty")
    else:
        on_empty = "" if col.empty == "keep" else None  # None: parse col.empty

    def parse(raw: str):
        if raw == "":
            if on_empty is not None:
                return on_empty
            raw = col.empty
        if raw in sentinels:
            return Missing(raw)
        try:
            return convert(raw)
        except ValueError:
            raise ValueError(f"column {col.name!r}: not {what}: {raw!r}") from None
    return parse


def read_table(csv_path: str, cols, first_pid: int = 1, name: str | None = None):
    """Load a CSV into (typed relation, error relation, next free pid).

    Every data row gets a pid whether it parses or not; rows with junk
    cells, or with more or fewer cells than the header, keep their raw
    text and move to the error relation instead.
    """
    cols = tuple(cols)
    stage = name or os.path.basename(csv_path)
    sch = table_schema(cols)
    raw_schema = error_schema(schema(*(FieldSpec(c.name, "text") for c in cols)))
    expected = [c.name for c in cols]
    good: list[Record] = []
    bad: list[Record] = []
    pid = first_pid
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if sorted(header) != sorted(expected):
            raise SchemaMismatch(
                f"{csv_path}: header {header} does not match described "
                f"columns {expected}")
        parsers = [(c.name, header.index(c.name), _cell_parser(c)) for c in cols]
        quantities = [c for c in cols if c.type == "quantity"]
        for cells in reader:
            if not cells:
                continue  # a blank line is not a row
            problem = None
            if len(cells) != len(header):
                problem = f"expected {len(header)} cells, got {len(cells)}"
            else:
                try:
                    fields = {name: parse(cells[i]) for name, i, parse in parsers}
                except ValueError as exc:
                    problem = str(exc)
            if problem is None:
                for c in quantities:
                    amount = fields[c.name]
                    if isinstance(amount, Missing):
                        continue
                    unit = c.unit
                    if c.unit_from:
                        label = fields[c.unit_from]
                        unit = label if isinstance(label, str) else None
                    if not unit:
                        fields[c.name] = Missing("no unit")
                        continue
                    fields[c.name] = Quantity(amount, unit)
            if problem is None:
                good.append(Record(pids=frozenset({pid}), fields=fields))
            else:
                raw_row = dict(zip(header, cells))
                row = {c.name: raw_row.get(c.name, "") for c in cols}
                row[ERROR_STAGE] = stage
                row[ERROR_REASON] = problem
                bad.append(Record(pids=frozenset({pid}), fields=row))
            pid += 1
    return Relation(sch, tuple(good)), Relation(raw_schema, tuple(bad)), pid


# -- emission -----------------------------------------------------------

def render_cell(v) -> str:
    if isinstance(v, Missing):
        return "" if v.reason == "empty" else v.reason
    if isinstance(v, Quantity):
        return f"{plain(v.amount)} {v.unit}"
    if isinstance(v, MonoidElement):
        return v.render()
    if isinstance(v, Decimal):
        return plain(v)
    return str(v)


def write_csv(path: str, rel: Relation) -> None:
    """Emit a relation deterministically; whole-file replace, never partial."""
    if isinstance(rel.schema, SumSchema):
        raise SchemaMismatch("cannot write a tagged-sum relation to CSV")
    names = list(field_names(rel.schema))
    _atomic_write(path, _csv_text(names, rel))


def _csv_text(names: list, rel: Relation) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(names)
    for rec in rel.rows:
        w.writerow([v if type(v) is str else render_cell(v)
                    for v in map(rec.fields.__getitem__, names)])
    return buf.getvalue()


def _atomic_write(path: str, text: str) -> None:
    """Write a sibling temp file, then rename it over path.

    The temp file is created with mode 0o666, so the umask sets the final
    permissions as it does for any other file the user creates.
    """
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: str, text: str) -> None:
    _atomic_write(path, text)
