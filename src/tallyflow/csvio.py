"""CSV ingestion and emission, driven by per-table column descriptions.

A table's CSV file travels with a small YAML description saying how each
column parses: its type, an optional unit, which cell texts stand for
absent values, and what an empty cell means.  Rows that fail to parse are
never dropped and never abort the load; they land in a separate error
relation, raw text preserved, with the usual stage and reason columns.

Cells cross this boundary a column at a time, in blocks of BLOCK_ROWS
rows, through one function chosen per column: a column block with no
empty cell and no sentinel converts in one pass, any other goes through
_cell_parser cell by cell, and a sink column renders once.  Source files
are UTF-8 and may start with a byte-order mark.
"""

from __future__ import annotations

import csv
import io
import os
from decimal import Decimal
from itertools import islice, repeat
from operator import itemgetter

from .errors import SchemaMismatch
from .grammar import NAME, TEXT, Entry, Key, Leaf, ListOf, read
from .monoid import MonoidElement
from .relation import (
    ERROR_REASON,
    ERROR_STAGE,
    FieldSpec,
    Record,
    Relation,
    Schema,
    error_schema,
    field_names,
    schema,
)
from .values import Frozen, Missing, Quantity, dec4, plain

COLUMN_TYPES = ("integer", "decimal", "text", "quantity")


class ColumnSpec(Frozen):
    """How one CSV column becomes typed cells."""

    __slots__ = ("name", "type", "unit", "unit_from", "sentinels", "empty")
    _defaults = {"type": "text", "unit": None, "unit_from": None, "sentinels": (),
                 "empty": "missing"}

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a column name must be nonempty")
        if self.type not in COLUMN_TYPES:
            raise ValueError(f"column {self.name!r}: unknown type {self.type!r}")
        if self.unit_from and self.type != "quantity":
            raise ValueError(f"column {self.name!r}: unit_from needs type quantity")
        if self.unit is not None and self.type not in ("decimal", "quantity"):
            raise ValueError(f"column {self.name!r}: unit needs type decimal or quantity")
        object.__setattr__(self, "sentinels", tuple(self.sentinels))


def read_yaml(path: str):
    """The YAML document at path, read with PyYAML's safe loader.

    libyaml parses it when PyYAML was built with it (CSafeLoader); either
    loader gives the same document.  A syntax error is a ValueError that
    names the file.  PyYAML is imported here, on the first document read,
    so a command that reads none (fuzz) does not pay for loading it.
    """
    import yaml

    with open(path, encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: not a YAML document: {exc}") from None


# a YAML integer reads as its text (empty: 0); a float's text is not what was written
CELL_TEXT = Leaf("text or an integer", (str, int), str)

COLUMNS = Entry("a column description", {"columns": ListOf(Entry("a column", {
    "name": NAME,
    "type": Key(NAME, default="text"),
    "unit": Key(TEXT, default=None),
    "unit_from": Key(NAME, default=None),
    "sentinels": Key(ListOf(CELL_TEXT, "a list of cell texts"), default=()),
    "empty": Key(CELL_TEXT, default="missing"),
}, ColumnSpec, label="column"), "a list of columns")}, lambda columns: columns)


def load_sidecar(path: str) -> tuple[ColumnSpec, ...]:
    """Read a table description document: {columns: [{name, type, ...}]}."""
    cols = read(COLUMNS, read_yaml(path), path)
    names = [c.name for c in cols]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate column names")
    by_name = {c.name: c for c in cols}
    for c in cols:
        if c.type == "quantity" and bool(c.unit) == bool(c.unit_from):
            raise ValueError(f"{path}: quantity column {c.name!r} needs exactly one "
                             "of unit and unit_from")
        if c.unit_from:
            ref = by_name.get(c.unit_from)
            if ref is None:
                raise ValueError(f"{path}: {c.name!r} takes units from "
                                 f"unknown column {c.unit_from!r}")
            if ref.type != "text":
                raise ValueError(f"{path}: unit column {c.unit_from!r} must be text")
    return cols


def table_schema(cols) -> Schema:
    return schema(*(FieldSpec(c.name, c.type, c.unit) for c in cols))


# each column type's converter, and what its error message says a cell is not
_CONVERTERS = {"text": (str, ""), "integer": (int, "an integer"),
               "decimal": (dec4, "a number"), "quantity": (dec4, "a number")}

# rows parsed per column block: long map() passes, a bounded transposed copy
BLOCK_ROWS = 4096


def _cell_parser(col: ColumnSpec):
    """One column's cell parse, units resolved later; raises ValueError on junk."""
    sentinels = frozenset(col.sentinels)
    convert, what = _CONVERTERS[col.type]
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


def _parse_column(col: ColumnSpec, parse, texts: tuple, problems: dict) -> list:
    """One column block's cells.  A block with no empty cell and no sentinel
    converts in one pass; any other, or one whose pass raises, goes cell by
    cell, putting each junk cell's reason in problems (row -> first reason)
    and None in its place."""
    if "" not in texts and frozenset(col.sentinels).isdisjoint(texts):
        convert = _CONVERTERS[col.type][0]
        if convert is str:
            return texts
        try:
            return list(map(convert, texts))
        except ValueError:
            pass
    cells = []
    for i, raw in enumerate(texts):
        try:
            cells.append(parse(raw))
        except ValueError as exc:
            problems.setdefault(i, str(exc))
            cells.append(None)
    return cells


def _with_units(amounts: list, units) -> list:
    """Each parsed amount bound to its row's unit label: Missing stays, and
    an amount without a label becomes Missing('no unit')."""
    no_unit = Missing("no unit")
    out = []
    for amount, unit in zip(amounts, units):
        if amount.__class__ is Decimal:
            amount = Quantity(amount, unit) if isinstance(unit, str) and unit else no_unit
        out.append(amount)
    return out


def _parse_block(cols: tuple, parsers: list, rows: list) -> list:
    """Each full-width CSV row's fields dict, or the reason it does not
    parse: the first junk cell in column-description order."""
    texts = list(zip(*rows))
    problems: dict = {}
    columns = {c.name: _parse_column(c, parse, texts[i], problems) for c, i, parse in parsers}
    for c in cols:
        if c.type == "quantity":
            units = repeat(c.unit) if not c.unit_from else columns[c.unit_from]
            columns[c.name] = _with_units(columns[c.name], units)
    parsed: list = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
    for i, reason in problems.items():
        parsed[i] = reason
    return parsed


def read_table(csv_path: str, cols, first_pid: int = 1, name: str | None = None):
    """Load a CSV into (typed relation, error relation, next free pid).

    Every data row gets a pid whether it parses or not; rows with junk
    cells, or with more or fewer cells than the header, keep their raw
    text and move to the error relation instead.  Rows are parsed a column
    at a time, BLOCK_ROWS lines at once.  A UTF-8 byte-order mark is read
    as one.
    """
    cols = tuple(cols)
    stage = name or os.path.basename(csv_path)
    sch = table_schema(cols)
    raw_schema = error_schema(schema(*(FieldSpec(c.name, "text") for c in cols)))
    expected = [c.name for c in cols]
    good: list[Record] = []
    bad: list[Record] = []
    pid = first_pid
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if sorted(header) != sorted(expected):
            raise SchemaMismatch(
                f"{csv_path}: header {header} does not match described "
                f"columns {expected}")
        width = len(header)
        parsers = [(c, header.index(c.name), _cell_parser(c)) for c in cols]
        for block in iter(lambda: list(islice(reader, BLOCK_ROWS)), []):
            lines = [cells for cells in block if cells]  # a blank line is not a row
            whole = [cells for cells in lines if len(cells) == width]
            parsed = iter(_parse_block(cols, parsers, whole) if whole else ())
            for cells in lines:
                if len(cells) == width:
                    fields = next(parsed)
                else:
                    fields = f"expected {width} cells, got {len(cells)}"
                if fields.__class__ is dict:
                    good.append(Record((pid,), fields))
                else:
                    raw_row = dict(zip(header, cells))
                    row = {c.name: raw_row.get(c.name, "") for c in cols}
                    row[ERROR_STAGE] = stage
                    row[ERROR_REASON] = fields
                    bad.append(Record((pid,), row))
                pid += 1
    return Relation(sch, tuple(good)), Relation(raw_schema, tuple(bad)), pid


# -- emission -----------------------------------------------------------

# a cell's text by its class; a cell of any other class renders as str()
_RENDERERS = {Missing: lambda v: "" if v.reason == "empty" else v.reason,
              Decimal: plain, MonoidElement: MonoidElement.render}


def render_cell(v) -> str:
    return _RENDERERS.get(v.__class__, str)(v)


def write_csv(path: str, rel: Relation) -> None:
    """Emit a relation deterministically; whole-file replace, never partial."""
    names = list(field_names(rel.schema))
    _atomic_write(path, _csv_text(names, rel))


def _render_column(cells: list) -> list:
    """One column's cell texts, each through a function chosen once for the column."""
    kinds = set(map(type, cells))
    if kinds <= {str}:
        return cells
    if len(kinds) == 1:
        return list(map(_RENDERERS.get(kinds.pop(), str), cells))
    return [v if type(v) is str else render_cell(v) for v in cells]


def _csv_text(names: list, rel: Relation) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(names)
    fields = [rec.fields for rec in rel.rows]
    columns = [_render_column(list(map(itemgetter(n), fields))) for n in names]
    w.writerows(zip(*columns) if columns else ([] for _ in fields))
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
