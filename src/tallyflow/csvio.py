"""CSV ingestion and emission, driven by per-table column descriptions.

A table's CSV file travels with a small YAML description saying how each
column parses: its type, an optional unit, which cell texts stand for
absent values, and what an empty cell means.  Rows that fail to parse are
never dropped and never abort the load; they land in a separate error
relation, raw text preserved, with the usual stage and reason columns.

Cells cross this boundary a column at a time, in blocks of BLOCK_ROWS
rows, through one function chosen per column: a column block converts in
one pass, its empty and sentinel cells parsed once per distinct text and
put in their places, and only a block holding a junk cell goes through
_cell_parser cell by cell.  Source files are UTF-8 and may start with a
byte-order mark.

A sink column renders once, and the CSV text is the rendered columns
joined a row at a time: a cell holding a comma, a quote, a CR or an LF
is quoted, with each quote doubled, and a row of one empty field is
written "".  That is csv.writer's output, with "\\n" line ends, as
CPython 3.13 writes it; earlier versions leave a bare CR unquoted, which
a reader then takes for a line break.
"""

from __future__ import annotations

import csv
import os
from decimal import Decimal
from itertools import compress, count, islice, repeat
from operator import attrgetter

from .errors import SchemaMismatch
from .grammar import NAME, TEXT, Entry, Key, Leaf, ListOf, read
from .monoid import MonoidElement
from .relation import (
    FieldSpec,
    Relation,
    Schema,
    error_schema,
    field_names,
    schema,
)
from .values import DEC4, Frozen, Missing, Quantity, dec4, plain, plain_column, quantity_column

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
        if self.empty == "keep" and self.type != "text":
            raise ValueError(f"column {self.name!r}: empty: keep needs type text")
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
    if col.empty == "missing":
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


def _decimal_column(texts) -> list:
    """A clean block's decimals, quantized to four places, in three passes
    over the column; a junk, infinite or too long cell raises ValueError or
    ArithmeticError, and _parse_column then goes cell by cell."""
    ds = list(map(Decimal, texts))
    if not all(map(Decimal.is_finite, ds)):
        raise ValueError("a cell is not finite")
    return list(map(Decimal.quantize, ds, repeat(DEC4)))


# each column type's conversion of a clean block, a column at a time (a
# text block's cells are its texts), and the text that stands in for a
# hole (an empty or sentinel cell) meanwhile
_COLUMN_CONVERTERS = {"text": (lambda texts: texts, ""),
                      "integer": (lambda texts: list(map(int, texts)), "0"),
                      "decimal": (_decimal_column, "0"), "quantity": (_decimal_column, "0")}


def _holes(col: ColumnSpec, texts: tuple) -> dict:
    """Row -> text of each empty or sentinel cell of a column block, found
    by one scan of the block per distinct such text."""
    at = {}
    for hole in {"", *col.sentinels}:
        i = -1
        try:
            while True:
                i = texts.index(hole, i + 1)
                at[i] = hole
        except ValueError:
            pass
    return at


def _parse_column(col: ColumnSpec, parse, texts: tuple, problems: dict) -> list:
    """One column block's cells.  The block converts a column at a time,
    each hole (an empty or sentinel cell) standing in as a clean text, and
    then takes each hole's parsed cell in its place; a block whose
    conversion raises goes cell by cell.  A junk cell's reason goes in
    problems (row -> first reason), and None in its place."""
    convert, filler = _COLUMN_CONVERTERS[col.type]
    holes = _holes(col, texts)
    filled = texts
    if holes:
        filled = list(texts)
        for i in holes:
            filled[i] = filler
    try:
        cells = convert(filled)
    except (ValueError, ArithmeticError):
        cells = []
        for i, raw in enumerate(texts):
            try:
                cells.append(parse(raw))
            except ValueError as exc:
                problems.setdefault(i, str(exc))
                cells.append(None)
        return cells
    parsed: dict = {}  # each distinct hole text's cell, or the reason it is junk
    for i, raw in holes.items():
        if raw not in parsed:
            try:
                parsed[raw] = (parse(raw), None)
            except ValueError as exc:
                parsed[raw] = (None, str(exc))
        cells[i], reason = parsed[raw]
        if reason is not None:
            problems.setdefault(i, reason)
    return cells


def _with_units(amounts: list, units) -> list:
    """Each parsed amount bound to its row's unit label: Missing stays, and
    an amount without a label becomes Missing('no unit').  A block whose
    amounts are all decimals and whose labels are all nonempty binds in one
    pass over the columns."""
    if set(map(type, amounts)) == {Decimal} and set(map(type, units)) == {str} \
            and "" not in units:
        return quantity_column(amounts, units)
    no_unit = Missing("no unit")
    out = []
    for amount, unit in zip(amounts, units):
        if amount.__class__ is Decimal:
            amount = Quantity(amount, unit) if isinstance(unit, str) and unit else no_unit
        out.append(amount)
    return out


def _parse_block(cols: tuple, parsers: list, rows: list) -> tuple:
    """(columns, problems) of full-width CSV rows: each column's cells, in
    column-description order, and row -> the reason it does not parse, its
    first junk cell's in column-description order."""
    texts = list(zip(*rows))
    problems: dict = {}
    columns = {c.name: _parse_column(c, parse, texts[i], problems) for c, i, parse in parsers}
    for c in cols:
        if c.type == "quantity":
            units = [c.unit] * len(rows) if not c.unit_from else columns[c.unit_from]
            columns[c.name] = _with_units(columns[c.name], units)
    return list(columns.values()), problems


def read_table(csv_path: str, cols, first_pid: int = 1, name: str | None = None):
    """Load a CSV into (typed relation, error relation, next free pid).

    Every data row gets a pid whether it parses or not; rows with junk
    cells, or with more or fewer cells than the header, keep their raw
    text and move to the error relation instead.  Rows are parsed a column
    at a time, BLOCK_ROWS lines at once, and each block's columns of good
    rows join the relation's columns as they are.  A UTF-8 byte-order mark
    is read as one.
    """
    cols = tuple(cols)
    stage = name or os.path.basename(csv_path)
    sch = table_schema(cols)
    raw_schema = error_schema(schema(*(FieldSpec(c.name, "text") for c in cols)))
    expected = [c.name for c in cols]
    good: list[list] = [[] for _ in cols]  # the good rows' cells, a list per column
    good_pids: list[int] = []
    bad: list[tuple] = []  # each bad row's raw texts, stage and reason
    bad_pids: list[int] = []
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
            columns, problems = _parse_block(cols, parsers, whole) if whole else ([], {})
            if problems or len(whole) < len(lines):
                kept = []  # whether each whole line parses
                for p, cells in zip(count(pid), lines):
                    if len(cells) == width:
                        reason = problems.get(len(kept))
                        kept.append(reason is None)
                        if reason is None:
                            good_pids.append(p)
                            continue
                    else:
                        reason = f"expected {width} cells, got {len(cells)}"
                    raw_row = dict(zip(header, cells))
                    bad.append((*(raw_row.get(c.name, "") for c in cols), stage, reason))
                    bad_pids.append(p)
                columns = [compress(col, kept) for col in columns]
            else:
                good_pids += range(pid, pid + len(lines))
            for acc, col in zip(good, columns):
                acc += col
            pid += len(lines)
    # each row's pids: a frozenset of its one pid
    return (Relation.of_columns(sch, good, map(frozenset, zip(good_pids))),
            Relation.of_columns(raw_schema, zip(*bad) if bad else ((),) * len(raw_schema),
                                map(frozenset, zip(bad_pids))),
            pid)


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


def _render_column(cells):
    """One column's cell texts: a column of decimals or of quantities
    through one plain_column, a column of Missing cells in one pass, any
    other of one class through a function chosen once for the column."""
    kinds = set(map(type, cells))
    if kinds <= {str}:
        return cells
    if kinds == {Decimal}:
        return plain_column(cells)
    if kinds == {Missing}:
        return ["" if v.reason == "empty" else v.reason for v in cells]
    if kinds == {Quantity}:
        amounts = plain_column(list(map(attrgetter("amount"), cells)))
        return list(map(" ".join, zip(amounts, map(attrgetter("unit"), cells))))
    if len(kinds) == 1:
        return list(map(_RENDERERS.get(kinds.pop(), str), cells))
    return [v if type(v) is str else render_cell(v) for v in cells]


def _csv_fields(texts):
    """A column's texts as CSV fields: a text holding a comma, a quote, a CR
    or an LF in quotes, each quote doubled.  The column is scanned cell by
    cell only if its joined text holds one of them."""
    if not _needs_quotes("".join(texts)):
        return texts
    return ['"' + t.replace('"', '""') + '"' if _needs_quotes(t) else t for t in texts]


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_text(names: list, rel: Relation) -> str:
    """The CSV text of a header and a relation's rows, as CPython 3.13's
    csv.writer writes it with "\\n" line ends: minimal quoting, a CR
    included, and a row of one empty field written as two quotes.  The
    rendered columns are joined a row at a time, with no writer."""
    columns = [_csv_fields(_render_column(cells)) for cells in rel.columns]
    if len(columns) == 1:
        columns = [['""' if t == "" else t for t in columns[0]]]
    rows = map(",".join, zip(*columns)) if columns else repeat("", len(rel))
    return "\n".join([",".join(_csv_fields(names)), *rows, ""])


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
