"""Records, schemas and relations with provenance threaded through.

A relation holds its rows a column at a time: a tuple of cells per field,
and per row its pids (a nonempty frozenset), irrelevant parts and tag
stack.  Every one is a tuple, so a stage hands its input's columns on
uncopied and no reader can change another port's data.  Projection moves
dropped fields into each row's irrelevant parts; tagged unions push path
tags instead of blending rows.  These classes sit on values.Frozen, the
slotted record base that refuses assignment.  Cells are checked where they
enter a run (check_rows, called by ingest() and PipelineGraph.run, checks a
column at a time by the set of its cell classes); operators only move
checked cells, so a relation trusts its cells.  Its Records (Relation.rows)
are a view built only when read.  A relation's pids are read as one PidSet,
an int bitset, scanned once per pid column.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from decimal import Decimal
from functools import cached_property

from .errors import SchemaMismatch, TallyError, UnknownField
from .monoid import MonoidElement
from .values import Frozen, Missing, Quantity, cell_key, set_field

SEM_TYPES = ("integer", "decimal", "text", "quantity", "summary")

# the two sink kinds, and the columns the error rail adds to a schema
REPORT = "report"
ERROR = "error"
ERROR_STAGE = "error_stage"
ERROR_REASON = "error_reason"


class FieldSpec(Frozen):
    """One column: a name, a semantic type, an optional unit label.  A text
    or integer field takes no unit (SchemaMismatch)."""

    __slots__ = ("name", "sem", "unit")

    def __init__(self, name: str, sem: str, unit: str | None = None) -> None:
        set_field(self, "name", name)
        set_field(self, "sem", sem)
        set_field(self, "unit", unit)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.sem not in SEM_TYPES:
            raise ValueError(f"unknown semantic type {self.sem!r} for field {self.name!r}")
        if not self.name:
            raise ValueError("field name must be nonempty")
        if self.unit is not None and self.sem in ("text", "integer"):
            raise SchemaMismatch(f"field {self.name!r} of type {self.sem} takes no unit")


Schema = tuple[FieldSpec, ...]


def schema(*specs: FieldSpec) -> Schema:
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise SchemaMismatch(f"duplicate field names in schema: {names}")
    return tuple(specs)


def field_names(sch: Schema) -> tuple[str, ...]:
    return tuple(s.name for s in sch)


def schema_field(sch: Schema, name: str) -> FieldSpec:
    for s in sch:
        if s.name == name:
            return s
    raise UnknownField(f"no field {name!r} in schema {field_names(sch)}")


def has_field(sch: Schema, name: str) -> bool:
    return any(s.name == name for s in sch)


class PathTag(Frozen):
    """One level of union routing: which side a record came in on, "inl"
    or "inr"."""

    __slots__ = ("side",)

    def __post_init__(self) -> None:
        if self.side not in ("inl", "inr"):
            raise ValueError(f"tag side must be inl or inr, got {self.side!r}")


class IrrelevantPart(Frozen):
    """Fields sliced off by projection (a dict), still keyed to their pids."""

    __slots__ = ("pids", "fields")

    def __post_init__(self) -> None:
        object.__setattr__(self, "pids", frozenset(self.pids))


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a pid's flag byte -> its binary digit


class PidSet(int):
    """A set of pids as an int bitset, bit p for pid p.  Its set algebra is
    int algebra (&, |, & ~, bit_count()), whose results are plain ints; a
    reader may also iterate its pids (ascending), take its len() and unite
    it into a Python set (set | pids)."""

    __slots__ = ()

    def __iter__(self):
        low = (self & -self).bit_length() - 1  # the smallest pid, -1 for none
        zeros = bin(self >> low if self else 0)[:1:-1].split("1")  # the 0s before each pid
        zeros.pop()  # and after the last
        steps = map(operator.add, map(len, zeros), itertools.repeat(1))
        return itertools.islice(itertools.accumulate(steps, initial=low - 1), 1, None)

    def __len__(self) -> int:
        return self.bit_count()

    def __ror__(self, other):
        if isinstance(other, (set, frozenset)):
            return other.union(self)
        return int.__ror__(self, other)


def pid_bits(pids) -> PidSet:
    """The PidSet of a collection of distinct pids: up to 64 are summed bit
    by bit, more flagged one byte per pid in time linear in the largest pid,
    where the sum is quadratic.  A negative or non-integer pid raises
    TallyError naming it."""
    try:
        if len(pids) <= 64:
            return PidSet(sum(map(operator.lshift, itertools.repeat(1), pids)))
        if min(pids) < 0:
            raise ValueError
        flags = bytearray(max(pids) + 1)
        for p in pids:
            flags[p] = 1
        return PidSet(flags.translate(_DIGITS)[::-1], 2)
    except (TypeError, ValueError):
        bad = next(p for p in pids if not isinstance(p, int) or p < 0)
        raise TallyError(f"pid {bad!r} is not a nonnegative integer") from None


class Record:
    """One row: provenance ids, relevant fields, set-aside fields, tags.

    tags is a stack; the last element is the outermost (most recent) tag.
    A relation's rows view holds one per row, and tests and the oracle's
    answer build relations from them.  A slotted class, not a Frozen one,
    because an oracle builds one per answer row: it is immutable by
    convention, compares by value and, like the dict it holds, cannot be
    hashed.
    """

    __slots__ = ("pids", "fields", "irrelevant", "tags")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, pids, fields: dict, irrelevant: tuple = (), tags: tuple = ()) -> None:
        pids = frozenset(pids)
        if not pids:
            raise ValueError("a record must carry at least one pid")
        self.pids: frozenset[int] = pids
        self.fields = fields
        self.irrelevant: tuple[IrrelevantPart, ...] = irrelevant
        self.tags: tuple[PathTag, ...] = tags

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.pids == other.pids and self.fields == other.fields
                and self.irrelevant == other.irrelevant and self.tags == other.tags)

    def __repr__(self) -> str:
        return (f"Record(pids={self.pids!r}, fields={self.fields!r}, "
                f"irrelevant={self.irrelevant!r}, tags={self.tags!r})")


# each sem's cell class; a cell of a subclass is judged by isinstance, and
# a bool is no integer
_SEM_CLASSES = {"integer": int, "decimal": Decimal, "text": str, "quantity": Quantity,
                "summary": MonoidElement}


def _first_misfit(sem: str, col) -> int | None:
    """The position of col's first cell that is neither Missing nor of sem.
    The set of the column's cell classes settles a column of sem's own class
    and Missing, after one is_finite pass over its decimals; only a column
    holding another class is scanned cell by cell."""
    cls = _SEM_CLASSES[sem]
    kinds = set(map(type, col))
    if kinds <= {cls, Missing}:
        if cls is not Decimal:
            return None
        present = col if Missing not in kinds else [v for v in col if v.__class__ is Decimal]
        if all(map(Decimal.is_finite, present)):
            return None
    for i, v in enumerate(col):
        if isinstance(v, Missing):
            continue
        if not isinstance(v, cls) or (cls is int and isinstance(v, bool)) \
                or (cls is Decimal and not v.is_finite()):
            return i
    return None


def check_rows(sch: Schema, rows) -> None:
    """Raise SchemaMismatch unless every row has exactly sch's fields and
    each cell is Missing or a value of its field's sem.

    rows is a relation or a sequence of Records.  A relation that holds no
    Records has sch's field sets by construction; Records are checked
    through their field dicts.  The error is the one a row-by-row scan
    meets first: the first row with a wrong field set or a bad cell, and in
    that row its field set before its first bad cell in schema order.
    Cells are checked a column at a time, over the rows before the first
    wrong field set."""
    names = field_names(sch)
    fields = cols = end = None  # end: the first row with a wrong field set
    if isinstance(rows, Relation) and "rows" not in rows.__dict__:
        cols = rows.columns
    else:
        fields = [rec.fields for rec in getattr(rows, "rows", rows)]
        if set(map(len, fields)) <= {len(names)}:
            try:  # rows that hold as many fields as sch and each of sch's: its fields
                cols = [list(map(operator.itemgetter(n), fields)) for n in names]
            except KeyError:
                pass
    if cols is None:
        end = list(map(operator.eq, map(dict.keys, fields), itertools.repeat(set(names)))).index(False)
        cols = [list(map(operator.itemgetter(n), fields[:end])) for n in names]
    misfits = [(i, spec, col) for spec, col in zip(sch, cols)
               if (i := _first_misfit(spec.sem, col)) is not None]
    if misfits:  # the first row's, and in it the first field's in schema order
        i, spec, col = min(misfits, key=operator.itemgetter(0))
        raise SchemaMismatch(f"field {spec.name!r}: {col[i]!r} is not {spec.sem}")
    if end is not None:
        raise SchemaMismatch(f"record fields {sorted(fields[end])} do not match "
                             f"schema {names}")


class Relation(Frozen):
    """An ordered multiset of rows of one schema, held a column at a time.

    columns is a tuple of cells per field, in schema order; pids, irrelevant
    and tags are a tuple each, one entry per row.  Relation.of_columns holds
    these four and builds rows, a Record per row, when it is first read.
    Relation(schema, rows) holds its Records and reads each of the four off
    them when first read (a field a Record lacks reads as None; check_rows
    refuses it).  It compares, prints and pickles as Relation(schema, rows).
    """

    __slots__ = ("schema", "columns", "pids", "irrelevant", "tags",
                 "__dict__")  # __dict__ holds rows and pid_record
    _fields = ("schema", "rows")  # rows, not a slot, lands in __dict__
    _defaults = {"rows": ()}
    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.__dict__["rows"] = tuple(self.rows)

    def __getattr__(self, name: str):
        """Read one of the four off the Records, on first use: an oracle's
        answer is compared by its Records and never reads its columns."""
        rows = self.__dict__.get("rows")  # set when built from Records
        if rows is None or name not in ("columns", "pids", "irrelevant", "tags"):
            raise AttributeError(f"'Relation' object has no attribute {name!r}")
        if name == "columns":
            fields = [rec.fields for rec in rows]
            value = tuple(tuple(f.get(n) for f in fields) for n in field_names(self.schema))
        else:
            value = tuple(map(operator.attrgetter(name), rows))
        set_field(self, name, value)
        return value

    @classmethod
    def of_columns(cls, schema: Schema, columns, pids, irrelevant=None, tags=None,
                   pid_record: tuple | None = None) -> Relation:
        """A relation of columns, one per field, and each row's pids,
        irrelevant parts and tags (by default none), each held as a tuple (a
        tuple as it is, uncopied).  pid_record is the scan of pids, if known.
        Columns of unequal length, or not one per field, raise ValueError."""
        columns, pids = tuple(map(tuple, columns)), tuple(pids)
        none = ((),) * len(pids)
        irrelevant = none if irrelevant is None else tuple(irrelevant)
        tags = none if tags is None else tuple(tags)
        lengths = {len(pids), len(irrelevant), len(tags), *map(len, columns)}
        if len(columns) != len(schema) or len(lengths) > 1:
            raise ValueError(f"a relation needs one column per field, each as long as its "
                             f"pids, parts and tags: {len(schema)} fields, lengths {lengths}")
        rel = object.__new__(cls)
        set_field(rel, "schema", schema)
        set_field(rel, "columns", columns)
        set_field(rel, "pids", pids)
        set_field(rel, "irrelevant", irrelevant)
        set_field(rel, "tags", tags)
        if pid_record is not None:
            rel.__dict__["pid_record"] = pid_record
        return rel

    def with_columns(self, schema: Schema, columns, irrelevant=None) -> Relation:
        """These rows under schema with other columns (and irrelevant parts,
        if given): the same pid column, so the same pid_record, if scanned."""
        return Relation.of_columns(schema, columns, self.pids,
                                   self.irrelevant if irrelevant is None else irrelevant,
                                   self.tags, self.__dict__.get("pid_record"))

    @cached_property
    def rows(self) -> tuple:
        return tuple(map(Record, self.pids, self.field_dicts(), self.irrelevant, self.tags))

    def field_dicts(self) -> list:
        """A new field dict per row (name -> cell), read off the columns."""
        cells = zip(*self.columns) if self.columns else itertools.repeat((), len(self))
        return list(map(dict, map(zip, itertools.repeat(field_names(self.schema)), cells)))

    def column(self, name: str) -> tuple:
        return self.columns[field_names(self.schema).index(name)]

    def __len__(self) -> int:
        return len(self.pids)

    @cached_property
    def pid_record(self) -> tuple:
        """(pids, repeats): the PidSet of every pid the rows carry, and,
        sparsely, pid -> number of rows that carry it for pids more than one
        row carries (a join copy, a dedup's merged duplicates).  Scanned on
        first read and kept, so a relation fed to several ports, or sharing
        its pid column (with_columns), is scanned once."""
        sets = self.pids
        pids = frozenset().union(*sets)
        repeats: dict = {}
        if sum(map(len, sets)) > len(pids):
            n = Counter(itertools.chain.from_iterable(sets))
            repeats = {pid: k for pid, k in n.items() if k > 1}
        return pid_bits(pids), repeats


def empty(sch: Schema) -> Relation:
    return Relation.of_columns(sch, ((),) * len(sch), ())


def error_schema(base: Schema) -> Schema:
    """The base schema extended with the standard error metadata columns."""
    extra = (FieldSpec(ERROR_STAGE, "text"), FieldSpec(ERROR_REASON, "text"))
    return schema(*(base + extra))


def ingest(sch: Schema, rows, first_pid: int = 1) -> Relation:
    """Build a checked relation from plain dicts, one fresh pid per row."""
    names = field_names(sch)
    rows = list(rows)
    for pid, raw in zip(itertools.count(first_pid), rows):
        missing = next((n for n in names if n not in raw), None)
        if missing is not None:
            raise SchemaMismatch(f"row {pid}: missing field {missing!r}")
        if len(raw) != len(names):
            extra = set(raw) - set(names)
            raise SchemaMismatch(f"row {pid}: undeclared fields {sorted(extra)}")
    rel = Relation.of_columns(sch, [tuple(map(operator.itemgetter(n), rows)) for n in names],
                              map(frozenset, zip(range(first_pid, first_pid + len(rows)))))
    check_rows(sch, rel)
    return rel


def pids(rel: Relation) -> frozenset[int]:
    return frozenset(rel.pid_record[0])


def triples(rel: Relation):
    """Every (field, canonical value, pid) fact a relation holds, a multiset.

    Relevant fields count once per pid; irrelevant payloads count per the
    pids they are keyed to.  This is the multiset lossless operations must
    preserve exactly.
    """
    out = [(name, cell_key(v), pid) for name, col in zip(field_names(rel.schema), rel.columns)
           for v, pids in zip(col, rel.pids) for pid in pids]
    out += [(name, cell_key(v), pid) for parts in rel.irrelevant for part in parts
            for name, v in part.fields.items() for pid in part.pids]
    return out
