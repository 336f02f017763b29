"""Records, schemas and relations with provenance threaded through.

A record never exists without provenance ids (pids).  Projection does not
delete fields, it moves them into the record's irrelevant payload; tagged
unions push path tags instead of blending rows.  Treat all of these values
as immutable once constructed.  FieldSpec, PathTag, IrrelevantPart and
Relation sit on values.Frozen, the record base, like the cells Quantity
and Missing and the summary MonoidElement: they are slotted, and assigning
to a field raises AttributeError.  Record, a slotted class because a run
builds one per row per stage, is immutable by convention only; no
operator assigns to a record it has been given.  Rows are checked where
they enter a run (check_rows, called by ingest() and PipelineGraph.run,
is one loop over the rows); operators only move checked rows, so
Relation(...) trusts the rows it is given.
"""

from __future__ import annotations

import itertools
from collections import Counter
from decimal import Decimal
from functools import cached_property

from .errors import SchemaMismatch, UnknownField
from .monoid import MonoidElement
from .values import FieldValue, Frozen, Missing, Quantity, cell_key, set_field

SEM_TYPES = ("integer", "decimal", "text", "quantity", "summary")

# the two sink kinds, and the columns the error rail adds to a schema
REPORT = "report"
ERROR = "error"
ERROR_STAGE = "error_stage"
ERROR_REASON = "error_reason"


class FieldSpec(Frozen):
    """One column: a name, a semantic type, an optional unit label."""

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


class Record:
    """One row: provenance ids, relevant fields, set-aside fields, tags.

    tags is a stack; the last element is the outermost (most recent) tag.
    A slotted class, not a Frozen one, because a run builds one per row
    per stage: it is immutable by convention, compares by value and, like
    the dict it holds, cannot be hashed.
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

    def value(self, name: str) -> FieldValue:
        try:
            return self.fields[name]
        except KeyError:
            raise UnknownField(f"record has no field {name!r}") from None


def record_key(rec: Record, names: tuple[str, ...]) -> tuple:
    """Canonical identity of a record's relevant fields, in schema order."""
    return tuple(map(cell_key, map(rec.fields.__getitem__, names)))


_SEM_CHECKS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "decimal": lambda v: isinstance(v, Decimal) and v.is_finite(),
    "text": lambda v: isinstance(v, str),
    "quantity": lambda v: isinstance(v, Quantity),
    "summary": lambda v: isinstance(v, MonoidElement),
}


def check_rows(sch: Schema, rows) -> None:
    """Raise SchemaMismatch unless every row has exactly sch's fields and
    each cell is Missing or a value of its field's sem."""
    names = set(field_names(sch))
    tests = [(spec.name, spec.sem, _SEM_CHECKS[spec.sem]) for spec in sch]
    for rec in rows:
        fields = rec.fields
        if fields.keys() != names:
            raise SchemaMismatch(f"record fields {sorted(fields)} do not match "
                                 f"schema {field_names(sch)}")
        for name, sem, ok in tests:
            v = fields[name]
            if not ok(v) and not isinstance(v, Missing):
                raise SchemaMismatch(f"field {name!r}: {v!r} is not {sem}")


class Relation(Frozen):
    """An ordered multiset of records sharing one schema; rows are trusted."""

    __slots__ = ("schema", "rows", "__dict__")  # __dict__ holds pid_record

    def __init__(self, schema: Schema, rows: tuple[Record, ...] = ()) -> None:
        set_field(self, "schema", schema)
        set_field(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def pid_record(self) -> tuple:
        """(pids, repeats): every pid the rows carry, and, sparsely, pid ->
        number of rows that carry it for pids more than one row carries (a
        join copy, a dedup's merged duplicates).  Scanned on first read and
        kept, so a relation fed to several ports is scanned once."""
        sets = [rec.pids for rec in self.rows]
        pids = frozenset().union(*sets)
        repeats: dict = {}
        if sum(map(len, sets)) > len(pids):
            n = Counter(itertools.chain.from_iterable(sets))
            repeats = {pid: k for pid, k in n.items() if k > 1}
        return pids, repeats


def empty(sch: Schema) -> Relation:
    return Relation(sch, ())


def error_schema(base: Schema) -> Schema:
    """The base schema extended with the standard error metadata columns."""
    extra = (FieldSpec(ERROR_STAGE, "text"), FieldSpec(ERROR_REASON, "text"))
    return schema(*(base + extra))


def ingest(sch: Schema, rows, first_pid: int = 1) -> Relation:
    """Build a checked relation from plain dicts, one fresh pid per row."""
    names = field_names(sch)
    records = []
    for pid, raw in zip(itertools.count(first_pid), rows):
        try:
            fields = {n: raw[n] for n in names}
        except KeyError:
            missing = next(n for n in names if n not in raw)
            raise SchemaMismatch(f"row {pid}: missing field {missing!r}") from None
        if len(raw) != len(names):
            extra = set(raw) - set(names)
            raise SchemaMismatch(f"row {pid}: undeclared fields {sorted(extra)}")
        records.append(Record((pid,), fields))
    check_rows(sch, records)
    return Relation(sch, tuple(records))


def pids(rel: Relation) -> frozenset[int]:
    return rel.pid_record[0]


def triples(rel: Relation):
    """Every (field, canonical value, pid) fact a relation holds.

    Relevant fields count once per pid; irrelevant payloads count per the
    pids they are keyed to.  This is the multiset lossless operations must
    preserve exactly.
    """
    out = []
    for rec in rel.rows:
        for name, v in rec.fields.items():
            k = cell_key(v)
            for pid in rec.pids:
                out.append((name, k, pid))
        for part in rec.irrelevant:
            for name, v in part.fields.items():
                k = cell_key(v)
                for pid in part.pids:
                    out.append((name, k, pid))
    return out
