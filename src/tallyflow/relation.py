"""Records, schemas and relations with provenance threaded through.

A record never exists without provenance ids (pids).  Projection does not
delete fields, it moves them into the record's irrelevant payload; tagged
unions push path tags instead of blending rows.  Treat all of these values
as immutable once constructed.  Rows are checked where they enter a run
(check_rows, called by ingest() and PipelineGraph.run); operators only
move checked rows, so Relation(...) trusts the rows it is given.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal

from .errors import SchemaMismatch, UnknownField
from .monoid import MonoidElement
from .values import FieldValue, Missing, Quantity, cell_key

SEM_TYPES = ("integer", "decimal", "text", "quantity", "summary")

ERROR_STAGE = "error_stage"
ERROR_REASON = "error_reason"


@dataclass(frozen=True)
class FieldSpec:
    """One column: a name, a semantic type, an optional unit label."""

    name: str
    sem: str
    unit: str | None = None

    def __post_init__(self) -> None:
        if self.sem not in SEM_TYPES:
            raise ValueError(f"unknown semantic type {self.sem!r} for field {self.name!r}")
        if not self.name:
            raise ValueError("field name must be nonempty")


Schema = tuple[FieldSpec, ...]


@dataclass(frozen=True)
class SumSchema:
    """Schema of a tagged union whose branches kept different shapes."""

    left: "Schema | SumSchema"
    right: "Schema | SumSchema"


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


@dataclass(frozen=True)
class PathTag:
    """One level of union routing: which side a record came in on."""

    side: str  # "inl" | "inr"
    label: str

    def __post_init__(self) -> None:
        if self.side not in ("inl", "inr"):
            raise ValueError(f"tag side must be inl or inr, got {self.side!r}")


@dataclass(frozen=True)
class IrrelevantPart:
    """Fields sliced off by projection, still keyed to their pids."""

    pids: frozenset[int]
    fields: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "pids", frozenset(self.pids))


@dataclass(frozen=True)
class Record:
    """One row: provenance ids, relevant fields, set-aside fields, tags.

    tags is a stack; the last element is the outermost (most recent) tag.
    """

    pids: frozenset[int]
    fields: dict
    irrelevant: tuple[IrrelevantPart, ...] = ()
    tags: tuple[PathTag, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pids", frozenset(self.pids))
        if not self.pids:
            raise ValueError("a record must carry at least one pid")

    def value(self, name: str) -> FieldValue:
        try:
            return self.fields[name]
        except KeyError:
            raise UnknownField(f"record has no field {name!r}") from None


def record_key(rec: Record, names: tuple[str, ...]) -> tuple:
    """Canonical identity of a record's relevant fields, in schema order."""
    return tuple(cell_key(rec.fields[n]) for n in names)


_SEM_CHECKS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "decimal": lambda v: isinstance(v, Decimal),
    "text": lambda v: isinstance(v, str),
    "quantity": lambda v: isinstance(v, Quantity),
    "summary": lambda v: isinstance(v, MonoidElement),
}


def check_cell(spec: FieldSpec, v: FieldValue) -> None:
    """Raise SchemaMismatch unless v is Missing or a value of spec's sem."""
    if not isinstance(v, Missing) and not _SEM_CHECKS[spec.sem](v):
        raise SchemaMismatch(f"field {spec.name!r}: {v!r} is not {spec.sem}")


def check_rows(sch: Schema, rows) -> None:
    """Raise SchemaMismatch unless every row has exactly sch's fields and
    each cell fits its field's sem (check_cell)."""
    names = set(field_names(sch))
    for rec in rows:
        if rec.fields.keys() != names:
            raise SchemaMismatch(f"record fields {sorted(rec.fields)} do not match "
                                 f"schema {field_names(sch)}")
        for spec in sch:
            check_cell(spec, rec.fields[spec.name])


@dataclass(frozen=True)
class Relation:
    """An ordered multiset of records sharing one schema; rows are trusted."""

    schema: "Schema | SumSchema"
    rows: tuple[Record, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))

    def __len__(self) -> int:
        return len(self.rows)


def empty(sch: "Schema | SumSchema") -> Relation:
    return Relation(sch, ())


def error_schema(base: Schema) -> Schema:
    """The base schema extended with the standard error metadata columns."""
    extra = (FieldSpec(ERROR_STAGE, "text"), FieldSpec(ERROR_REASON, "text"))
    return schema(*(base + extra))


def ingest(sch: Schema, rows, first_pid: int = 1) -> Relation:
    """Build a checked relation from plain dicts, one fresh pid per row."""
    records = []
    for pid, raw in zip(itertools.count(first_pid), rows):
        fields = {}
        for spec in sch:
            if spec.name not in raw:
                raise SchemaMismatch(f"row {pid}: missing field {spec.name!r}")
            fields[spec.name] = raw[spec.name]
        if len(raw) != len(sch):
            extra = set(raw) - set(field_names(sch))
            raise SchemaMismatch(f"row {pid}: undeclared fields {sorted(extra)}")
        records.append(Record(pids=frozenset({pid}), fields=fields))
    check_rows(sch, records)
    return Relation(sch, tuple(records))


def pids(rel: Relation) -> frozenset[int]:
    return frozenset().union(*(rec.pids for rec in rel.rows))


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
