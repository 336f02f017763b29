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
checks a column at a time by the set of its cell classes); operators only
move checked rows, so Relation(...) trusts the rows it is given.  A
relation's pids are read as one PidSet, an int bitset; a record's own pids
stay a frozenset.
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


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a pid's flag byte -> its binary digit


def pid_runs(bits: int):
    """(first, last + 1) of each run of consecutive pids in bits, ascending."""
    low = (bits & -bits).bit_length() - 1  # the smallest pid, -1 for none
    digits = bin(bits >> low if bits else 0)[:1:-1] + "0"  # binary digits, from low up
    start = digits.find("1")
    while start >= 0:
        end = digits.find("0", start)
        yield low + start, low + end
        start = digits.find("1", end)


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


# each sem's cell class; a cell of a subclass is judged by isinstance, and
# a bool is no integer
_SEM_CLASSES = {"integer": int, "decimal": Decimal, "text": str, "quantity": Quantity,
                "summary": MonoidElement}


def _first_misfit(sem: str, col: list) -> int | None:
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

    The error is the one a row-by-row scan meets first: the first row with
    a wrong field set or a bad cell, and in that row its field set before
    its first bad cell in schema order.  Cells are checked a column at a
    time, over the rows before the first wrong field set."""
    names = field_names(sch)
    fields = [rec.fields for rec in rows]
    end = len(fields)  # the first row with a wrong field set, or none
    cols = None
    if set(map(len, fields)) <= {len(names)}:
        try:  # rows that hold as many fields as sch and each of sch's: its fields
            cols = [list(map(operator.itemgetter(n), fields)) for n in names]
        except KeyError:
            pass
    if cols is None:
        end = list(map(operator.eq, map(dict.keys, fields), itertools.repeat(set(names)))).index(False)
        cols = [list(map(operator.itemgetter(n), fields[:end])) for n in names]
    misfits = [(i, spec) for spec, col in zip(sch, cols)
               if (i := _first_misfit(spec.sem, col)) is not None]
    if misfits:  # the first row's, and in it the first field's in schema order
        i, spec = min(misfits, key=operator.itemgetter(0))
        raise SchemaMismatch(f"field {spec.name!r}: {fields[i][spec.name]!r} is not {spec.sem}")
    if end < len(fields):
        raise SchemaMismatch(f"record fields {sorted(fields[end])} do not match "
                             f"schema {names}")


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
        """(pids, repeats): the PidSet of every pid the rows carry, and,
        sparsely, pid -> number of rows that carry it for pids more than one
        row carries (a join copy, a dedup's merged duplicates).  Scanned on
        first read and kept, so a relation fed to several ports is scanned once."""
        sets = [rec.pids for rec in self.rows]
        pids = frozenset().union(*sets)
        repeats: dict = {}
        if sum(map(len, sets)) > len(pids):
            n = Counter(itertools.chain.from_iterable(sets))
            repeats = {pid: k for pid, k in n.items() if k > 1}
        return pid_bits(pids), repeats


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
    return frozenset(rel.pid_record[0])


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
