"""Data spaces: a relation carrier plus a measure into an information monoid.

A space says how to summarize: measure maps any subrelation to one monoid
element, the fuse_all of its records' elements from the space's unit, and
the measure of a whole equals the fuse of the measures of any partition of
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

from .errors import SchemaMismatch
from .monoid import (
    Kind,
    MonoidElement,
    count,
    fuse_all,
    paccioli_of_signed,
    sum_of,
    unit_for,
)
from .relation import Record, Relation, SumSchema, field_names
from .values import Missing, Quantity


@dataclass(frozen=True)
class DataSpace:
    """A named measure over records, folded from its unit element.

    unit fixes the monoid's kind and unit label.  requires lists the field
    names per_record reads; measure() checks them against the relation's
    schema before folding.
    """

    name: str
    unit: MonoidElement
    per_record: Callable[[Record], MonoidElement]
    requires: tuple[str, ...] = ()

    def measure(self, rel: Relation) -> MonoidElement:
        self._check_schema(rel)
        return fuse_all(map(self.per_record, rel.rows), self.unit)

    def _check_schema(self, rel: Relation) -> None:
        if not self.requires:
            return
        if isinstance(rel.schema, SumSchema):
            raise SchemaMismatch(f"space {self.name} cannot measure a tagged-sum relation")
        names = set(field_names(rel.schema))
        missing = [n for n in self.requires if n not in names]
        if missing:
            raise SchemaMismatch(f"space {self.name} needs fields {missing}")


def count_space(name: str = "count") -> DataSpace:
    """Counts provenance ids, so merged duplicates still count fully."""
    return DataSpace(
        name=name,
        unit=unit_for(Kind.COUNT),
        per_record=lambda rec: count(len(rec.pids)),
    )


def decimal_sum_space(fld: str, unit: str | None = None, name: str | None = None) -> DataSpace:
    """Sums a decimal column; Missing cells contribute the unit element."""
    def per_record(rec: Record) -> MonoidElement:
        v = rec.fields[fld]
        if isinstance(v, Missing):
            return sum_of(Decimal(0), unit)
        if not isinstance(v, Decimal):
            raise SchemaMismatch(f"field {fld!r} is not decimal: {v!r}")
        return sum_of(v, unit)

    return DataSpace(
        name=name or f"sum[{fld}]",
        unit=unit_for(Kind.SUM, unit),
        per_record=per_record,
        requires=(fld,),
    )


def quantity_sum_space(fld: str, unit: str, name: str | None = None) -> DataSpace:
    """Sums a quantity column for one unit label; other units contribute zero.

    One space per unit label keeps unlike units from ever being added; the
    family over all labels present is the full measure of the column.
    """
    def per_record(rec: Record) -> MonoidElement:
        v = rec.fields[fld]
        if isinstance(v, Quantity) and v.unit == unit:
            return sum_of(v.amount, unit)
        if isinstance(v, (Quantity, Missing)):
            return sum_of(Decimal(0), unit)
        raise SchemaMismatch(f"field {fld!r} is not a quantity: {v!r}")

    return DataSpace(
        name=name or f"sum[{fld}:{unit}]",
        unit=unit_for(Kind.SUM, unit),
        per_record=per_record,
        requires=(fld,),
    )


def paccioli_space(fld: str, unit: str | None = None, name: str | None = None) -> DataSpace:
    """Sums a signed decimal column as (debit, credit) legs, never netting.

    Positive amounts land on the debit leg, negatives on the credit leg;
    debit minus credit recovers the plain signed sum.
    """
    def per_record(rec: Record) -> MonoidElement:
        v = rec.fields[fld]
        if isinstance(v, Missing):
            return unit_for(Kind.PACCIOLI, unit)
        if not isinstance(v, Decimal):
            raise SchemaMismatch(f"field {fld!r} is not decimal: {v!r}")
        return paccioli_of_signed(v, unit)

    return DataSpace(
        name=name or f"paccioli[{fld}]",
        unit=unit_for(Kind.PACCIOLI, unit),
        per_record=per_record,
        requires=(fld,),
    )


def quantity_units(rel: Relation, fld: str) -> tuple[str, ...]:
    """Sorted unit labels present in a quantity column."""
    units = {
        rec.fields[fld].unit
        for rec in rel.rows
        if isinstance(rec.fields[fld], Quantity)
    }
    return tuple(sorted(units))
