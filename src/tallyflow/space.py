"""Data spaces: a relation carrier plus a measure into an information monoid.

A space says how to summarize: payloads gives each row's bare payload in
the space's monoid, and measure maps any subrelation to one element, its
rows' payloads folded onto the space's unit (monoid.fold_payloads).  The
measure of a whole equals the fuse of the measures of any partition of it.
The run ledger (audit.build_charges) reads the same payloads.
"""

from __future__ import annotations

from typing import Callable

from .errors import SchemaMismatch
from .monoid import ZERO, Kind, MonoidElement, fold_payloads, signed_legs, unit_for
from .relation import Relation, Schema
from .values import FieldValue, Frozen, Missing

# the one list of conservation schemes, each with the sem of the field it reads
SCHEMES = {"count": None, "sum": "decimal", "sum_by_unit": "quantity", "paccioli": "decimal"}


def carries(sch: Schema, scheme: str, fld: str | None) -> bool:
    """Whether sch has fld with scheme's sem; a fieldless scheme reads any schema.

    Checked rows then hold that sem or Missing in fld: measures need no type test.
    """
    sem = SCHEMES[scheme]
    return sem is None or any(f.name == fld and f.sem == sem for f in sch)


class DataSpace(Frozen):
    """A named measure over rows, folded from its unit element.

    unit fixes the monoid's kind and unit label; payloads maps a relation
    to its rows' payloads of that kind, the one definition measure() and
    the run ledger share.  requires is the (scheme, field) payloads reads;
    measure() refuses a relation whose schema does not carry it (carries)
    before folding.
    """

    __slots__ = ("name", "unit", "payloads", "requires")
    _defaults = {"requires": ("count", None)}

    def measure(self, rel: Relation) -> MonoidElement:
        if not carries(rel.schema, *self.requires):
            scheme, fld = self.requires
            raise SchemaMismatch(f"space {self.name} needs a {SCHEMES[scheme]} field {fld!r}")
        u = self.unit
        payload = fold_payloads(u.kind, self.payloads(rel), u.payload)
        return MonoidElement(u.kind, payload, u.unit)


def count_space() -> DataSpace:
    """Counts provenance ids, so merged duplicates still count fully."""
    return DataSpace("count", unit_for(Kind.COUNT), lambda rel: list(map(len, rel.pids)))


def _field_space(name: str, requires: tuple, unit: MonoidElement,
                 of_cell: Callable[[FieldValue], object]) -> DataSpace:
    """A space over requires' field: Missing contributes unit's payload, a
    value of_cell's."""
    fld = requires[1]
    zero = unit.payload

    def payloads(rel: Relation) -> list:
        return [zero if isinstance(v, Missing) else of_cell(v) for v in rel.column(fld)]

    return DataSpace(name, unit, payloads, requires)


def decimal_sum_space(fld: str, unit: str | None = None) -> DataSpace:
    """Sums a decimal column; Missing cells contribute the unit element."""
    return _field_space(f"sum[{fld}]", ("sum", fld), unit_for(Kind.SUM, unit), lambda v: v)


def quantity_sum_space(fld: str, unit: str) -> DataSpace:
    """Sums a quantity column for one unit label; other units contribute zero.

    One space per unit label keeps unlike units from ever being added; the
    family over all labels present is the full measure of the column.
    """
    return _field_space(f"sum[{fld}:{unit}]", ("sum_by_unit", fld), unit_for(Kind.SUM, unit),
                        lambda v: v.amount if v.unit == unit else ZERO)


def paccioli_space(fld: str, unit: str | None = None) -> DataSpace:
    """Sums a signed decimal column as (debit, credit) legs, never netting.

    Positive amounts land on the debit leg, negatives on the credit leg;
    debit minus credit recovers the plain signed sum.
    """
    return _field_space(f"paccioli[{fld}]", ("paccioli", fld), unit_for(Kind.PACCIOLI, unit),
                        signed_legs)

