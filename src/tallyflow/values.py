"""Field values: exact decimals, unit-tagged quantities, typed missingness.

All numerics are Decimal quantized to four places; nothing in the package
ever goes through binary floating point, so equality checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

DEC4 = Decimal("0.0001")

# Sentinels for unbounded min/max folds; Decimal handles them exactly.
POS_INF = Decimal("Infinity")
NEG_INF = Decimal("-Infinity")


def dec4(value: int | str | Decimal) -> Decimal:
    """Parse/convert to a Decimal quantized to four fractional digits.

    NaN, Infinity and values too large for four places (1e400) are refused.
    """
    try:
        d = value if isinstance(value, Decimal) else Decimal(value)
        if d.is_finite():
            return d.quantize(DEC4)
    except (InvalidOperation, ValueError):
        pass
    raise ValueError(f"not a decimal: {value!r}")


@dataclass(frozen=True, slots=True)
class Quantity:
    """An amount bound to a unit label, e.g. 200 tonne.

    Amounts of different units never compare or combine; aggregation
    subdivides by unit instead of mixing them.
    """

    amount: Decimal
    unit: str

    def __post_init__(self) -> None:
        if not isinstance(self.amount, Decimal):
            raise TypeError("Quantity.amount must be a Decimal")
        if not self.amount.is_finite():
            raise ValueError(f"Quantity.amount must be finite, not {self.amount}")
        if not self.unit:
            raise ValueError("Quantity.unit must be a nonempty label")

    def __str__(self) -> str:
        return f"{plain(self.amount)} {self.unit}"


@dataclass(frozen=True, slots=True)
class Missing:
    """A typed hole: the value is absent and `reason` says why.

    Two Missing cells are interchangeable for row identity no matter the
    reason (see cell_key); the reason still travels for error reporting.
    """

    reason: str

    def __post_init__(self) -> None:
        if not self.reason:
            raise ValueError("Missing.reason must be nonempty")

    def __str__(self) -> str:
        return f"<missing: {self.reason}>"


# A relation cell.  Summary relations additionally hold MonoidElement cells;
# monoid adds their key to CELL_KEYS rather than this module importing it.
FieldValue = int | str | Decimal | Quantity | Missing


def plain(d: Decimal) -> str:
    """Canonical text for a Decimal: trailing zeros dropped, -0 folded to 0.

    Every digit of d is kept; nothing here rounds.  Only for rendering:
    cell_key keys a Decimal by its value.  str(d) writes the digits as
    format(d, "f") does unless it needs an exponent, and is the cheaper
    call, so format runs only for a text with one.
    """
    text = str(d)
    if "E" in text:
        text = format(d, "f")
    elif d.is_infinite():
        return "inf" if d > 0 else "-inf"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


# a cell class's key: a tag, keyed (tag, value), or a function of the
# value; monoid adds MonoidElement's, since this module cannot import it
CELL_KEYS: dict = {
    str: "str", int: "int", Decimal: "dec",
    Missing: lambda v: ("missing",),
    Quantity: lambda q: ("qty", q.amount, q.unit),
}


def cell_key(value: object) -> object:
    """Hashable canonical identity of a cell value.

    Missing cells collapse to one key regardless of reason.  Decimals are
    keyed by value: Decimal == and hash are exact, never rounding, and
    already equate different scales (4 vs 4.0000) and -0 with 0.  Used for
    duplicate detection, multiset comparison and set-valued aggregation.
    A cell's exact class picks its key in CELL_KEYS; subclasses (bool, a
    str subclass) go through the isinstance chain.
    """
    key = CELL_KEYS.get(value.__class__)
    if key is not None:
        return (key, value) if key.__class__ is str else key(value)
    if isinstance(value, Decimal):
        return ("dec", value)
    if isinstance(value, bool):  # bool before int: bool is an int subtype
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, str):
        return ("str", value)
    raise TypeError(f"not a field value: {value!r}")
