"""Field values: exact decimals, unit-tagged quantities, typed missingness.

All numerics are Decimal quantized to four places; nothing in the package
ever goes through binary floating point, so equality checks are exact.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from operator import attrgetter

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


class Frozen:
    """The record base of the package's value classes.

    A subclass lists its fields, in constructor order, in __slots__ (a
    class that caches a property adds "__dict__", which is no field) and
    their defaults in _defaults.  Instances compare equal only to the same
    class, field by field, hash as the tuple of their fields, print as
    their constructor call and refuse attribute assignment and deletion (a
    mutable record puts object's __setattr__ and __delattr__ back).
    Nothing is generated per class, so a process pays nothing to declare
    one.  __init__ takes the fields by position or keyword and then calls
    __post_init__; a class built thousands of times per job writes its own
    __init__ with the same signature, which does the same work.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        names = tuple(n for n in cls.__dict__.get("__slots__", ()) if n != "__dict__")
        get = attrgetter(*names) if names else lambda self: ()
        cls._fields = names
        # the field tuple, read in C; attrgetter of one name returns it bare
        cls._values = staticmethod(get if len(names) != 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs) -> None:
        cls = self.__class__
        names = cls._fields
        if kwargs or len(args) != len(names):
            given = {**cls._defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or kwargs.keys() - names[len(args):] \
                    or len(given) < len(names):
                raise TypeError(f"{cls.__name__}() takes the fields {names}, not {len(args)} "
                                f"by position and {sorted(kwargs)} by name")
            args = map(given.__getitem__, names)
        for name, value in zip(names, args):
            set_field(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or normalise the fields; a subclass's own rules go here."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle rebuilds through __init__: restoring slots would assign them
        return self.__class__, self._values(self)


# sets one field of a Frozen instance, for __init__ and __post_init__ only
set_field = object.__setattr__


class Quantity(Frozen):
    """An amount bound to a unit label, e.g. 200 tonne.

    Amounts of different units never compare or combine; aggregation
    subdivides by unit instead of mixing them.
    """

    __slots__ = ("amount", "unit")

    def __init__(self, amount: Decimal, unit: str) -> None:
        set_field(self, "amount", amount)
        set_field(self, "unit", unit)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.amount, Decimal):
            raise TypeError("Quantity.amount must be a Decimal")
        if not self.amount.is_finite():
            raise ValueError(f"Quantity.amount must be finite, not {self.amount}")
        if not self.unit:
            raise ValueError("Quantity.unit must be a nonempty label")

    def __str__(self) -> str:
        return f"{plain(self.amount)} {self.unit}"


class Missing(Frozen):
    """A typed hole: the value is absent and `reason` says why.

    Two Missing cells are interchangeable for row identity no matter the
    reason (see cell_key); the reason still travels for error reporting.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        set_field(self, "reason", reason)
        self.__post_init__()

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
