"""Information-fusion monoids: the elements summaries are made of.

Each element kind carries a unit element and a combine rule, plus a partial
order under which fusing is monotone.  fold_payloads is the only code
that knows the combine rules: it folds bare payloads of one kind onto a
start.  fuse_all checks elements against a start and folds their payloads;
fuse is its two-element case.  Count/Sum/Avg/Set/Paccioli
use growth orders (fusing moves up); Min and Max use orders derived from
fuse itself, so fuse(a, b) sits below both a and b.  Max's order is
reversed-numeric for exactly that reason.
"""

from __future__ import annotations

import enum
from decimal import Decimal
from itertools import chain
from operator import itemgetter

from .errors import KindMismatch
from .values import CELL_KEYS, NEG_INF, POS_INF, Frozen, cell_key, plain, set_field


class Kind(enum.Enum):
    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"
    SET = "set"
    PACCIOLI = "paccioli"
    TUPLE = "tuple"


class MonoidElement(Frozen):
    """A single summary value: kind + payload + optional unit label.

    Payload shapes: COUNT int, SUM/MIN/MAX Decimal, AVG (sum, count),
    SET frozenset, PACCIOLI (debit, credit), TUPLE tuple of elements.
    """

    __slots__ = ("kind", "payload", "unit")

    def __init__(self, kind: Kind, payload: object, unit: str | None = None) -> None:
        set_field(self, "kind", kind)
        set_field(self, "payload", payload)
        set_field(self, "unit", unit)
        self.__post_init__()

    def __post_init__(self) -> None:
        k, p = self.kind, self.payload
        if k is Kind.COUNT:
            if not isinstance(p, int) or isinstance(p, bool) or p < 0:
                raise ValueError("count payload must be a nonnegative int")
        elif k in (Kind.SUM, Kind.MIN, Kind.MAX):
            if not isinstance(p, Decimal):
                raise ValueError(f"{k.value} payload must be a Decimal")
        elif k is Kind.AVG:
            s, c = _pair(p, "avg")
            if not isinstance(s, Decimal) or not isinstance(c, int):
                raise ValueError("avg payload must be (Decimal sum, int count)")
            if c < 0 or (c == 0 and s != 0):
                raise ValueError("avg invariant: count >= 0 and count == 0 implies sum == 0")
        elif k is Kind.SET:
            if not isinstance(p, frozenset):
                raise ValueError("set payload must be a frozenset")
        elif k is Kind.PACCIOLI:
            d, c = _pair(p, "paccioli")
            if not (isinstance(d, Decimal) and isinstance(c, Decimal)):
                raise ValueError("paccioli payload must be (Decimal, Decimal)")
            if d < 0 or c < 0:
                raise ValueError("paccioli legs must be nonnegative")
        elif k is Kind.TUPLE:
            if not isinstance(p, tuple) or not all(isinstance(e, MonoidElement) for e in p):
                raise ValueError("tuple payload must be a tuple of MonoidElements")

    # -- presentation ---------------------------------------------------

    def mean(self) -> Decimal | None:
        """Average as a number; division happens only here, at read time."""
        if self.kind is not Kind.AVG:
            raise KindMismatch("mean() only applies to avg elements")
        s, c = self.payload
        if c == 0:
            return None
        return (s / c).quantize(Decimal("0.0001"))

    def render(self) -> str:
        suffix = f" {self.unit}" if self.unit else ""
        k, p = self.kind, self.payload
        if k is Kind.COUNT:
            return str(p)
        if k in (Kind.SUM, Kind.MIN, Kind.MAX):
            return plain(p) + suffix
        if k is Kind.AVG:
            s, c = p
            m = self.mean()
            body = "n/a" if m is None else plain(m)
            return f"{body}{suffix} (n={c})"
        if k is Kind.SET:
            return "{" + ", ".join(str(v) for v in sorted(p, key=str)) + "}"
        if k is Kind.PACCIOLI:
            d, c = p
            return f"dr {plain(d)} / cr {plain(c)}{suffix}"
        return "(" + ", ".join(e.render() for e in p) + ")"

    def _cell_key(self) -> object:
        k, p = self.kind, self.payload
        if k is Kind.SET:
            body: object = frozenset(map(cell_key, p))
        elif k is Kind.TUPLE:
            body = tuple(e._cell_key() for e in p)
        else:  # an int, a Decimal or a pair of them: keyed by value, as in cell_key
            body = p
        return ("elem", k.value, self.unit, body)


CELL_KEYS[MonoidElement] = MonoidElement._cell_key


def _pair(p: object, what: str) -> tuple:
    if not isinstance(p, tuple) or len(p) != 2:
        raise ValueError(f"{what} payload must be a 2-tuple")
    return p


# -- constructors -------------------------------------------------------

ZERO = Decimal(0)


def count(n: int = 1) -> MonoidElement:
    return MonoidElement(Kind.COUNT, n)


def sum_of(value: Decimal, unit: str | None = None) -> MonoidElement:
    return MonoidElement(Kind.SUM, value, unit)


def min_of(value: Decimal, unit: str | None = None) -> MonoidElement:
    return MonoidElement(Kind.MIN, value, unit)


def max_of(value: Decimal, unit: str | None = None) -> MonoidElement:
    return MonoidElement(Kind.MAX, value, unit)


def avg_of(total: Decimal, n: int, unit: str | None = None) -> MonoidElement:
    return MonoidElement(Kind.AVG, (total, n), unit)


def set_of(ids) -> MonoidElement:
    return MonoidElement(Kind.SET, frozenset(ids))


def paccioli(debit: Decimal, credit: Decimal, unit: str | None = None) -> MonoidElement:
    return MonoidElement(Kind.PACCIOLI, (debit, credit), unit)


def signed_legs(value: Decimal) -> tuple:
    """A signed amount as a (debit, credit) payload: debit if >= 0, else credit."""
    return (value, ZERO) if value >= 0 else (ZERO, -value)


def tuple_of(*elements: MonoidElement) -> MonoidElement:
    return MonoidElement(Kind.TUPLE, tuple(elements))


# each scalar kind's unit payload
UNITS = {
    Kind.COUNT: 0,
    Kind.SUM: ZERO,
    Kind.MIN: POS_INF,
    Kind.MAX: NEG_INF,
    Kind.AVG: (ZERO, 0),
    Kind.SET: frozenset(),
    Kind.PACCIOLI: (ZERO, ZERO),
}


def unit_for(kind: Kind, unit: str | None = None) -> MonoidElement:
    """The identity element of a scalar kind (tuple units are built from parts)."""
    if kind is Kind.TUPLE:
        raise KindMismatch("tuple unit is built from component units")
    return MonoidElement(kind, UNITS[kind], unit)


# -- fuse and order -----------------------------------------------------

def _check_compatible(a: MonoidElement, b: MonoidElement) -> None:
    if a.kind is not b.kind:
        raise KindMismatch(f"cannot combine {a.kind.value} with {b.kind.value}")
    if a.unit != b.unit:
        raise KindMismatch(f"unit mismatch: {a.unit!r} vs {b.unit!r}")
    if a.kind is Kind.TUPLE and len(a.payload) != len(b.payload):
        raise KindMismatch(f"tuple arity mismatch: {len(a.payload)} vs {len(b.payload)}")


def fold_payloads(kind: Kind, payloads, start: object) -> object:
    """Left-fold bare payloads of kind onto the payload start.

    The only place each kind's combine rule lives.  Nothing is checked: the
    caller vouches that every payload has kind's shape and one unit label.
    """
    if kind is Kind.COUNT or kind is Kind.SUM:
        return sum(payloads, start)
    if kind is Kind.MIN:
        return min(chain((start,), payloads))
    if kind is Kind.MAX:
        return max(chain((start,), payloads))
    if kind is Kind.AVG or kind is Kind.PACCIOLI:
        pairs = list(payloads)
        return (sum(map(itemgetter(0), pairs), start[0]),
                sum(map(itemgetter(1), pairs), start[1]))
    if kind is Kind.SET:
        return start.union(*payloads)
    return tuple(fuse_all(part[1:], part[0]) for part in zip(start, *payloads))


def fuse_all(elements, start: MonoidElement) -> MonoidElement:
    """Left-fold elements onto start, checking each against start.

    The payloads are folded by fold_payloads and one element is built at
    the end, with start's unit label.
    """
    payloads = []
    for e in elements:
        _check_compatible(start, e)
        payloads.append(e.payload)
    return MonoidElement(start.kind, fold_payloads(start.kind, payloads, start.payload),
                         start.unit)


def fuse(a: MonoidElement, b: MonoidElement) -> MonoidElement:
    """Combine two summaries of the same kind and unit."""
    return fuse_all((b,), a)


def leq(a: MonoidElement, b: MonoidElement) -> bool:
    """Partial order per kind; KindMismatch when elements are incomparable."""
    _check_compatible(a, b)
    k = a.kind
    if k in (Kind.COUNT, Kind.SUM, Kind.MIN):
        return a.payload <= b.payload
    if k is Kind.MAX:
        # reversed so that fuse (numeric max) is a lower bound
        return a.payload >= b.payload
    if k in (Kind.AVG, Kind.PACCIOLI):
        (x1, y1), (x2, y2) = a.payload, b.payload
        return x1 <= x2 and y1 <= y2
    if k is Kind.SET:
        return a.payload <= b.payload
    return all(leq(x, y) for x, y in zip(a.payload, b.payload))
