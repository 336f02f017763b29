"""Row predicates and row expressions.

Predicates are three-valued: a comparison against a Missing cell is neither
true nor false, it is unknown with a reason, and partitioning collapses
unknown to the reject side carrying that reason.  Expressions only ever add
information to a row; division is deliberately absent (averages divide at
presentation time, not in the data).

Both ASTs round-trip through plain dicts, the form they take in pipeline
documents.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import Decimal

from .errors import FnNotTotal
from .monoid import Kind, MonoidElement
from .relation import schema_field
from .values import FieldValue, Missing, Quantity, cell_key, dec4

# -- predicate AST ------------------------------------------------------


@dataclass(frozen=True)
class Always:
    value: bool


@dataclass(frozen=True)
class FieldDefined:
    field: str


@dataclass(frozen=True)
class Compare:
    op: str  # eq ne lt le gt ge
    field: str
    value: FieldValue


@dataclass(frozen=True)
class InSet:
    field: str
    values: tuple


@dataclass(frozen=True)
class Not:
    inner: "Pred"


@dataclass(frozen=True)
class All:
    parts: tuple


@dataclass(frozen=True)
class AnyOf:
    parts: tuple


Pred = Always | FieldDefined | Compare | InSet | Not | All | AnyOf

_OPS = {
    "eq": lambda c: c == 0,
    "ne": lambda c: c != 0,
    "lt": lambda c: c < 0,
    "le": lambda c: c <= 0,
    "gt": lambda c: c > 0,
    "ge": lambda c: c >= 0,
}


class Truth:
    """One of: true, false(reason), unknown(reason)."""

    __slots__ = ("state", "reason")

    def __init__(self, state: str, reason: str | None = None):
        self.state = state  # "t" | "f" | "u"
        self.reason = reason

    @classmethod
    def true(cls) -> "Truth":
        return cls("t")

    @classmethod
    def false(cls, reason: str) -> "Truth":
        return cls("f", reason)

    @classmethod
    def unknown(cls, reason: str) -> "Truth":
        return cls("u", reason)


_TRUE = Truth.true()  # compiled predicates share it; nothing mutates a Truth


def describe(p: Pred) -> str:
    if isinstance(p, Always):
        return "always true" if p.value else "always false"
    if isinstance(p, FieldDefined):
        return f"{p.field} is defined"
    if isinstance(p, Compare):
        return f"{p.field} {p.op} {p.value}"
    if isinstance(p, InSet):
        return f"{p.field} in {{{', '.join(str(v) for v in p.values)}}}"
    if isinstance(p, Not):
        return f"not ({describe(p.inner)})"
    if isinstance(p, All):
        return " and ".join(f"({describe(q)})" for q in p.parts) or "always true"
    if isinstance(p, AnyOf):
        return " or ".join(f"({describe(q)})" for q in p.parts) or "always false"
    raise TypeError(f"not a predicate: {p!r}")


def _compare_values(op: str, left: FieldValue, right: FieldValue, field: str) -> Truth:
    if op in ("eq", "ne"):
        same = cell_key(left) == cell_key(right)
        ok = same if op == "eq" else not same
        return _TRUE if ok else Truth.false(f"{field} {op} {right} failed for {left}")
    # ordered comparison: numbers with numbers, quantities within one unit,
    # text with text; anything else yields no fact
    if isinstance(left, Quantity) and isinstance(right, Quantity):
        if left.unit != right.unit:
            return Truth.unknown(f"{field}: unit {left.unit} not comparable with {right.unit}")
        lv, rv = left.amount, right.amount
    elif isinstance(left, (int, Decimal)) and isinstance(right, (int, Decimal)):
        lv, rv = left, right
    elif isinstance(left, str) and isinstance(right, str):
        lv, rv = left, right
    else:
        return Truth.unknown(f"{field}: {left!r} not comparable with {right!r}")
    c = 0 if lv == rv else (-1 if lv < rv else 1)
    if _OPS[op](c):
        return _TRUE
    return Truth.false(f"{field} {op} {right} failed for {left}")


def compile_pred(p: Pred, sch):
    """p as a closure from a row's fields dict to its Truth.

    Field names are resolved against sch (raising UnknownField) and InSet
    key sets are built here, once.  Every rejecting Truth carries a reason.
    """
    if isinstance(p, Always):
        t = _TRUE if p.value else Truth.false("always false")
        return lambda row: t
    if isinstance(p, (FieldDefined, Compare, InSet)):
        name = schema_field(sch, p.field).name
        if isinstance(p, FieldDefined):
            def defined(row):
                v = row[name]
                return Truth.false(f"{name} missing: {v.reason}") if isinstance(v, Missing) else _TRUE
            return defined
        if isinstance(p, Compare):
            op, want = p.op, p.value
            test = lambda v: _compare_values(op, v, want, name)
        else:
            keys = frozenset(cell_key(x) for x in p.values)
            test = lambda v: (_TRUE if cell_key(v) in keys
                              else Truth.false(f"{name} value {v} not in allowed set"))

        def known(row):
            v = row[name]
            if isinstance(v, Missing):
                return Truth.unknown(f"{name} missing: {v.reason}")
            return test(v)
        return known
    if isinstance(p, Not):
        inner = compile_pred(p.inner, sch)
        negated = Truth.false(f"negation of: {describe(p.inner)}")

        def negate(row):
            t = inner(row)
            return negated if t.state == "t" else _TRUE if t.state == "f" else t
        return negate
    if isinstance(p, All):
        parts = [compile_pred(q, sch) for q in p.parts]

        def conjoin(row):
            pending = None
            for part in parts:
                t = part(row)
                if t.state == "f":
                    return t
                if t.state == "u" and pending is None:
                    pending = t
            return pending or _TRUE
        return conjoin
    if isinstance(p, AnyOf):
        parts = [compile_pred(q, sch) for q in p.parts]

        def disjoin(row):
            pending, reasons = None, []
            for part in parts:
                t = part(row)
                if t.state == "t":
                    return t
                if t.state == "u" and pending is None:
                    pending = t
                if t.state == "f":
                    reasons.append(t.reason)
            return pending or Truth.false("; ".join(reasons) or "always false")
        return disjoin
    raise TypeError(f"not a predicate: {p!r}")


# -- row expression AST -------------------------------------------------


@dataclass(frozen=True)
class Col:
    name: str


@dataclass(frozen=True)
class Lit:
    value: FieldValue


@dataclass(frozen=True)
class NumOf:
    """Numeric view of a cell: quantity amount, summary payload, or the number."""
    inner: "Expr"


@dataclass(frozen=True)
class UnitOf:
    inner: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # add sub mul
    left: "Expr"
    right: "Expr"


Expr = Col | Lit | NumOf | UnitOf | BinOp


def _summary_number(v: MonoidElement) -> Decimal:
    """The number a summary cell stands for: a count, or a sum, min or max
    that folded at least one value (the min or max of none is infinite)."""
    if v.kind is Kind.COUNT:
        return Decimal(v.payload)
    if v.kind not in (Kind.SUM, Kind.MIN, Kind.MAX):
        raise FnNotTotal(f"no numeric view of a {v.kind.value} summary")
    if not v.payload.is_finite():
        raise FnNotTotal(f"the {v.kind.value} of no values is not a number")
    return v.payload


def _same(v):
    return v


# how num and arithmetic read a present value of each sem; None is the sem of
# a bare Missing literal, whose value never reaches a view
_NUMBER_VIEWS = {"integer": Decimal, "decimal": _same, "quantity": operator.attrgetter("amount"),
                 "summary": _summary_number, None: _same}


def _number_view(sem: str | None, where: str):
    if sem not in _NUMBER_VIEWS:
        raise FnNotTotal(f"{where} applied to a {sem} value")
    return _NUMBER_VIEWS[sem]


def _literal_type(v) -> tuple:
    """(sem, unit) of a literal value; a bare Missing fits any sem (None)."""
    if isinstance(v, Missing):
        return None, None
    if isinstance(v, bool):  # before int: bool is an int subtype
        raise FnNotTotal("boolean literals are not field values")
    if isinstance(v, int):
        return "integer", None
    if isinstance(v, Decimal) and v.is_finite():
        return "decimal", None
    if isinstance(v, str):
        return "text", None
    if isinstance(v, Quantity):
        return "quantity", v.unit
    raise FnNotTotal(f"literal {v!r} has no field type")


_BINOPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def compile_expr(e: Expr, sch):
    """e as (closure from a row's fields dict to a value, sem, unit).

    This is the one place expressions are typed: (sem, unit) is what e
    computes over the plain schema sch, decided before any row is seen.  A
    column has its own type, a literal its value's (a bare Missing literal
    has sem None and fits any sem), num and arithmetic give decimal over
    integer, decimal, quantity or summary operands, and unit_of gives text
    over a quantity.  An unknown field raises UnknownField, any other
    ill-typed expression FnNotTotal.  Missing operands propagate, never crash.
    """
    if isinstance(e, Col):
        spec = schema_field(sch, e.name)
        return operator.itemgetter(spec.name), spec.sem, spec.unit
    if isinstance(e, Lit):
        value = e.value
        sem, unit = _literal_type(value)
        return (lambda row: value), sem, unit
    if isinstance(e, NumOf):
        inner, sem, _ = compile_expr(e.inner, sch)
        view = _number_view(sem, "num")

        def num(row):
            v = inner(row)
            return v if isinstance(v, Missing) else view(v)
        return num, "decimal", None
    if isinstance(e, UnitOf):
        inner, sem, _ = compile_expr(e.inner, sch)
        if sem not in ("quantity", None):
            raise FnNotTotal(f"unit_of applied to a {sem} value")

        def unit_of(row):
            v = inner(row)
            return v if isinstance(v, Missing) else v.unit
        return unit_of, "text", None
    if isinstance(e, BinOp):
        if e.op not in _BINOPS:
            raise FnNotTotal(f"unknown operator {e.op!r}")
        fn = _BINOPS[e.op]
        left, lsem, _ = compile_expr(e.left, sch)
        right, rsem, _ = compile_expr(e.right, sch)
        lview, rview = _number_view(lsem, e.op), _number_view(rsem, e.op)

        def binop(row):
            lv = left(row)
            if isinstance(lv, Missing):
                return lv
            rv = right(row)
            if isinstance(rv, Missing):
                return rv
            return fn(lview(lv), rview(rv))
        return binop, "decimal", None
    raise TypeError(f"not an expression: {e!r}")


# -- dict (de)serialization --------------------------------------------


def encode_value(v: FieldValue) -> object:
    if isinstance(v, Missing):
        return {"missing": v.reason}
    if isinstance(v, Quantity):
        return {"qty": [str(v.amount), v.unit]}
    if isinstance(v, Decimal):
        return {"dec": str(v)}
    if isinstance(v, (int, str)):
        return v
    raise TypeError(f"cannot encode {v!r}")


def _text(value, key: str, shape: str = "a name") -> str:
    """A document's name or text; a number or a list is refused, not read as text."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be {shape}, not {value!r}")
    return value


def decode_value(doc: object) -> FieldValue:
    if isinstance(doc, bool):
        raise ValueError("boolean literals are not field values")
    if isinstance(doc, (int, str)):
        return doc
    if isinstance(doc, float):
        return dec4(str(doc))
    if isinstance(doc, dict) and len(doc) == 1:
        key, body = next(iter(doc.items()))
        if key == "missing":
            return Missing(_text(body, "missing reason", "text"))
        if key == "qty":
            if not (isinstance(body, (list, tuple)) and len(body) == 2):
                raise ValueError(f"qty must be an [amount, unit] list, not {body!r}")
            amount, unit = body
            return Quantity(dec4(str(amount)), _text(unit, "qty unit", "text"))
        if key == "dec":
            return dec4(str(body))
    raise ValueError(f"cannot decode value {doc!r}")


def encode_pred(p: Pred) -> dict:
    if isinstance(p, Always):
        return {"always": p.value}
    if isinstance(p, FieldDefined):
        return {"defined": p.field}
    if isinstance(p, Compare):
        return {"cmp": {"op": p.op, "field": p.field, "value": encode_value(p.value)}}
    if isinstance(p, InSet):
        return {"in": {"field": p.field, "values": [encode_value(v) for v in p.values]}}
    if isinstance(p, Not):
        return {"not": encode_pred(p.inner)}
    if isinstance(p, All):
        return {"all": [encode_pred(q) for q in p.parts]}
    if isinstance(p, AnyOf):
        return {"any": [encode_pred(q) for q in p.parts]}
    raise TypeError(f"not a predicate: {p!r}")


def decode_pred(doc: dict) -> Pred:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValueError(f"bad predicate document: {doc!r}")
    key, body = next(iter(doc.items()))
    if key == "always":
        if not isinstance(body, bool):  # "false" is text, and bool("false") is True
            raise ValueError(f"always must be true or false, not {body!r}")
        return Always(body)
    if key == "defined":
        return FieldDefined(_text(body, "defined"))
    if key == "cmp":
        op = body["op"]
        if op not in _OPS:
            raise ValueError(f"unknown comparison {op!r}")
        return Compare(op, _text(body["field"], "field"), decode_value(body["value"]))
    if key == "in":
        values = body["values"]
        if not isinstance(values, (list, tuple)):  # a bare name would be read letter by letter
            raise ValueError(f"in values must be a list, not {values!r}")
        return InSet(_text(body["field"], "field"), tuple(decode_value(v) for v in values))
    if key == "not":
        return Not(decode_pred(body))
    if key == "all":
        return All(tuple(decode_pred(q) for q in body))
    if key == "any":
        return AnyOf(tuple(decode_pred(q) for q in body))
    raise ValueError(f"unknown predicate form {key!r}")


def encode_expr(e: Expr) -> object:
    if isinstance(e, Col):
        return {"col": e.name}
    if isinstance(e, Lit):
        return {"lit": encode_value(e.value)}
    if isinstance(e, NumOf):
        return {"num": encode_expr(e.inner)}
    if isinstance(e, UnitOf):
        return {"unit_of": encode_expr(e.inner)}
    if isinstance(e, BinOp):
        return {e.op: [encode_expr(e.left), encode_expr(e.right)]}
    raise TypeError(f"not an expression: {e!r}")


def decode_expr(doc: object) -> Expr:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValueError(f"bad expression document: {doc!r}")
    key, body = next(iter(doc.items()))
    if key == "col":
        return Col(_text(body, "col"))
    if key == "lit":
        return Lit(decode_value(body))
    if key == "num":
        return NumOf(decode_expr(body))
    if key == "unit_of":
        return UnitOf(decode_expr(body))
    if key in ("add", "sub", "mul"):
        if not (isinstance(body, (list, tuple)) and len(body) == 2):
            raise ValueError(f"{key} must be a [left, right] list, not {body!r}")
        left, right = body
        return BinOp(key, decode_expr(left), decode_expr(right))
    raise ValueError(f"unknown expression form {key!r}")
