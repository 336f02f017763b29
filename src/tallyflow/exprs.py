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
from decimal import Decimal

from .errors import ExprTypeError, FnNotTotal
from .grammar import BOOL, NAME, TEXT, Choice, Entry, Leaf, ListOf
from .monoid import Kind, MonoidElement
from .relation import schema_field
from .values import FieldValue, Frozen, Missing, Quantity, cell_key, dec4

# -- predicate AST ------------------------------------------------------
# inner is a Pred and parts a tuple of them; Compare's value is a FieldValue


class Always(Frozen):
    __slots__ = ("value",)


class FieldDefined(Frozen):
    __slots__ = ("field",)


class Compare(Frozen):
    __slots__ = ("op", "field", "value")  # op: a key of _OPS

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison {self.op!r}")


class InSet(Frozen):
    __slots__ = ("field", "values")


class Not(Frozen):
    __slots__ = ("inner",)


class All(Frozen):
    __slots__ = ("parts",)


class AnyOf(Frozen):
    __slots__ = ("parts",)


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


_NUMBERS = {"integer", "decimal"}


def _meets(spec, v, ordered: bool = False) -> None:
    """Refuse a literal v that no cell of the field spec could match: one of
    another sem, save integer against decimal in an ordered comparison (an
    integer never equals a decimal).  A bare Missing fits any field."""
    sem = _literal_type(v)[0]
    if sem not in (None, spec.sem) and not (ordered and {sem, spec.sem} <= _NUMBERS):
        shown = repr(v) if isinstance(v, str) else str(v)
        raise ExprTypeError(f"{spec.name} is {spec.sem}, so the {sem} literal {shown} "
                            "cannot match it")


def compile_pred(p: Pred, sch):
    """p as a closure from a row's fields dict to its Truth.

    Field names are resolved against sch (raising UnknownField) and InSet
    key sets are built here, once.  A cmp or in literal no cell of its
    field could match raises ExprTypeError.  Every rejecting Truth carries
    a reason.
    """
    if isinstance(p, Always):
        t = _TRUE if p.value else Truth.false("always false")
        return lambda row: t
    if isinstance(p, (FieldDefined, Compare, InSet)):
        spec = schema_field(sch, p.field)
        name = spec.name
        if isinstance(p, FieldDefined):
            def defined(row):
                v = row[name]
                return Truth.false(f"{name} missing: {v.reason}") if isinstance(v, Missing) else _TRUE
            return defined
        if isinstance(p, Compare):
            _meets(spec, p.value, p.op not in ("eq", "ne"))
            op, want = p.op, p.value
            test = lambda v: _compare_values(op, v, want, name)
        else:
            for x in p.values:
                _meets(spec, x)
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
# inner, left and right are Exprs; Lit's value is a FieldValue


class Col(Frozen):
    __slots__ = ("name",)


class Lit(Frozen):
    __slots__ = ("value",)


class NumOf(Frozen):
    """Numeric view of a cell: quantity amount, summary payload, or the number."""

    __slots__ = ("inner",)


class UnitOf(Frozen):
    __slots__ = ("inner",)


class BinOp(Frozen):
    __slots__ = ("op", "left", "right")  # op: add sub mul


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


# -- document writers: the query compiler's; the grammar below reads them back


def encode_value(v: FieldValue) -> object:
    """v as a document writes it.  A document reads decimals to four places,
    so a literal they cannot hold exactly is refused (ValueError), not rounded."""
    if isinstance(v, Missing):
        return {"missing": v.reason}
    d = v.amount if isinstance(v, Quantity) else v
    if isinstance(d, Decimal) and dec4(d) != d:
        raise ValueError(f"the literal {d} does not fit a document's four decimal places")
    if isinstance(v, Quantity):
        return {"qty": [str(v.amount), v.unit]}
    if isinstance(v, Decimal):
        return {"dec": str(v)}
    if isinstance(v, (int, str)):
        return v
    raise TypeError(f"cannot encode {v!r}")


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


# -- the document grammar ----------------------------------------------
# A value, a predicate and an expression are each a one-key mapping whose
# key names the form; a value may also be a bare number or text.

NUMBER = Leaf("a number", (int, float, str), lambda x: dec4(str(x)))

VALUE = Choice("a number, text or a value", {int: _same, str: _same, float: NUMBER.convert})
VALUE.define({
    "missing": (TEXT, Missing),
    "qty": (ListOf((NUMBER, TEXT), "an [amount, unit] pair"), lambda pair: Quantity(*pair)),
    "dec": (NUMBER, _same),
})

PRED = Choice("a predicate")
PRED.define({
    "always": (BOOL, Always),
    "defined": (NAME, FieldDefined),
    "cmp": (Entry("a comparison", {"op": NAME, "field": NAME, "value": VALUE}, Compare), _same),
    "in": (Entry("a set test", {"field": NAME, "values": ListOf(VALUE, "a list of values")},
                 InSet), _same),
    "not": (PRED, Not),
    "all": (ListOf(PRED, "a list of predicates"), All),
    "any": (ListOf(PRED, "a list of predicates"), AnyOf),
})

EXPR = Choice("an expression")
_OPERANDS = ListOf((EXPR, EXPR), "a [left, right] pair of expressions")
EXPR.define({
    "col": (NAME, Col),
    "lit": (VALUE, Lit),
    "num": (EXPR, NumOf),
    "unit_of": (EXPR, UnitOf),
    **{op: (_OPERANDS, lambda pair, op=op: BinOp(op, *pair)) for op in _BINOPS},
})
