"""Row predicates and row expressions, each compiled to a column function.

Predicates are three-valued: a comparison against a Missing cell is neither
true nor false, it is unknown with a reason.  A compiled predicate maps a
relation's columns to a verdict column, None where the predicate holds and
(unknown, reason) elsewhere, and partitioning sends the false and the
unknown rows alike to the reject side carrying that reason.  Expressions
only ever add information to a row; division is deliberately absent
(averages divide at presentation time, not in the data).  A compiled
expression computes a whole column: each operator is one pass over its
operands' columns, and a row where num finds no number holds that fault in
its cell, carried up the expression as a Missing operand is carried.

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
from .values import FieldValue, Frozen, Missing, Quantity, cell_key, dec4, key_column

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


def _compare_values(op: str, left: FieldValue, right: FieldValue, field: str):
    """None where left op right holds, else its (unknown, reason) verdict."""
    if op in ("eq", "ne"):
        same = cell_key(left) == cell_key(right)
        ok = same if op == "eq" else not same
        return None if ok else (False, f"{field} {op} {right} failed for {left}")
    # ordered comparison: numbers with numbers, quantities within one unit,
    # text with text; anything else yields no fact
    if isinstance(left, Quantity) and isinstance(right, Quantity):
        if left.unit != right.unit:
            return True, f"{field}: unit {left.unit} not comparable with {right.unit}"
        lv, rv = left.amount, right.amount
    elif isinstance(left, (int, Decimal)) and isinstance(right, (int, Decimal)):
        lv, rv = left, right
    elif isinstance(left, str) and isinstance(right, str):
        lv, rv = left, right
    else:
        return True, f"{field}: {left!r} not comparable with {right!r}"
    c = 0 if lv == rv else (-1 if lv < rv else 1)
    return None if _OPS[op](c) else (False, f"{field} {op} {right} failed for {left}")


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


# All and AnyOf read the whole column of every part, so a part runs on every
# row, also on one an earlier part has settled: that changes no verdict, as
# a part is pure and total on checked rows.

def _conjoin(*verdicts):
    """All's verdict on one row: its first false part's, else its first
    unknown part's, else None."""
    pending = None
    for v in verdicts:
        if v is not None:
            if not v[0]:
                return v
            if pending is None:
                pending = v
    return pending


def _disjoin(*verdicts):
    """AnyOf's verdict on one row: None where a part holds, else its first
    unknown part's, else false with every part's reason."""
    if None in verdicts:
        return None
    for v in verdicts:
        if v[0]:
            return v
    return False, "; ".join(v[1] for v in verdicts)


def compile_pred(p: Pred, sch):
    """p as a column function: from a relation's columns (one per field of
    sch, in its order) and its row count to p's verdict on each row, None
    where p holds and otherwise (unknown, reason), so every rejected row
    carries a reason.

    Field names are resolved against sch (raising UnknownField) and InSet
    key sets are built here, once.  A cmp or in literal no cell of its
    field could match raises ExprTypeError.
    """
    if isinstance(p, Always):
        verdict = None if p.value else (False, "always false")
        return lambda cols, n: [verdict] * n
    if isinstance(p, (FieldDefined, Compare, InSet)):
        spec = schema_field(sch, p.field)
        name, at = spec.name, sch.index(spec)
        if isinstance(p, FieldDefined):
            def defined(cols, n):
                col = cols[at]
                if Missing not in set(map(type, col)):
                    return [None] * n
                return [(False, f"{name} missing: {v.reason}") if v.__class__ is Missing else None
                        for v in col]
            return defined
        if isinstance(p, Compare):
            _meets(spec, p.value, p.op not in ("eq", "ne"))
            op, want = p.op, p.value
            test = lambda v: _compare_values(op, v, want, name)

            def known(cols, n):
                return [(True, f"{name} missing: {v.reason}") if v.__class__ is Missing
                        else test(v) for v in cols[at]]
            return known
        for x in p.values:
            _meets(spec, x)
        # each literal is of the field's sem or Missing, so the key rule keys a
        # cell as a literal exactly when their cell_keys agree
        sem = spec.sem
        keys = frozenset(key_column(p.values, sem))

        def member(cols, n):
            col = cols[at]
            return [(True, f"{name} missing: {v.reason}") if v.__class__ is Missing
                    else None if k in keys else (False, f"{name} value {v} not in allowed set")
                    for v, k in zip(col, key_column(col, sem))]
        return member
    if isinstance(p, Not):
        inner = compile_pred(p.inner, sch)
        negated = (False, f"negation of: {describe(p.inner)}")
        return lambda cols, n: [negated if v is None else v if v[0] else None
                                for v in inner(cols, n)]
    if isinstance(p, (All, AnyOf)):
        if not p.parts:  # no column to combine: all of none holds, any of none fails
            return compile_pred(Always(isinstance(p, All)), sch)
        parts = [compile_pred(q, sch) for q in p.parts]
        combine = _conjoin if isinstance(p, All) else _disjoin
        return lambda cols, n: list(map(combine, *[part(cols, n) for part in parts]))
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


def _summary_number(v: MonoidElement):
    """The number a summary cell stands for: a count, or a sum, min or max
    that folded at least one value (the min or max of none is infinite).
    Any other gives the FnNotTotal fault that the expression's column
    carries in its cell (see compile_expr)."""
    if v.kind is Kind.COUNT:
        return Decimal(v.payload)
    if v.kind not in (Kind.SUM, Kind.MIN, Kind.MAX):
        return FnNotTotal(f"no numeric view of a {v.kind.value} summary")
    if not v.payload.is_finite():
        return FnNotTotal(f"the {v.kind.value} of no values is not a number")
    return v.payload


def _same(v):
    return v


# how num and arithmetic read a present value of each sem; None is the sem of
# a bare Missing literal, whose value never reaches a view
_NUMBER_VIEWS = {"integer": Decimal, "decimal": _same, "quantity": operator.attrgetter("amount"),
                 "summary": _summary_number, None: _same}


def _number_view(sem: str | None, where: str):
    if sem not in _NUMBER_VIEWS:
        raise ExprTypeError(f"{where} applied to a {sem} value")
    return _NUMBER_VIEWS[sem]


def _literal_type(v) -> tuple:
    """(sem, unit) of a literal value; a bare Missing fits any sem (None)."""
    if isinstance(v, Missing):
        return None, None
    if isinstance(v, bool):  # before int: bool is an int subtype
        raise ExprTypeError("boolean literals are not field values")
    if isinstance(v, int):
        return "integer", None
    if isinstance(v, Decimal) and v.is_finite():
        return "decimal", None
    if isinstance(v, str):
        return "text", None
    if isinstance(v, Quantity):
        return "quantity", v.unit
    raise ExprTypeError(f"literal {v!r} has no field type")


_BINOPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}

# the cells an operator passes on as they are: a Missing operand, and the
# fault of a view that failed on an earlier operand
_HOLES = frozenset({Missing, FnNotTotal})


def _viewed(view, col):
    """view over col's cells, holes passed on as they are."""
    if view is _same:
        return col
    if _HOLES.isdisjoint(map(type, col)):
        return list(map(view, col))
    return [v if v.__class__ in _HOLES else view(v) for v in col]


def compile_expr(e: Expr, sch):
    """e as (column function, sem, unit).  The function maps a relation's
    columns (one per field of sch, in its order) and its row count to e's
    column, computed a column at a time; a column leaf is that very column.
    A cell where a view fails holds its FnNotTotal, and an operator passes
    it on as it does a Missing operand, so each cell holds what e gives on
    its row alone, or the fault it meets there.

    This is the one place expressions are typed: (sem, unit) is what e
    computes over the plain schema sch, decided before any row is seen.  A
    column has its own type, a literal its value's (a bare Missing literal
    has sem None and fits any sem), num and arithmetic give decimal over
    integer, decimal, quantity or summary operands, and unit_of gives text
    over a quantity.  An unknown field raises UnknownField, any other
    ill-typed expression ExprTypeError.  Missing operands propagate, never crash.
    """
    if isinstance(e, Col):
        spec = schema_field(sch, e.name)
        at = sch.index(spec)
        return (lambda cols, n: cols[at]), spec.sem, spec.unit
    if isinstance(e, Lit):
        value = e.value
        sem, unit = _literal_type(value)
        return (lambda cols, n: [value] * n), sem, unit
    if isinstance(e, NumOf):
        inner, sem, _ = compile_expr(e.inner, sch)
        view = _number_view(sem, "num")
        return (lambda cols, n: _viewed(view, inner(cols, n))), "decimal", None
    if isinstance(e, UnitOf):
        inner, sem, _ = compile_expr(e.inner, sch)
        if sem not in ("quantity", None):
            raise ExprTypeError(f"unit_of applied to a {sem} value")
        unit = operator.attrgetter("unit")
        return (lambda cols, n: _viewed(unit, inner(cols, n))), "text", None
    if isinstance(e, BinOp):
        if e.op not in _BINOPS:
            raise ExprTypeError(f"unknown operator {e.op!r}")
        fn = _BINOPS[e.op]
        left, lsem, _ = compile_expr(e.left, sch)
        right, rsem, _ = compile_expr(e.right, sch)
        lview, rview = _number_view(lsem, e.op), _number_view(rsem, e.op)
        total = _summary_number not in (lview, rview)  # no view can fail

        def cell(lv, rv):
            # in the order a row is read: each operand's hole, then each view
            if lv.__class__ in _HOLES:
                return lv
            if rv.__class__ in _HOLES:
                return rv
            lv, rv = lview(lv), rview(rv)
            if lv.__class__ is FnNotTotal:
                return lv
            return rv if rv.__class__ is FnNotTotal else fn(lv, rv)

        def binop(cols, n):
            lcol, rcol = left(cols, n), right(cols, n)
            if total and _HOLES.isdisjoint(map(type, lcol)) and _HOLES.isdisjoint(map(type, rcol)):
                return list(map(fn, _viewed(lview, lcol), _viewed(rview, rcol)))
            return list(map(cell, lcol, rcol))
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
