"""Classical relational queries compiled onto lossless pipelines.

The query AST here covers the textbook operators plus aggregation and
row-mapping.  A query is typed once: each operator's output schema comes
from its rule in ops, this module adds only the rules that belong to
queries, and the schema of every node is recorded for the steps below.
query_document() writes a well-typed query as a pipeline document, and
translate() builds its graph as a pipeline.yaml's is built: its "result"
sink holds the classical answer while every row the classical
semantics would discard drains to labeled error sinks instead.
reference_eval() is a deliberately naive evaluator over plain dicts that
reads only its operands' recorded schemas and shares no row code with
the pipeline engine; equivalence_check() runs both and compares the
outcomes as multisets.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal

from .audit import conservation_check
from .errors import ExprTypeError, FnNotTotal, InvalidGraph, TallyError
from .exprs import (
    All,
    Always,
    AnyOf,
    BinOp,
    Col,
    Compare,
    Expr,
    FieldDefined,
    InSet,
    Lit,
    Not,
    NumOf,
    Pred,
    UnitOf,
    compile_expr,
    compile_pred,
    encode_expr,
    encode_pred,
)
from .grammar import read
from .monoid import Kind, MonoidElement, avg_of, count, max_of, min_of, set_of, sum_of
from .ops import (
    AggSpec,
    aggregate_schema,
    join_schema,
    project_schema,
    rename_schema,
    union_schema,
)
from .pipeline import PipelineGraph
from .pipeline_doc import DOCUMENT, build_graph
from .relation import (
    ERROR,
    REPORT,
    FieldSpec,
    Record,
    Relation,
    Schema,
    field_names,
    has_field,
    schema_field,
)
from .space import carries
from .values import Frozen, Missing, Quantity, cell_key


# -- query AST ----------------------------------------------------------
# of, left and right are RAExpr subtrees; pred is an exprs.Pred

class BaseRelation(Frozen):
    __slots__ = ("name",)


class Project(Frozen):
    __slots__ = ("of", "fields")

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(self.fields))


class Select(Frozen):
    __slots__ = ("of", "pred")


class Rename(Frozen):
    """mapping is a tuple of (old, new) pairs."""

    __slots__ = ("of", "mapping")

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(tuple(p) for p in self.mapping))


class CrossProduct(Frozen):
    __slots__ = ("left", "right")


class NaturalJoin(Frozen):
    __slots__ = ("left", "right")


class OuterJoin(Frozen):
    """Full outer equi-join; on is a tuple of (left field, right field)."""

    __slots__ = ("left", "right", "on")

    def __post_init__(self) -> None:
        object.__setattr__(self, "on", tuple(tuple(p) for p in self.on))


class Union(Frozen):
    __slots__ = ("left", "right")


class UnionAll(Frozen):
    __slots__ = ("left", "right")


class Minus(Frozen):
    __slots__ = ("left", "right")


class Intersect(Frozen):
    __slots__ = ("left", "right")


class Aggregate(Frozen):
    __slots__ = ("of", "group_by", "specs")

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_by", tuple(self.group_by))
        object.__setattr__(self, "specs", tuple(self.specs))


class Map(Frozen):
    """additions is a tuple of (new field name, expression) pairs."""

    __slots__ = ("of", "additions")

    def __post_init__(self) -> None:
        object.__setattr__(self, "additions", tuple(tuple(p) for p in self.additions))


RAExpr = (BaseRelation | Project | Select | Rename | CrossProduct | NaturalJoin
          | OuterJoin | Union | UnionAll | Minus | Intersect | Aggregate | Map)


def _label(e) -> str:
    return type(e).__name__


def _children(e):
    if isinstance(e, (Project, Select, Rename, Aggregate, Map)):
        return (("of", e.of),)
    if isinstance(e, (CrossProduct, NaturalJoin, OuterJoin, Union, UnionAll,
                      Minus, Intersect)):
        return (("left", e.left), ("right", e.right))
    return ()


def base_names(expr: RAExpr) -> list[str]:
    """Base relation names in leaf order, repeats kept."""
    if isinstance(expr, BaseRelation):
        return [expr.name]
    out: list[str] = []
    for _, child in _children(expr):
        out.extend(base_names(child))
    return out


# -- static typing ------------------------------------------------------

def infer_schema(expr: RAExpr, catalog: dict) -> Schema:
    """Output schema of a query, or ExprTypeError naming the failing node."""
    return _infer(expr, catalog, _label(expr), {})


def _infer(expr: RAExpr, catalog: dict, path: str, schemas: dict) -> Schema:
    """Type expr, recording id(node) -> schema in schemas for it and every subquery.

    Each operator's output schema comes from its rule in ops; only the
    rules that belong to queries are checked here.
    """
    def fail(msg: str):
        raise ExprTypeError(f"{path}: {msg}")

    def rule(fn, *args):
        try:
            return fn(*args)
        except TallyError as exc:
            fail(str(exc))

    def child(edge: str, e) -> Schema:
        return _infer(e, catalog, f"{path}/{edge}/{_label(e)}", schemas)

    if isinstance(expr, BaseRelation):
        out = catalog.get(expr.name)
        if out is None:
            fail(f"unknown base relation {expr.name!r}")

    elif isinstance(expr, Project):
        out = rule(project_schema, child("of", expr.of), expr.fields)

    elif isinstance(expr, Select):
        out = child("of", expr.of)
        rule(compile_pred, expr.pred, out)

    elif isinstance(expr, Rename):
        sch = child("of", expr.of)
        olds = [o for o, _ in expr.mapping]
        if len(set(olds)) != len(olds):
            fail(f"field renamed twice: {olds}")
        out = rule(rename_schema, sch, dict(expr.mapping))

    elif isinstance(expr, CrossProduct):
        out = rule(join_schema, child("left", expr.left), child("right", expr.right), ())

    elif isinstance(expr, NaturalJoin):
        ls = child("left", expr.left)
        rs = child("right", expr.right)
        rnames = set(field_names(rs))
        shared = [s.name for s in ls if s.name in rnames]
        if not shared:
            fail("no shared field to join on")
        out = rule(join_schema, ls, rs, [(n, n) for n in shared])

    elif isinstance(expr, OuterJoin):
        ls = child("left", expr.left)
        rs = child("right", expr.right)
        if not expr.on:
            fail("outer join needs at least one key pair")
        if len(set(expr.on)) != len(expr.on):
            fail(f"duplicate key pair in {expr.on}")
        out = rule(join_schema, ls, rs, expr.on)

    elif isinstance(expr, (Union, UnionAll, Minus, Intersect)):
        out = rule(union_schema, child("left", expr.left), child("right", expr.right))

    elif isinstance(expr, Aggregate):
        sch = child("of", expr.of)
        for spec in expr.specs:
            if not isinstance(spec, AggSpec):
                fail(f"bad aggregation spec {spec!r}")
        out = rule(aggregate_schema, sch, expr.group_by, expr.specs)

    elif isinstance(expr, Map):
        sch = child("of", expr.of)
        out = sch
        for name, e in expr.additions:
            if has_field(out, name):
                fail(f"map would overwrite field {name!r}")
            _, sem, unit = rule(compile_expr, e, sch)
            if sem is None:
                fail(f"addition {name!r} has no type: a bare missing literal")
            out += (FieldSpec(name, sem, unit),)

    else:
        fail(f"not a query node: {expr!r}")
    schemas[id(expr)] = out
    return out


# -- translation to a pipeline document -------------------------------

class _Translator:
    """Writes one query's node entries and sinks; the answer keeps its path tags.

    stage() is the one place a node entry is written.  Every build step
    builds a node's operands before stage() names the node, so stage names
    number the stages in declaration order.  schemas maps id(node) to the
    schema _infer() recorded for it, the root's included; build steps read
    their operand and output schemas there and derive none.
    """

    def __init__(self, uses: Counter, schemas: dict):
        self.schemas, self.nodes, self.sinks = schemas, [], {}
        self.base_outputs: dict[str, list[str]] = {}
        for name, k in uses.items():
            outs, cur = [], name
            for _ in range(k - 1):
                t = self.stage("tee", "tee", cur)
                outs.append(f"{t}.left")
                cur = f"{t}.right"
            self.base_outputs[name] = outs + [cur]

    def stage(self, op: str, slug: str, *feeds: str, **keys) -> str:
        """Write an op node with the document keys keys, fed from one address
        or from a left and a right; its name, slug and the stage's number."""
        name = f"{slug}_{len(self.nodes) + 1}"
        wiring = {"from": feeds[0]} if len(feeds) == 1 else {"left": feeds[0], "right": feeds[1]}
        self.nodes.append({"op": op, "name": name, **keys, **wiring})
        return name

    def drain(self, addr: str, slug: str = "", reason: str = "") -> None:
        """Sink an output as errors; a plain one is first errorized with a
        fixed reason by a stage named from slug."""
        if slug:
            addr = f"{self.stage('errorize', slug, addr, reason=reason)}.out"
        self.sinks[addr.replace(".", "_") + "_sink"] = {"kind": ERROR, "from": addr}

    def screen(self, addr: str, slug: str, pred: Pred) -> str:
        """Partition on pred; rejects drain as errors."""
        q = self.stage("partition", slug, addr, when=encode_pred(pred), rejected_to_errors=True)
        self.drain(f"{q}.rejected")
        return f"{q}.accepted"

    def merge(self, a: str, b: str, slug: str, distinct: bool = False) -> str:
        """Tagged union of two streams, deduplicated if distinct; rows keep their tags."""
        out = f"{self.stage('tagged_union', slug, a, b)}.out"
        return f"{self.stage('dedup', 'distinct', out)}.out" if distinct else out

    def derive(self, addr: str, slug: str, specs, additions: dict) -> str:
        """Add each field of specs, computed by its expression in additions."""
        m = self.stage("fmap", slug, addr, add={n: encode_expr(e) for n, e in additions.items()},
                       sems={s.name: s.sem for s in specs}, units={s.name: s.unit for s in specs})
        return f"{m}.out"

    def pad(self, addr: str, specs) -> str:
        """Add each field of specs, missing for "no match"."""
        return self.derive(addr, "pad", specs, {s.name: Lit(Missing("no match")) for s in specs})

    def build(self, expr: RAExpr) -> str:
        """Write expr's stages; the address of its correct-stream output."""
        if isinstance(expr, BaseRelation):
            return self.base_outputs[expr.name].pop(0)
        if isinstance(expr, Project):
            n = self.stage("project", "narrow", self.build(expr.of), fields=list(expr.fields))
            return f"{n}.out"
        if isinstance(expr, Select):
            return self.screen(self.build(expr.of), "select", expr.pred)
        if isinstance(expr, Rename):
            n = self.stage("rename", "relabel", self.build(expr.of), map=dict(expr.mapping))
            return f"{n}.out"
        if isinstance(expr, CrossProduct):
            l_addr, r_addr = self.build(expr.left), self.build(expr.right)
            j = self.stage("join", "pair", l_addr, r_addr, keys=[])
            self.drain(f"{j}.left_only", "alone", "no partner rows")
            self.drain(f"{j}.right_only", "alone", "no partner rows")
            return f"{j}.inner"
        if isinstance(expr, NaturalJoin):
            # a row with a missing key matches nothing, so it leaves through
            # its side's unmatched port, as in the outer join
            rnames = set(field_names(self.schemas[id(expr.right)]))
            shared = [s.name for s in self.schemas[id(expr.left)] if s.name in rnames]
            l_addr, r_addr = self.build(expr.left), self.build(expr.right)
            j = self.stage("join", "join", l_addr, r_addr, keys=[[c, c] for c in shared])
            self.drain(f"{j}.left_only", "unmatched", "no match")
            self.drain(f"{j}.right_only", "unmatched", "no match")
            return f"{j}.inner"
        if isinstance(expr, OuterJoin):
            # the inner schema is the left one, then the right fields it keeps;
            # the left fields the right operand lacks pad its unmatched rows.  A
            # row with a missing key matches nothing, so it leaves through its
            # side's unmatched port and is padded like a row with no partner
            inner = self.schemas[id(expr)]
            kept = inner[len(self.schemas[id(expr.left)]):]
            rnames = set(field_names(self.schemas[id(expr.right)]))
            rest = tuple(s for s in inner if s.name not in rnames)
            l_addr, r_addr = self.build(expr.left), self.build(expr.right)
            j = self.stage("join", "join", l_addr, r_addr, keys=[list(p) for p in expr.on])
            left = self.pad(f"{j}.left_only", kept)
            right = self.pad(f"{j}.right_only", rest)
            ro = self.stage("project", "reorder", right, fields=list(field_names(inner)))
            return self.merge(self.merge(f"{j}.inner", left, "gather"), f"{ro}.out", "gather")
        if isinstance(expr, (Union, UnionAll)):
            l_addr, r_addr = self.build(expr.left), self.build(expr.right)
            return self.merge(l_addr, r_addr, "merge", distinct=isinstance(expr, Union))
        if isinstance(expr, (Minus, Intersect)):
            names = field_names(self.schemas[id(expr.left)])
            l_addr, r_addr = self.build(expr.left), self.build(expr.right)
            da = self.stage("dedup", "distinct", l_addr)
            db = self.stage("dedup", "distinct", r_addr)
            j = self.stage("join", "member", f"{da}.out", f"{db}.out",
                           keys=[[n, n] for n in names], missing_matches=True)
            if isinstance(expr, Minus):
                self.drain(f"{j}.inner", "shared", "present in both operands")
                self.drain(f"{j}.right_only", "unmatched", "only in right operand")
                return f"{j}.left_only"
            self.drain(f"{j}.left_only", "unmatched", "only in left operand")
            self.drain(f"{j}.right_only", "unmatched", "only in right operand")
            return f"{j}.inner"
        if isinstance(expr, Aggregate):
            keys = dict.fromkeys(tuple(expr.group_by) + tuple(s.field for s in expr.specs))
            q = self.screen(self.build(expr.of), "require",
                            All(tuple(FieldDefined(k) for k in keys)))
            a = self.stage("aggregate", "summarize", q, by=list(expr.group_by),
                           specs=[{"field": s.field, "op": s.op} for s in expr.specs])
            return f"{a}.out"
        if isinstance(expr, Map):
            added = self.schemas[id(expr)][len(self.schemas[id(expr.of)]):]
            return self.derive(self.build(expr.of), "derive", added, dict(expr.additions))
        raise ExprTypeError(f"not a query node: {expr!r}")


def _typed(expr: RAExpr, catalog: dict, schemas: dict | None) -> dict:
    """The schema record of expr (see _infer): schemas if given, else a new one."""
    if schemas is None:
        schemas = {}
        _infer(expr, catalog, _label(expr), schemas)
    return schemas


def query_document(expr: RAExpr, catalog: dict, schemas: dict | None = None) -> dict:
    """The pipeline document of a well-typed query, the plain dict that a
    pipeline.yaml parses into; each base relation is a source read from
    its name.csv.  The classical answer lands in the "result" report sink;
    everything the classical semantics would drop drains to error sinks,
    so the run's conservation checks cover the whole input.  schemas, if
    given, is the record _infer() made of expr over catalog.
    """
    schemas = _typed(expr, catalog, schemas)
    uses = Counter(base_names(expr))
    tr = _Translator(uses, schemas)
    tr.sinks["result"] = {"kind": REPORT, "from": tr.build(expr)}
    # one spec per (scheme, field) that some used table carries
    names = dict.fromkeys(s.name for name in uses for s in catalog[name])
    conservation = [{"scheme": "count"}] + [
        {"scheme": scheme, "field": f} for scheme in ("sum_by_unit", "paccioli") for f in names
        if any(carries(catalog[name], scheme, f) for name in uses)]
    return {"name": "query", "sources": {name: {"file": f"{name}.csv"} for name in uses},
            "nodes": tr.nodes, "sinks": tr.sinks, "conservation": conservation}


def translate(expr: RAExpr, catalog: dict, schemas: dict | None = None) -> PipelineGraph:
    """Compile a well-typed query into a runnable pipeline graph, built from
    query_document() as every pipeline.yaml is built: read, then build_graph.
    A literal the document cannot hold, or a document the grammar refuses,
    raises ExprTypeError."""
    try:
        doc = read(DOCUMENT, query_document(expr, catalog, schemas), "query")
    except ValueError as exc:
        raise ExprTypeError(str(exc)) from None
    return build_graph(doc, catalog)


# -- naive reference evaluator ------------------------------------------

def _o_cmp(op: str, left, right):
    """True/False, or None when the pair supports no ordered fact."""
    if op in ("eq", "ne"):
        same = cell_key(left) == cell_key(right)
        return same if op == "eq" else not same
    if isinstance(left, Quantity) and isinstance(right, Quantity):
        if left.unit != right.unit:
            return None
        a, b = left.amount, right.amount
    elif isinstance(left, (int, Decimal)) and isinstance(right, (int, Decimal)):
        a, b = left, right
    elif isinstance(left, str) and isinstance(right, str):
        a, b = left, right
    else:
        return None
    return {"lt": a < b, "le": a <= b, "gt": a > b, "ge": a >= b}[op]


def _o_pred(p: Pred, row: dict):
    """Three-valued: True, False, or None for no-fact."""
    if isinstance(p, Always):
        return p.value
    if isinstance(p, FieldDefined):
        return not isinstance(row[p.field], Missing)
    if isinstance(p, Compare):
        v = row[p.field]
        if isinstance(v, Missing):
            return None
        return _o_cmp(p.op, v, p.value)
    if isinstance(p, InSet):
        v = row[p.field]
        if isinstance(v, Missing):
            return None
        return cell_key(v) in {cell_key(x) for x in p.values}
    if isinstance(p, Not):
        t = _o_pred(p.inner, row)
        return None if t is None else not t
    if isinstance(p, All):
        parts = [_o_pred(q, row) for q in p.parts]
        if False in parts:
            return False
        return None if None in parts else True
    if isinstance(p, AnyOf):
        parts = [_o_pred(q, row) for q in p.parts]
        if True in parts:
            return True
        return None if None in parts else False
    raise TypeError(f"not a predicate: {p!r}")


def _o_num(v) -> Decimal:
    if isinstance(v, Decimal):
        return v
    if isinstance(v, int):
        return Decimal(v)
    if isinstance(v, Quantity):
        return v.amount
    if isinstance(v, MonoidElement):
        if v.kind is Kind.COUNT:
            return Decimal(v.payload)
        if v.kind in (Kind.SUM, Kind.MIN, Kind.MAX) and v.payload.is_finite():
            return v.payload
    raise FnNotTotal(f"no numeric view of {v!r}")


def _o_expr(e: Expr, row: dict):
    if isinstance(e, Col):
        return row[e.name]
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, NumOf):
        v = _o_expr(e.inner, row)
        return v if isinstance(v, Missing) else _o_num(v)
    if isinstance(e, UnitOf):
        v = _o_expr(e.inner, row)
        return v if isinstance(v, Missing) else v.unit
    if isinstance(e, BinOp):
        a = _o_expr(e.left, row)
        if isinstance(a, Missing):
            return a
        b = _o_expr(e.right, row)
        if isinstance(b, Missing):
            return b
        x, y = _o_num(a), _o_num(b)
        return {"add": x + y, "sub": x - y, "mul": x * y}[e.op]
    raise TypeError(f"not a row expression: {e!r}")


def row_key(fields: dict) -> tuple:
    """Order-free canonical identity of one row's field values."""
    names = sorted(fields)
    return tuple(names), tuple(map(cell_key, map(fields.__getitem__, names)))


def _distinct(rows: list) -> dict:
    """row_key -> the first row with that key, in first-seen order."""
    out: dict = {}
    for r in rows:
        out.setdefault(row_key(r), r)
    return out


def _join_keys(rows: list, fields) -> list:
    """Each row's keys of fields, or None where one of them is Missing."""
    out = []
    for r in rows:
        cells = [r[f] for f in fields]
        out.append(None if any(isinstance(v, Missing) for v in cells)
                   else tuple([cell_key(v) for v in cells]))
    return out


def _r_eval(expr: RAExpr, inputs: dict, schemas: dict) -> list:
    if isinstance(expr, BaseRelation):
        return [dict(rec.fields) for rec in inputs[expr.name].rows]

    if isinstance(expr, Project):
        sub = _r_eval(expr.of, inputs, schemas)
        return [{n: r[n] for n in expr.fields} for r in sub]

    if isinstance(expr, Select):
        sub = _r_eval(expr.of, inputs, schemas)
        return [r for r in sub if _o_pred(expr.pred, r) is True]

    if isinstance(expr, Rename):
        sub = _r_eval(expr.of, inputs, schemas)
        m = dict(expr.mapping)
        return [{m.get(n, n): v for n, v in r.items()} for r in sub]

    if isinstance(expr, CrossProduct):
        xs = _r_eval(expr.left, inputs, schemas)
        ys = _r_eval(expr.right, inputs, schemas)
        return [{**x, **y} for x in xs for y in ys]

    if isinstance(expr, NaturalJoin):
        ls, rs = schemas[id(expr.left)], schemas[id(expr.right)]
        rnames = set(field_names(rs))
        shared = [s.name for s in ls if s.name in rnames]
        rest = [s.name for s in rs if s.name not in shared]
        xs = _r_eval(expr.left, inputs, schemas)
        ys = _r_eval(expr.right, inputs, schemas)
        y_keys = _join_keys(ys, shared)
        out = []
        for x, kx in zip(xs, _join_keys(xs, shared)):
            for y, ky in zip(ys, y_keys):
                if kx is not None and kx == ky:
                    row = dict(x)
                    row.update({n: y[n] for n in rest})
                    out.append(row)
        return out

    if isinstance(expr, OuterJoin):
        ls, rs = schemas[id(expr.left)], schemas[id(expr.right)]
        on = tuple(expr.on)
        merged = {rf for lf, rf in on if lf == rf}
        kept = [s.name for s in rs if s.name not in merged]
        xs = _r_eval(expr.left, inputs, schemas)
        ys = _r_eval(expr.right, inputs, schemas)
        x_keys = _join_keys(xs, [lf for lf, _ in on])
        y_keys = _join_keys(ys, [rf for _, rf in on])

        out = []
        x_hit = [False] * len(xs)
        y_hit = [False] * len(ys)
        for i, x in enumerate(xs):
            kx = x_keys[i]
            for jj, y in enumerate(ys):
                if kx is not None and kx == y_keys[jj]:
                    x_hit[i] = y_hit[jj] = True
                    row = dict(x)
                    row.update({n: y[n] for n in kept})
                    out.append(row)
        for i, x in enumerate(xs):
            if not x_hit[i]:
                row = dict(x)
                row.update({n: Missing("no match") for n in kept})
                out.append(row)
        for jj, y in enumerate(ys):
            if not y_hit[jj]:
                row = {s.name: (y[s.name] if s.name in merged
                                else Missing("no match")) for s in ls}
                row.update({n: y[n] for n in kept})
                out.append(row)
        return out

    if isinstance(expr, Union):
        xs = _r_eval(expr.left, inputs, schemas)
        ys = _r_eval(expr.right, inputs, schemas)
        return list(_distinct(xs + ys).values())

    if isinstance(expr, UnionAll):
        return (_r_eval(expr.left, inputs, schemas)
                + _r_eval(expr.right, inputs, schemas))

    if isinstance(expr, (Minus, Intersect)):
        xs = _r_eval(expr.left, inputs, schemas)
        ys = _r_eval(expr.right, inputs, schemas)
        there = {row_key(y) for y in ys}
        if isinstance(expr, Minus):
            return [x for k, x in _distinct(xs).items() if k not in there]
        return [x for k, x in _distinct(xs).items() if k in there]

    if isinstance(expr, Aggregate):
        return _r_eval_aggregate(expr, inputs, schemas)

    if isinstance(expr, Map):
        sub = _r_eval(expr.of, inputs, schemas)
        out = []
        for r in sub:
            row = dict(r)
            for name, e in expr.additions:
                row[name] = _o_expr(e, r)
            out.append(row)
        return out

    raise TypeError(f"not a query node: {expr!r}")


def _r_eval_aggregate(expr: Aggregate, inputs: dict, schemas: dict) -> list:
    sch = schemas[id(expr.of)]
    keys = tuple(expr.group_by)
    referenced = list(dict.fromkeys(keys + tuple(s.field for s in expr.specs)))
    rows = [r for r in _r_eval(expr.of, inputs, schemas)
            if not any(isinstance(r[f], Missing) for f in referenced)]
    qty_fields = []
    for spec in expr.specs:
        if schema_field(sch, spec.field).sem == "quantity" and spec.field not in qty_fields:
            qty_fields.append(spec.field)

    groups: dict = {}
    order = []
    for r in rows:
        gvals = {n: r[n] for n in keys}
        for f in qty_fields:
            gvals[f"{f}_unit"] = r[f].unit
        gk = tuple(cell_key(v) for v in gvals.values())
        if gk not in groups:
            groups[gk] = (gvals, [])
            order.append(gk)
        groups[gk][1].append(r)

    out = []
    for gk in order:
        gvals, members = groups[gk]
        row = dict(gvals)
        for spec in expr.specs:
            fspec = schema_field(sch, spec.field)
            unit = (gvals[f"{spec.field}_unit"] if fspec.sem == "quantity"
                    else fspec.unit)
            values = [m[spec.field] for m in members]
            row[f"{spec.field}_{spec.op}"] = _o_agg_cell(spec.op, values, unit)
        row["count"] = count(len(members))
        out.append(row)
    return out


def _o_agg_cell(op: str, values: list, unit) -> MonoidElement:
    if op == "set":
        return set_of(values)
    nums = [_o_num(v) for v in values]
    if op == "sum":
        return sum_of(sum(nums, Decimal(0)), unit)
    if op == "min":
        return min_of(min(nums), unit)
    if op == "max":
        return max_of(max(nums), unit)
    return avg_of(sum(nums, Decimal(0)), len(nums), unit)


def reference_eval(expr: RAExpr, inputs: dict, schemas: dict | None = None) -> Relation:
    """Evaluate by direct enumeration over plain dicts.

    Shares with the pipeline engine only the value vocabulary and the
    query's schemas, typed once (schemas, as for translate); it builds
    every row with its own code, none of the engine's operators, so the
    two can check each other.
    """
    schemas = _typed(expr, {name: rel.schema for name, rel in inputs.items()}, schemas)
    rows = _r_eval(expr, inputs, schemas)  # dicts built here, none shared
    return Relation(schemas[id(expr)], tuple(Record((i,), r) for i, r in enumerate(rows, 1)))


# -- equivalence verdicts -----------------------------------------------

class Verdict(Frozen):
    __slots__ = ("ok", "detail", "expected_rows", "got_rows", "conservation_ok")


def _show_row(fields: dict) -> str:
    return ", ".join(f"{n}={v}" for n, v in fields.items())


def equivalence_check(expr: RAExpr, inputs: dict, graph: PipelineGraph | None = None) -> Verdict:
    """Run the naive evaluator and the compiled pipeline; compare multisets.

    The query is typed once, and both sides read that schema record.
    graph overrides the compiled pipeline, which negative-control tests
    use to prove the checker can see a divergence.
    """
    catalog = {name: rel.schema for name, rel in inputs.items()}
    try:
        schemas = _typed(expr, catalog, None)
        expected = reference_eval(expr, inputs, schemas)
        g = graph if graph is not None else translate(expr, catalog, schemas)
        result = g.run({n: inputs[n] for n in g.sources})
    except InvalidGraph as exc:
        head = "; ".join(f"{v.kind}@{v.where}" for v in exc.violations[:3])
        return Verdict(False, f"graph does not validate: {head}",
                       len(expected.rows), 0, False)
    except TallyError as exc:
        return Verdict(False, f"{type(exc).__name__}: {exc}", 0, 0, False)

    got = result.sinks["result"]
    want = Counter(row_key(rec.fields) for rec in expected.rows)
    have = Counter(row_key(rec.fields) for rec in got.rows)
    cons = conservation_check(result.audit)

    if want != have:
        # a key whose counts differ is held by an expected row, or else by a
        # produced row, and then it was expected 0x
        rec = next(r for r in expected.rows + got.rows
                   if want[row_key(r.fields)] != have[row_key(r.fields)])
        k = row_key(rec.fields)
        detail = (f"row expected {want[k]}x but produced {have[k]}x" if want[k]
                  else f"row produced {have[k]}x but expected 0x")
        detail += f": {_show_row(rec.fields)}"
        return Verdict(False, detail, len(expected.rows), len(got.rows), cons.ok)

    if not cons.ok:
        first = next(c for c in cons.checks if not c.ok)
        return Verdict(False, f"conservation: {first.name}: {first.detail}",
                       len(expected.rows), len(got.rows), False)
    return Verdict(True, "", len(expected.rows), len(got.rows), True)
