"""Operations over relations.

Every operation here is total over its precondition and loses nothing:
rows are routed, tagged, merged or enriched, never silently dropped.
Operations that can reject rows return the rejects as first-class output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal

from .errors import (
    CollisionAfterRename,
    ForbiddenFieldWrite,
    JoinColumnMissing,
    SchemaMismatch,
    UnknownField,
    UnknownGroup,
    UntagMissing,
)
from .exprs import Pred, Truth, describe, eval_expr, eval_pred
from .monoid import Kind, MonoidElement, count, fuse_all, set_of, unit_for
from .relation import (
    ERROR_REASON,
    ERROR_STAGE,
    FieldSpec,
    IrrelevantPart,
    PathTag,
    Record,
    Relation,
    Schema,
    SumSchema,
    check_cell,
    error_schema,
    field_names,
    has_field,
    record_key,
    schema,
    schema_field,
)
from .values import Missing, Quantity, cell_key


def _plain_schema(rel: Relation, op: str) -> Schema:
    if isinstance(rel.schema, SumSchema):
        raise SchemaMismatch(f"{op} requires a plain (untagged-sum) schema")
    return rel.schema


# -- partitioning -------------------------------------------------------

def partition_detailed(rel: Relation, pred: Pred):
    """Split by a three-valued predicate.

    Returns (accepted, rejected, reasons) where reasons aligns with the
    rejected rows; unknown outcomes reject with the missing-value reason.
    """
    sch = rel.schema
    acc, rej, reasons = [], [], []
    for rec in rel.rows:
        t: Truth = eval_pred(pred, rec.value)
        if t.state == "t":
            acc.append(rec)
        else:
            rej.append(rec)
            reasons.append(t.reason or f"not satisfied: {describe(pred)}")
    return Relation(sch, tuple(acc)), Relation(sch, tuple(rej)), tuple(reasons)


def as_errors(rel: Relation, stage: str, reasons) -> Relation:
    """Reshape rows onto the error rail, stamping stage and reason columns."""
    base = _plain_schema(rel, "as_errors")
    if isinstance(reasons, str):
        reasons = [reasons] * len(rel.rows)
    if len(reasons) != len(rel.rows):
        raise ValueError("reasons must align with rows")
    out = []
    for rec, reason in zip(rel.rows, reasons):
        fields = dict(rec.fields)
        fields[ERROR_STAGE] = stage
        fields[ERROR_REASON] = reason
        out.append(replace(rec, fields=fields))
    return Relation(error_schema(base), tuple(out))


# -- tagged unions ------------------------------------------------------

def tagged_union(r1: Relation, r2: Relation, label: str = "union") -> Relation:
    """Concatenate two relations, tagging rows with the side they came from.

    Like schemas yield a plain schema; unlike schemas yield a sum of the
    two, and untag() is the exact inverse either way.
    """
    tag_l, tag_r = PathTag("inl", label), PathTag("inr", label)
    rows = [replace(rec, tags=rec.tags + (tag_l,)) for rec in r1.rows]
    rows += [replace(rec, tags=rec.tags + (tag_r,)) for rec in r2.rows]
    out_schema = r1.schema if r1.schema == r2.schema else SumSchema(r1.schema, r2.schema)
    return Relation(out_schema, tuple(rows))


def untag(rel: Relation):
    """Undo a tagged union exactly: split by the outermost tag and pop it."""
    if isinstance(rel.schema, SumSchema):
        sch_l, sch_r = rel.schema.left, rel.schema.right
    else:
        sch_l = sch_r = rel.schema
    left, right = [], []
    for rec in rel.rows:
        if not rec.tags:
            raise UntagMissing("record has no tag to pop")
        tag = rec.tags[-1]
        popped = replace(rec, tags=rec.tags[:-1])
        (left if tag.side == "inl" else right).append(popped)
    return Relation(sch_l, tuple(left)), Relation(sch_r, tuple(right))


def strip_tags(rel: Relation) -> Relation:
    """Pop the outermost tag from every row, keeping them in one relation."""
    if isinstance(rel.schema, SumSchema):
        if rel.schema.left != rel.schema.right:
            raise SchemaMismatch("cannot strip tags across unlike branch schemas")
        sch = rel.schema.left
    else:
        sch = rel.schema
    rows = []
    for rec in rel.rows:
        if not rec.tags:
            raise UntagMissing("record has no tag to pop")
        rows.append(replace(rec, tags=rec.tags[:-1]))
    return Relation(sch, tuple(rows))


# -- projection, rename, dedup -----------------------------------------

def lossless_project(rel: Relation, fields) -> Relation:
    """Narrow the relevant fields; the complement rides along as payload.

    Nothing is deleted: sliced-off fields move into each record's
    irrelevant parts, still keyed by the record's pids.
    """
    sch = _plain_schema(rel, "lossless_project")
    keep = tuple(fields)
    for n in keep:
        schema_field(sch, n)  # raises UnknownField
    if len(set(keep)) != len(keep):
        raise SchemaMismatch(f"duplicate fields in projection: {keep}")
    drop = tuple(n for n in field_names(sch) if n not in keep)
    new_schema = schema(*(schema_field(sch, n) for n in keep))
    rows = []
    for rec in rel.rows:
        kept = {n: rec.fields[n] for n in keep}
        irr = rec.irrelevant
        if drop:
            sliced = {n: rec.fields[n] for n in drop}
            irr = irr + (IrrelevantPart(rec.pids, sliced),)
        rows.append(replace(rec, fields=kept, irrelevant=irr))
    return Relation(new_schema, tuple(rows))


def rename(rel: Relation, mapping: dict) -> Relation:
    """Rename fields; partial maps allowed, collisions refused."""
    sch = _plain_schema(rel, "rename")
    names = field_names(sch)
    for src in mapping:
        if src not in names:
            raise UnknownField(f"cannot rename unknown field {src!r}")
    new_names = [mapping.get(n, n) for n in names]
    if len(set(new_names)) != len(new_names):
        raise CollisionAfterRename(f"rename would collide: {new_names}")
    new_schema = schema(*(
        FieldSpec(mapping.get(s.name, s.name), s.sem, s.unit) for s in sch))
    rows = []
    for rec in rel.rows:
        fields = {mapping.get(n, n): v for n, v in rec.fields.items()}
        rows.append(replace(rec, fields=fields))
    return Relation(new_schema, tuple(rows))


def dedup(rel: Relation) -> Relation:
    """Merge rows whose relevant fields coincide.

    The survivor keeps the first row's values and tags, the union of the
    pids, and every irrelevant payload, so the relation's (field, value,
    pid) content is unchanged; only row multiplicity collapses.
    """
    sch = _plain_schema(rel, "dedup")
    names = field_names(sch)
    groups: dict = {}
    order = []
    for rec in rel.rows:
        key = record_key(rec, names)
        if key not in groups:
            groups[key] = [rec]
            order.append(key)
        else:
            groups[key].append(rec)
    rows = []
    for key in order:
        members = groups[key]
        first = members[0]
        if len(members) == 1:
            rows.append(first)
            continue
        pids = frozenset().union(*(m.pids for m in members))
        irr = tuple(p for m in members for p in m.irrelevant)
        rows.append(replace(first, pids=pids, irrelevant=irr))
    return Relation(sch, tuple(rows))


# -- joins --------------------------------------------------------------

def outer_join(r1: Relation, r2: Relation, on, missing_matches: bool = False):
    """Equi-join with nothing dropped: returns (inner, left_only, right_only).

    on is a sequence of (left_field, right_field) pairs; an empty sequence
    makes this the cross product, still with the safety ports.  A Missing
    join key never matches anything unless missing_matches is set, which
    set-membership operations use to treat all Missing cells as one value.
    Same-named join pairs keep a single copy of the column; other name
    collisions are refused.
    """
    sch1 = _plain_schema(r1, "outer_join")
    sch2 = _plain_schema(r2, "outer_join")
    pairs = [(lf, rf) for lf, rf in on]
    for lf, rf in pairs:
        if not has_field(sch1, lf):
            raise JoinColumnMissing(f"left operand lacks join column {lf!r}")
        if not has_field(sch2, rf):
            raise JoinColumnMissing(f"right operand lacks join column {rf!r}")
    merged_right = [rf for lf, rf in pairs if lf == rf]
    kept_right = tuple(s for s in sch2 if s.name not in merged_right)
    clash = set(field_names(sch1)) & {s.name for s in kept_right}
    if clash:
        raise SchemaMismatch(f"non-join name collision: {sorted(clash)}")
    inner_schema = schema(*(sch1 + kept_right))

    def key_of(rec: Record, cols) -> tuple | None:
        out = []
        for c in cols:
            v = rec.fields[c]
            if isinstance(v, Missing) and not missing_matches:
                return None
            out.append(cell_key(v))
        return tuple(out)

    right_cols = [rf for _, rf in pairs]
    left_cols = [lf for lf, _ in pairs]
    index: dict = {}
    for j, rec in enumerate(r2.rows):
        k = key_of(rec, right_cols)
        if k is not None:
            index.setdefault(k, []).append(j)

    inner_rows = []
    left_rows = []
    right_matched = [False] * len(r2.rows)
    for x in r1.rows:
        k = key_of(x, left_cols)
        hits = index.get(k, []) if k is not None else []
        if not hits:
            left_rows.append(x)
            continue
        for j in hits:
            right_matched[j] = True
            y = r2.rows[j]
            fields = dict(x.fields)
            for s in kept_right:
                fields[s.name] = y.fields[s.name]
            inner_rows.append(Record(
                pids=x.pids | y.pids,
                fields=fields,
                irrelevant=x.irrelevant + y.irrelevant,
                tags=x.tags + y.tags,
            ))
    right_rows = tuple(rec for j, rec in enumerate(r2.rows) if not right_matched[j])
    return (
        Relation(inner_schema, tuple(inner_rows)),
        Relation(sch1, tuple(left_rows)),
        Relation(sch2, right_rows),
    )


# -- enrichment ---------------------------------------------------------

def fmap(rel: Relation, additions: dict, sems: dict,
         units: dict | None = None) -> Relation:
    """Enrich every row with computed fields; existing fields stay untouchable.

    Each computed cell is checked against the sem that sems declares for it.
    """
    sch = _plain_schema(rel, "fmap")
    for name in additions:
        if has_field(sch, name):
            raise ForbiddenFieldWrite(f"fmap may only add fields, {name!r} exists")
    new_specs = tuple(FieldSpec(name, sems[name], (units or {}).get(name))
                      for name in additions)
    new_schema = schema(*(sch + new_specs))
    rows = []
    for rec in rel.rows:
        fields = dict(rec.fields)
        for spec, expr in zip(new_specs, additions.values()):
            v = eval_expr(expr, rec.value)
            check_cell(spec, v)
            fields[spec.name] = v
        rows.append(replace(rec, fields=fields))
    return Relation(new_schema, tuple(rows))


# -- aggregation --------------------------------------------------------

# the only map from aggregation op names to summary kinds
_AGG_KINDS = {"sum": Kind.SUM, "min": Kind.MIN, "max": Kind.MAX, "avg": Kind.AVG,
              "set": Kind.SET}
AGG_OPS = tuple(_AGG_KINDS)

_NUMERIC_SEMS = ("integer", "decimal", "quantity")


@dataclass(frozen=True)
class AggSpec:
    """One aggregation: which field, which monoid."""

    field: str
    op: str

    def __post_init__(self) -> None:
        if self.op not in AGG_OPS:
            raise ValueError(f"unknown aggregation op {self.op!r}")


def _agg_cell(op: str, values, unit: str | None) -> MonoidElement:
    """Fold one group's non-missing values for one spec."""
    present = [v for v in values if not isinstance(v, Missing)]
    kind = _AGG_KINDS[op]
    if kind is Kind.SET:
        return set_of(present)
    nums = (v.amount if isinstance(v, Quantity) else Decimal(v) for v in present)
    if kind is Kind.AVG:
        nums = ((n, 1) for n in nums)
    return fuse_all((MonoidElement(kind, n, unit) for n in nums), unit_for(kind, unit))


def _agg_plan(sch: Schema, group_by, specs):
    """Validate an aggregation and compute its output schema."""
    keys = tuple(group_by)
    specs = tuple(specs)
    for n in keys:
        schema_field(sch, n)
    qty_fields = []
    for spec in specs:
        fspec = schema_field(sch, spec.field)
        if spec.op == "set":
            if fspec.sem not in ("integer", "text"):
                raise SchemaMismatch(f"set aggregation needs an id-like field, got {fspec.sem}")
        elif fspec.sem not in _NUMERIC_SEMS:
            raise SchemaMismatch(f"{spec.op} aggregation needs a numeric field, got {fspec.sem}")
        if fspec.sem == "quantity" and spec.field not in qty_fields:
            qty_fields.append(spec.field)

    out_specs = [schema_field(sch, n) for n in keys]
    for f in qty_fields:
        uname = f"{f}_unit"
        if any(s.name == uname for s in out_specs) or uname in keys:
            raise SchemaMismatch(f"unit key column {uname!r} collides")
        out_specs.append(FieldSpec(uname, "text"))
    for spec in specs:
        cname = f"{spec.field}_{spec.op}"
        if any(s.name == cname for s in out_specs) or has_field(sch, cname):
            raise SchemaMismatch(f"summary column {cname!r} collides")
        fspec = schema_field(sch, spec.field)
        out_specs.append(FieldSpec(cname, "summary", fspec.unit))
    if any(s.name == "count" for s in out_specs) or has_field(sch, "count"):
        raise SchemaMismatch("a column named 'count' collides with the mandatory count")
    out_specs.append(FieldSpec("count", "summary"))
    return schema(*out_specs), tuple(qty_fields)


def aggregate_schema(sch: Schema, group_by, specs) -> Schema:
    """Output schema of aggregate() without running it (for static typing)."""
    return _agg_plan(sch, group_by, specs)[0]


def aggregate(rel: Relation, group_by, specs) -> Relation:
    """Group and summarize without forgetting anyone.

    Output rows keep the union of their members' pids and irrelevant
    payloads; a count column is always present.  Specs over quantity
    fields subdivide each group by that field's unit label (an extra
    `<field>_unit` key column appears), so unlike units never mix.
    Missing cells contribute nothing to a summary but still count as rows.
    """
    sch = _plain_schema(rel, "aggregate")
    keys = tuple(group_by)
    specs = tuple(specs)
    out_schema, qty_fields = _agg_plan(sch, keys, specs)

    def unit_label(rec: Record, f: str):
        v = rec.fields[f]
        if isinstance(v, Quantity):
            return v.unit
        return Missing("empty")

    groups: dict = {}
    order = []
    for rec in rel.rows:
        gvals = {n: rec.fields[n] for n in keys}
        for f in qty_fields:
            gvals[f"{f}_unit"] = unit_label(rec, f)
        gkey = tuple(cell_key(gvals[n]) for n in gvals)
        if gkey not in groups:
            groups[gkey] = (gvals, [])
            order.append(gkey)
        groups[gkey][1].append(rec)

    rows = []
    for gkey in order:
        gvals, members = groups[gkey]
        fields = dict(gvals)
        for spec in specs:
            fspec = schema_field(sch, spec.field)
            unit = None
            if fspec.sem == "quantity":
                ul = fields[f"{spec.field}_unit"]
                unit = ul if isinstance(ul, str) else None
            elif fspec.unit:
                unit = fspec.unit
            values = [m.fields[spec.field] for m in members]
            fields[f"{spec.field}_{spec.op}"] = _agg_cell(spec.op, values, unit)
        fields["count"] = count(len(members))
        pids = frozenset().union(*(m.pids for m in members))
        irr = tuple(p for m in members for p in m.irrelevant)
        rows.append(Record(pids=pids, fields=fields, irrelevant=irr))
    return Relation(out_schema, tuple(rows))


def drill_down(summary: Relation, key: dict) -> frozenset:
    """Recover the pids behind the summary rows matching the given key cells."""
    hits: set[int] = set()
    found = False
    want = {n: cell_key(v) for n, v in key.items()}
    for rec in summary.rows:
        if all(cell_key(rec.value(n)) == k for n, k in want.items()):
            found = True
            hits |= rec.pids
    if not found:
        raise UnknownGroup(f"no summary group matches {key!r}")
    return frozenset(hits)
