"""Operations over relations.

Every operation here is total over its precondition and loses nothing:
rows are routed, tagged, merged or enriched, never silently dropped.
Operations that can reject rows return the rejects as first-class output.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import chain, repeat
from operator import attrgetter, itemgetter

from .errors import (
    CollisionAfterRename,
    FnNotTotal,
    ForbiddenFieldWrite,
    JoinColumnMissing,
    SchemaMismatch,
    UnknownField,
    UntagMissing,
)
from .exprs import Pred, compile_expr, compile_pred
from .monoid import UNITS, Kind, MonoidElement, count, fold_payloads, set_of
from .relation import (
    ERROR_REASON,
    ERROR_STAGE,
    FieldSpec,
    IrrelevantPart,
    PathTag,
    Record,
    Relation,
    Schema,
    error_schema,
    field_names,
    has_field,
    schema,
    schema_field,
)
from .values import Frozen, Missing, Quantity, cell_key


# -- partitioning -------------------------------------------------------

def partition_detailed(rel: Relation, pred: Pred):
    """Split by a three-valued predicate, read off its verdict column.

    Returns (accepted, rejected, reasons) where reasons aligns with the
    rejected rows; a false or unknown verdict rejects with its reason.
    """
    sch = rel.schema
    verdicts = compile_pred(pred, sch)([rec.fields for rec in rel.rows])
    acc, rej, reasons = [], [], []
    for rec, v in zip(rel.rows, verdicts):
        if v is None:
            acc.append(rec)
        else:
            rej.append(rec)
            reasons.append(v[1])
    return Relation(sch, tuple(acc)), Relation(sch, tuple(rej)), tuple(reasons)


def as_errors(rel: Relation, stage: str, reasons) -> Relation:
    """Reshape rows onto the error rail, stamping stage and reason columns."""
    if isinstance(reasons, str):
        reasons = repeat(reasons)
    elif len(reasons) != len(rel.rows):
        raise ValueError("reasons must align with rows")
    out = tuple(Record(rec.pids, {**rec.fields, ERROR_STAGE: stage, ERROR_REASON: reason},
                       rec.irrelevant, rec.tags) for rec, reason in zip(rel.rows, reasons))
    return Relation(error_schema(rel.schema), out)


# -- tagged unions ------------------------------------------------------

def _show_schema(sch: Schema) -> str:
    return "(" + ", ".join(f"{s.name} {s.sem}" + (f" in {s.unit}" if s.unit else "")
                           for s in sch) + ")"


def union_schema(sch1: Schema, sch2: Schema) -> Schema:
    """Output schema of tagged_union(): the one schema both sides share."""
    if sch1 != sch2:
        raise SchemaMismatch(f"the two sides need one schema, but the left is "
                             f"{_show_schema(sch1)} and the right is {_show_schema(sch2)}")
    return sch1


def tagged_union(r1: Relation, r2: Relation) -> Relation:
    """Concatenate two relations of one schema, tagging rows with their side.

    A tag records only the side; untag() reads it and is the exact inverse,
    and strip_tags() drops it.
    """
    sch = union_schema(r1.schema, r2.schema)
    tag_l, tag_r = PathTag("inl"), PathTag("inr")
    rows = [Record(rec.pids, rec.fields, rec.irrelevant, rec.tags + (tag,))
            for rel, tag in ((r1, tag_l), (r2, tag_r)) for rec in rel.rows]
    return Relation(sch, tuple(rows))


def _popped(rel: Relation):
    """(side, row without its outermost tag) for each of rel's rows."""
    for rec in rel.rows:
        if not rec.tags:
            raise UntagMissing("record has no tag to pop")
        yield rec.tags[-1].side, Record(rec.pids, rec.fields, rec.irrelevant, rec.tags[:-1])


def untag(rel: Relation):
    """Undo a tagged union exactly: split by the outermost tag and pop it."""
    left, right = [], []
    for side, rec in _popped(rel):
        (left if side == "inl" else right).append(rec)
    return Relation(rel.schema, tuple(left)), Relation(rel.schema, tuple(right))


def strip_tags(rel: Relation) -> Relation:
    """Pop the outermost tag from every row, keeping them in one relation."""
    return Relation(rel.schema, tuple(rec for _, rec in _popped(rel)))


# -- row keys -------------------------------------------------------------

# the key every Missing cell shares, cell_key's; no present cell keys as a tuple
_MISSING_KEY = ("missing",)


def _key_column(col: list, sem: str, missing=_MISSING_KEY) -> list:
    """Each cell's key for grouping and joining, a column at a time.  A text,
    integer, decimal or quantity cell keys as itself: within one sem its ==
    and hash agree with cell_key's (4 and 4.0000 are one decimal, a quantity
    compares amount and unit).  Every Missing cell keys as missing, and a
    summary cell by cell_key."""
    if sem == "summary":
        return [missing if v.__class__ is Missing else cell_key(v) for v in col]
    if Missing not in set(map(type, col)):
        return col
    return [missing if v.__class__ is Missing else v for v in col]


def _row_keys(n: int, cols: list, sems, missing=_MISSING_KEY):
    """Each of n rows' key over the columns cols of sems sems: the tuple of
    its cells' keys, one _key_column pass per column."""
    if not cols:
        return repeat((), n)
    return zip(*map(_key_column, cols, sems, repeat(missing)))


def _field_keys(rel: Relation, names, missing=_MISSING_KEY):
    """Each of rel's rows' key over the named fields."""
    fields = [rec.fields for rec in rel.rows]
    cols = [list(map(itemgetter(n), fields)) for n in names]
    sems = [schema_field(rel.schema, n).sem for n in names]
    return _row_keys(len(fields), cols, sems, missing)


# -- projection, rename, dedup -----------------------------------------

def project_schema(sch: Schema, fields) -> Schema:
    """Output schema of lossless_project(): the named fields, in that order."""
    keep = tuple(fields)
    if not keep:
        raise SchemaMismatch("projection keeps no fields")
    for n in keep:
        schema_field(sch, n)  # raises UnknownField
    if len(set(keep)) != len(keep):
        raise SchemaMismatch(f"duplicate fields in projection: {keep}")
    return schema(*(schema_field(sch, n) for n in keep))


def rename_schema(sch: Schema, mapping: dict) -> Schema:
    """Output schema of rename(): partial maps allowed, collisions refused."""
    names = field_names(sch)
    for src in mapping:
        if src not in names:
            raise UnknownField(f"cannot rename unknown field {src!r}")
    new_names = [mapping.get(n, n) for n in names]
    if len(set(new_names)) != len(new_names):
        raise CollisionAfterRename(f"rename would collide: {new_names}")
    return schema(*(FieldSpec(mapping.get(s.name, s.name), s.sem, s.unit) for s in sch))


def lossless_project(rel: Relation, fields) -> Relation:
    """Narrow the relevant fields; the complement rides along as payload.

    Nothing is deleted: sliced-off fields move into each record's
    irrelevant parts, still keyed by the record's pids.
    """
    sch = rel.schema
    new_schema = project_schema(sch, fields)
    keep = field_names(new_schema)
    drop = tuple(n for n in field_names(sch) if n not in keep)
    rows = []
    for rec in rel.rows:
        kept = {n: rec.fields[n] for n in keep}
        irr = rec.irrelevant
        if drop:
            sliced = {n: rec.fields[n] for n in drop}
            irr = irr + (IrrelevantPart(rec.pids, sliced),)
        rows.append(Record(rec.pids, kept, irr, rec.tags))
    return Relation(new_schema, tuple(rows))


def rename(rel: Relation, mapping: dict) -> Relation:
    """Rename fields; partial maps allowed, collisions refused."""
    new_schema = rename_schema(rel.schema, mapping)
    rows = []
    for rec in rel.rows:
        fields = {mapping.get(n, n): v for n, v in rec.fields.items()}
        rows.append(Record(rec.pids, fields, rec.irrelevant, rec.tags))
    return Relation(new_schema, tuple(rows))


def dedup(rel: Relation) -> Relation:
    """Merge rows whose relevant fields coincide.

    The survivor keeps the first row's values and tags, the union of the
    pids, and every irrelevant payload, so the relation's (field, value,
    pid) content is unchanged; only row multiplicity collapses.
    """
    sch = rel.schema
    groups: dict = {}  # relevant-field key -> members, in first-seen order
    for rec, key in zip(rel.rows, _field_keys(rel, field_names(sch))):
        groups.setdefault(key, []).append(rec)
    rows = []
    for members in groups.values():
        first = members[0]
        if len(members) == 1:
            rows.append(first)
            continue
        pids = frozenset().union(*map(attrgetter("pids"), members))
        irr = tuple(chain.from_iterable(map(attrgetter("irrelevant"), members)))
        rows.append(Record(pids, first.fields, irr, first.tags))
    return Relation(sch, tuple(rows))


# -- joins --------------------------------------------------------------

def join_schema(sch1: Schema, sch2: Schema, on) -> Schema:
    """Output schema of outer_join()'s inner port: the left fields, then the
    right fields less each same-named join pair's right copy.  A key pair
    must join cells of one sem (cells of two sems never match) declared in
    one unit: a same-named pair keeps one copy of its key, and a cell of
    any sem but quantity carries no unit of its own.  So only a differently
    named quantity pair may declare two units; its cells carry theirs."""
    for lf, rf in on:
        if not has_field(sch1, lf):
            raise JoinColumnMissing(f"left operand lacks join column {lf!r}")
        if not has_field(sch2, rf):
            raise JoinColumnMissing(f"right operand lacks join column {rf!r}")
        lspec, rspec = schema_field(sch1, lf), schema_field(sch2, rf)
        if lspec.sem != rspec.sem:
            raise SchemaMismatch(f"join key pair ({lf!r}, {rf!r}) mixes "
                                 f"{lspec.sem} with {rspec.sem}")
        if lspec.unit != rspec.unit and (lf == rf or lspec.sem != "quantity"):
            key = f"key {lf!r}" if lf == rf else f"key pair ({lf!r}, {rf!r})"
            raise SchemaMismatch(f"join {key} has unit {lspec.unit!r} on the left "
                                 f"but {rspec.unit!r} on the right")
    merged_right = [rf for lf, rf in on if lf == rf]
    kept_right = tuple(s for s in sch2 if s.name not in merged_right)
    clash = set(field_names(sch1)) & {s.name for s in kept_right}
    if clash:
        raise SchemaMismatch(f"non-join name collision: {sorted(clash)}")
    return schema(*(sch1 + kept_right))


def outer_join(r1: Relation, r2: Relation, on, missing_matches: bool = False):
    """Equi-join with nothing dropped: returns (inner, left_only, right_only).

    on is a sequence of (left_field, right_field) pairs; an empty sequence
    makes this the cross product, still with the safety ports.  A Missing
    join key never matches anything unless missing_matches is set, which
    set-membership operations use to treat all Missing cells as one value.
    Same-named join pairs keep a single copy of the column; other name
    collisions are refused.
    """
    sch1, sch2 = r1.schema, r2.schema
    pairs = [(lf, rf) for lf, rf in on]
    inner_schema = join_schema(sch1, sch2, pairs)
    kept_right = inner_schema[len(sch1):]

    # with missing_matches every Missing key cell keys as _MISSING_KEY; without,
    # each side's Missing cells key as a token of that side, which no key of
    # the other side holds, so a row with a Missing key cell matches nothing
    lmissing, rmissing = (_MISSING_KEY, _MISSING_KEY) if missing_matches else (object(), object())
    index: dict = {}
    for j, k in enumerate(_field_keys(r2, [rf for _, rf in pairs], rmissing)):
        index.setdefault(k, []).append(j)
    kept = [{s.name: rec.fields[s.name] for s in kept_right} for rec in r2.rows]

    inner_rows = []
    left_rows = []
    right_matched = [False] * len(r2.rows)
    for x, k in zip(r1.rows, _field_keys(r1, [lf for lf, _ in pairs], lmissing)):
        hits = index.get(k)
        if hits is None:
            left_rows.append(x)
            continue
        for j in hits:
            right_matched[j] = True
            y = r2.rows[j]
            inner_rows.append(Record(x.pids | y.pids, {**x.fields, **kept[j]},
                                     x.irrelevant + y.irrelevant, x.tags + y.tags))
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

    Each addition's type comes from compiling it (exprs.compile_expr) and
    must be the sem that sems declares for it, so a mismatch is refused
    before any row moves and no computed cell is checked.  A text or integer
    addition takes no unit, as a text or integer column does not.  Each
    addition is computed as one column whose cells carry each row's outcome;
    a cell holding a FnNotTotal fails the stage, which raises the first
    failing row's fault, and on that row the first addition's.
    """
    sch = rel.schema
    for name in additions:
        if has_field(sch, name):
            raise ForbiddenFieldWrite(f"fmap may only add fields, {name!r} exists")
    new_specs = tuple(FieldSpec(name, sems[name], (units or {}).get(name))
                      for name in additions)
    new_schema = schema(*(sch + new_specs))
    compiled = []
    for spec, e in zip(new_specs, additions.values()):
        fn, sem, _ = compile_expr(e, sch)
        if sem not in (None, spec.sem):
            raise SchemaMismatch(f"field {spec.name!r} is declared {spec.sem} "
                                 f"but computes {sem}")
        if spec.unit is not None and spec.sem in ("text", "integer"):
            raise SchemaMismatch(f"field {spec.name!r} of type {spec.sem} takes no unit")
        compiled.append(fn)
    fields = [rec.fields for rec in rel.rows]
    columns = [fn(fields) for fn in compiled]
    if any(FnNotTotal in set(map(type, col)) for col in columns):
        raise next(v for cells in zip(*columns) for v in cells if v.__class__ is FnNotTotal)
    fields = list(map(dict.copy, fields))  # each row's own, widened a column at a time
    for name, col in zip(additions, columns):
        list(map(dict.__setitem__, fields, repeat(name), col))
    return Relation(new_schema, tuple([Record(rec.pids, row, rec.irrelevant, rec.tags)
                                       for rec, row in zip(rel.rows, fields)]))


# -- aggregation --------------------------------------------------------

# the only map from aggregation op names to summary kinds
_AGG_KINDS = {"sum": Kind.SUM, "min": Kind.MIN, "max": Kind.MAX, "avg": Kind.AVG,
              "set": Kind.SET}
AGG_OPS = tuple(_AGG_KINDS)

NUMERIC_SEMS = ("integer", "decimal", "quantity")


class AggSpec(Frozen):
    """One aggregation: which field, which monoid."""

    __slots__ = ("field", "op")

    def __post_init__(self) -> None:
        if self.op not in AGG_OPS:
            raise ValueError(f"unknown aggregation op {self.op!r}")


def _agg_cell(op: str, values, unit: str | None) -> MonoidElement:
    """Fold one group's non-missing values for one spec: bare payloads onto
    the kind's unit payload, then one element."""
    kinds = set(map(type, values))  # a numeric field's: one class, and Missing
    present = values if Missing not in kinds else [v for v in values if v.__class__ is not Missing]
    kind = _AGG_KINDS[op]
    if kind is Kind.SET:
        return set_of(present)
    nums = map(attrgetter("amount") if Quantity in kinds else Decimal, present)
    if kind is Kind.AVG:
        nums = zip(nums, repeat(1))
    return MonoidElement(kind, fold_payloads(kind, nums, UNITS[kind]), unit)


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
        elif fspec.sem not in NUMERIC_SEMS:
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
    sch = rel.schema
    keys = tuple(group_by)
    specs = tuple(specs)
    out_schema, qty_fields = _agg_plan(sch, keys, specs)

    no_unit = Missing("empty")
    gnames = keys + tuple(f"{f}_unit" for f in qty_fields)
    row_fields = [rec.fields for rec in rel.rows]
    gcols = [list(map(itemgetter(n), row_fields)) for n in keys]
    gcols += [[v.unit if isinstance(v, Quantity) else no_unit
               for v in map(itemgetter(q), row_fields)] for q in qty_fields]
    gkeys = _row_keys(len(row_fields), gcols,
                      [schema_field(sch, n).sem for n in keys] + ["text"] * len(qty_fields))
    keyed = zip(rel.rows, zip(*gcols) if gcols else repeat(()), gkeys)
    groups: dict = {}  # group key -> (key cells, members), in first-seen order
    for rec, gvals, gkey in keyed:
        group = groups.get(gkey)
        if group is None:
            group = groups[gkey] = (dict(zip(gnames, gvals)), [])
        group[1].append(rec)

    plans = [(spec, schema_field(sch, spec.field)) for spec in specs]
    rows = []
    for gvals, members in groups.values():
        fields = dict(gvals)
        for spec, fspec in plans:
            unit = None
            if fspec.sem == "quantity":
                ul = fields[f"{spec.field}_unit"]
                unit = ul if isinstance(ul, str) else None
            elif fspec.unit:
                unit = fspec.unit
            values = [m.fields[spec.field] for m in members]
            fields[f"{spec.field}_{spec.op}"] = _agg_cell(spec.op, values, unit)
        fields["count"] = count(len(members))
        pids = frozenset().union(*map(attrgetter("pids"), members))
        irr = tuple(chain.from_iterable(map(attrgetter("irrelevant"), members)))
        rows.append(Record(pids=pids, fields=fields, irrelevant=irr))
    return Relation(out_schema, tuple(rows))
