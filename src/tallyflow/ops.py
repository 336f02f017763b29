"""Operations over relations.

Every operation here is total over its precondition and loses nothing:
rows are routed, tagged, merged or enriched, never silently dropped.
Operations that can reject rows return the rejects as first-class output.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import chain, compress, repeat
from operator import add, attrgetter, itemgetter, not_, or_

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
    FieldSpec,
    IrrelevantPart,
    PathTag,
    Relation,
    Schema,
    empty,
    error_schema,
    field_names,
    has_field,
    schema,
    schema_field,
)
from .values import MISSING_KEY, Frozen, Missing, Quantity, key_column


# -- partitioning -------------------------------------------------------

def _picker(idx: list):
    """A function from a column to the tuple of its cells at the positions
    idx, in that order: one itemgetter, read once per column.  An itemgetter
    of one position gives no tuple, so fewer than two take a slice."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return itemgetter(slice(idx[0], idx[0] + 1) if idx else slice(0))


def _gather(rel: Relation, sch: Schema, idx) -> Relation:
    """The rows of rel at the positions idx, in that order, under sch."""
    take = _picker(list(idx))
    return Relation.of_columns(sch, map(take, rel.columns), take(rel.pids),
                               take(rel.irrelevant), take(rel.tags))


def partition_detailed(rel: Relation, pred: Pred):
    """Split by a three-valued predicate, read off its verdict column.

    Returns (accepted, rejected, reasons) where reasons aligns with the
    rejected rows; a false or unknown verdict rejects with its reason.
    """
    verdict_column = compile_pred(pred, rel.schema)
    if not len(rel):
        return rel, rel, ()
    verdicts = verdict_column(rel.columns, len(rel))
    held = [v is None for v in verdicts]
    reasons = tuple(v[1] for v in verdicts if v is not None)
    rows = range(len(rel))
    return (_gather(rel, rel.schema, compress(rows, held)),
            _gather(rel, rel.schema, compress(rows, map(not_, held))), reasons)


def as_errors(rel: Relation, stage: str, reasons) -> Relation:
    """Reshape rows onto the error rail, adding stage and reason columns."""
    if isinstance(reasons, str):
        reasons = (reasons,) * len(rel)
    elif len(reasons) != len(rel):
        raise ValueError("reasons must align with rows")
    return rel.with_columns(error_schema(rel.schema),
                            rel.columns + ((stage,) * len(rel), tuple(reasons)))


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
    tags = [*map(add, r1.tags, repeat((PathTag("inl"),))),
            *map(add, r2.tags, repeat((PathTag("inr"),)))]
    return Relation.of_columns(sch, map(add, r1.columns, r2.columns), r1.pids + r2.pids,
                               r1.irrelevant + r2.irrelevant, tags)


def _popped(rel: Relation) -> tuple:
    """(each row's outermost tag side, rel with that tag popped)."""
    if () in rel.tags:
        raise UntagMissing("record has no tag to pop")
    return ([t[-1].side for t in rel.tags],
            Relation.of_columns(rel.schema, rel.columns, rel.pids, rel.irrelevant,
                                [t[:-1] for t in rel.tags]))


def untag(rel: Relation):
    """Undo a tagged union exactly: split by the outermost tag and pop it."""
    sides, popped = _popped(rel)
    left, rows = [side == "inl" for side in sides], range(len(rel))
    return (_gather(popped, rel.schema, compress(rows, left)),
            _gather(popped, rel.schema, compress(rows, map(not_, left))))


def strip_tags(rel: Relation) -> Relation:
    """Pop the outermost tag from every row, keeping them in one relation."""
    return _popped(rel)[1]


# -- row keys -------------------------------------------------------------

def _row_keys(n: int, cols, sems, missing=MISSING_KEY):
    """Each of n rows' key over the columns cols of sems sems: the tuple of
    its cells' keys, one key_column pass per column."""
    if not cols:
        return repeat((), n)
    return zip(*map(key_column, cols, sems, repeat(missing)))


def _field_keys(rel: Relation, names, missing=MISSING_KEY):
    """Each of rel's rows' key over the named fields."""
    return _row_keys(len(rel), list(map(rel.column, names)),
                     [schema_field(rel.schema, n).sem for n in names], missing)


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

    Nothing is deleted: sliced-off fields move into each row's irrelevant
    parts, still keyed by the row's pids.
    """
    sch = rel.schema
    new_schema = project_schema(sch, fields)
    keep = field_names(new_schema)
    drop = tuple(n for n in field_names(sch) if n not in keep)
    irr = None
    if drop:
        sliced = map(dict, map(zip, repeat(drop), zip(*map(rel.column, drop))))
        irr = [parts + (IrrelevantPart(p, cells),)
               for parts, p, cells in zip(rel.irrelevant, rel.pids, sliced)]
    return rel.with_columns(new_schema, map(rel.column, keep), irr)


def rename(rel: Relation, mapping: dict) -> Relation:
    """Rename fields; partial maps allowed, collisions refused."""
    return rel.with_columns(rename_schema(rel.schema, mapping), rel.columns)


def _groups(keys) -> list:
    """The positions of the rows of each key, keys in first-seen order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        group = groups.get(key)
        if group is None:
            group = groups[key] = []
        group.append(i)
    return list(groups.values())


def _merged(rel: Relation, groups) -> tuple:
    """(pids, irrelevant parts) of each group of rel's row positions: a lone
    row's own, else the union of the pids and every member's parts."""
    pids, irr = rel.pids, rel.irrelevant
    return ([pids[m[0]] if len(m) == 1 else frozenset().union(*map(pids.__getitem__, m))
             for m in groups],
            [irr[m[0]] if len(m) == 1 else tuple(chain.from_iterable(map(irr.__getitem__, m)))
             for m in groups])


def dedup(rel: Relation) -> Relation:
    """Merge rows whose relevant fields coincide.

    The survivor keeps the first row's values and tags, the union of the
    pids, and every irrelevant payload, so the relation's (field, value,
    pid) content is unchanged; only row multiplicity collapses.
    """
    sch = rel.schema
    members = _groups(_row_keys(len(rel), rel.columns, [s.sem for s in sch]))
    take = _picker([m[0] for m in members])
    pids, irr = _merged(rel, members)
    return Relation.of_columns(sch, map(take, rel.columns), pids, irr, take(rel.tags))


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
    if not (len(r1) and len(r2)):  # no row has a partner
        return empty(inner_schema), r1, r2

    # with missing_matches every Missing key cell keys as MISSING_KEY; without,
    # each side's Missing cells key as a token of that side, which no key of
    # the other side holds, so a row with a Missing key cell matches nothing
    lmissing, rmissing = (MISSING_KEY, MISSING_KEY) if missing_matches else (object(), object())
    index: dict = {}
    for j, k in enumerate(_field_keys(r2, [rf for _, rf in pairs], rmissing)):
        index.setdefault(k, []).append(j)
    hits = list(map(index.get, _field_keys(r1, [lf for lf, _ in pairs], lmissing)))
    # the inner rows, each a (left position, right position) pair in left order
    li = [i for i, h in enumerate(hits) if h is not None for _ in h]
    rj = list(chain.from_iterable(filter(None, hits)))
    x, y = _picker(li), _picker(rj)
    inner = Relation.of_columns(
        inner_schema, [*map(x, r1.columns), *(y(r2.column(s.name)) for s in kept_right)],
        map(or_, x(r1.pids), y(r2.pids)), map(add, x(r1.irrelevant), y(r2.irrelevant)),
        map(add, x(r1.tags), y(r2.tags)))
    matched = set(rj)
    return (
        inner,
        _gather(r1, sch1, [i for i, h in enumerate(hits) if h is None]),
        _gather(r2, sch2, [j for j in range(len(r2)) if j not in matched]),
    )


# -- enrichment ---------------------------------------------------------

def fmap(rel: Relation, additions: dict, sems: dict,
         units: dict | None = None) -> Relation:
    """Enrich every row with computed fields; existing fields stay untouchable.

    Each addition's type comes from compiling it (exprs.compile_expr) and
    must be the sem that sems declares for it, so a mismatch is refused
    before any row moves and no computed cell is checked; its FieldSpec is
    built after that check, and refuses a unit on a text or integer
    addition.  Each addition is computed as one column whose cells carry
    each row's outcome, beside the input's columns, which it shares;
    a cell holding a FnNotTotal fails the stage, which raises the first
    failing row's fault, and on that row the first addition's.
    """
    sch = rel.schema
    for name in additions:
        if has_field(sch, name):
            raise ForbiddenFieldWrite(f"fmap may only add fields, {name!r} exists")
    new_specs, compiled = [], []
    for name, e in additions.items():
        fn, sem, _ = compile_expr(e, sch)
        if sem not in (None, sems[name]):
            raise SchemaMismatch(f"field {name!r} is declared {sems[name]} "
                                 f"but computes {sem}")
        new_specs.append(FieldSpec(name, sems[name], (units or {}).get(name)))
        compiled.append(fn)
    new_schema = schema(*sch, *new_specs)
    columns = [fn(rel.columns, len(rel)) for fn in compiled]
    if any(FnNotTotal in set(map(type, col)) for col in columns):
        raise next(v for cells in zip(*columns) for v in cells if v.__class__ is FnNotTotal)
    return rel.with_columns(new_schema, (*rel.columns, *columns))


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
    gcols = [rel.column(n) for n in keys]
    gcols += [[v.unit if isinstance(v, Quantity) else no_unit for v in rel.column(q)]
              for q in qty_fields]
    gkeys = _row_keys(len(rel), gcols,
                      [schema_field(sch, n).sem for n in keys] + ["text"] * len(qty_fields))
    members = _groups(gkeys)
    columns = list(map(_picker([m[0] for m in members]), gcols))
    units = dict(zip(qty_fields, columns[len(keys):]))
    for spec in specs:
        fspec = schema_field(sch, spec.field)
        if fspec.sem == "quantity":  # each group's unit label, None for no unit
            group_units = [u if isinstance(u, str) else None for u in units[spec.field]]
        else:
            group_units = repeat(fspec.unit or None)
        col = rel.column(spec.field)
        columns.append([_agg_cell(spec.op, [col[i] for i in m], unit)
                        for m, unit in zip(members, group_units)])
    columns.append([count(len(m)) for m in members])
    pids, irr = _merged(rel, members)
    return Relation.of_columns(out_schema, columns, pids, irr)
