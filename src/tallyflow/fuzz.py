"""Randomized cross-check of the compiled pipelines against the oracle.

Each iteration builds a small catalog of duplicate-heavy tables and one
well-typed query, runs both the naive evaluator and the translated
pipeline, and compares.  Everything derives from the seed, so a failing
case can be replayed exactly by (seed, index), and the cases of one job
can run in any order and in any process.
"""

from __future__ import annotations

import os
from decimal import Decimal
from random import Random

from .errors import TallyError
from .ops import AGG_OPS, AggSpec, aggregate_schema, join_schema, rename_schema
from .ra import (
    Aggregate,
    BaseRelation,
    CrossProduct,
    Intersect,
    Map,
    Minus,
    NaturalJoin,
    OuterJoin,
    Project,
    RAExpr,
    Rename,
    Select,
    Union,
    UnionAll,
    _children,
    equivalence_check,
    infer_schema,
)
from .exprs import (
    All,
    AnyOf,
    BinOp,
    Col,
    Compare,
    FieldDefined,
    InSet,
    Lit,
    Not,
    NumOf,
    UnitOf,
)
from .relation import FieldSpec, Relation, field_names, schema
from .values import Frozen, Missing, Quantity

OPERATOR_KINDS = (Project, Select, Rename, CrossProduct, NaturalJoin, OuterJoin,
                  Union, UnionAll, Minus, Intersect, Aggregate, Map)

_TEXTS = ("red", "blue", "green", "ochre")
_INTS = (0, 1, 2, 7)
_DECS = (Decimal("0"), Decimal("1.5"), Decimal("2.25"), Decimal("-3"))
_UNITS = ("kg", "lb")
_AMOUNTS = (Decimal("1"), Decimal("2"), Decimal("5"))
_MISSINGS = tuple(map(Missing, ("empty", "n/a", "refused")))
_QUANTITIES = {(a, u): Quantity(a, u) for a in _AMOUNTS for u in _UNITS}
_VALUES = {"text": _TEXTS, "integer": _INTS, "decimal": _DECS}
_SEMS = ("integer", "decimal", "text", "quantity")

MAX_ROWS = 50
SMALL_ROWS = 10
MAX_DEPTH = 4


def _types(rule, *args) -> bool:
    """Whether an ops schema rule accepts args."""
    try:
        rule(*args)
    except TallyError:
        return False
    return True


class _Gen:
    """One iteration's tables and query, drawn from a private rng."""

    def __init__(self, rng: Random):
        self.rng = rng
        self.fresh_n = 0
        names = ["ca", "cb", "cc", "cd"]
        n_a = rng.randint(2, 4)
        a_specs = [self._spec(names[i]) for i in range(n_a)]
        shared = rng.sample(a_specs, rng.randint(1, min(2, n_a)))
        b_specs = list(shared)
        for nm in ("bx", "by")[:rng.randint(1, 2)]:
            b_specs.append(self._spec(nm))
        rng.shuffle(b_specs)
        self.sch_a = schema(*a_specs)
        self.sch_b = schema(*b_specs)
        self.tables = {
            "a1": self._table(self.sch_a, rng.randint(0, MAX_ROWS), 1),
            "a2": self._table(self.sch_a, rng.randint(0, MAX_ROWS), 1000),
            "b1": self._table(self.sch_b, rng.randint(0, SMALL_ROWS), 2000),
        }

    def _spec(self, name: str) -> FieldSpec:
        sem = self.rng.choice(_SEMS)
        unit = "$" if sem == "decimal" and self.rng.random() < 0.4 else None
        return FieldSpec(name, sem, unit)

    def fresh(self, prefix: str) -> str:
        self.fresh_n += 1
        return f"{prefix}{self.fresh_n}"

    def _draw(self, sem: str):
        """One column's cell draw: Missing 15% of the time, else a value of sem."""
        random, choice = self.rng.random, self.rng.choice
        if sem == "quantity":

            def draw():
                if random() < 0.15:
                    return choice(_MISSINGS)
                return _QUANTITIES[choice(_AMOUNTS), choice(_UNITS)]
        else:
            values = _VALUES[sem]

            def draw():
                if random() < 0.15:
                    return choice(_MISSINGS)
                return choice(values)
        return draw

    def _table(self, sch, n: int, first_pid: int) -> Relation:
        """n rows of sch with pids from first_pid, as ingest numbers them.

        Cells are drawn row by row, then held a column at a time.  Every
        cell is drawn of its column's sem, and the run that reads a table
        checks its rows, so they are not checked here as well.
        """
        draws = [self._draw(s.sem) for s in sch]
        rows = [[draw() for draw in draws] for _ in range(n)]
        return Relation.of_columns(sch, zip(*rows) if rows else ((),) * len(sch),
                                   map(frozenset, zip(range(first_pid, first_pid + n))))

    # -- predicates and row expressions ---------------------------------

    def _atom(self, sch) -> object:
        r = self.rng
        spec = r.choice(list(sch))
        if spec.sem == "summary":
            return FieldDefined(spec.name)
        if r.random() < 0.2:
            return FieldDefined(spec.name)
        if spec.sem == "text":
            if r.random() < 0.4:
                return InSet(spec.name, tuple(r.sample(_TEXTS, 2)))
            return Compare(r.choice(("eq", "ne")), spec.name, r.choice(_TEXTS))
        op = r.choice(("eq", "ne", "lt", "le", "gt", "ge"))
        if spec.sem == "integer":
            return Compare(op, spec.name, r.choice(_INTS))
        if spec.sem == "decimal":
            return Compare(op, spec.name, r.choice(_DECS))
        return Compare(op, spec.name,
                       Quantity(r.choice(_AMOUNTS), r.choice(_UNITS)))

    def pred(self, sch, depth: int = 2) -> object:
        r = self.rng
        if depth <= 0 or r.random() < 0.5:
            return self._atom(sch)
        pick = r.random()
        if pick < 0.3:
            return Not(self.pred(sch, depth - 1))
        parts = tuple(self.pred(sch, depth - 1) for _ in range(2))
        return All(parts) if pick < 0.65 else AnyOf(parts)

    def map_expr(self, sch):
        r = self.rng
        numeric = [s for s in sch if s.sem in ("integer", "decimal", "quantity")]
        qty = [s for s in sch if s.sem == "quantity"]
        roll = r.random()
        if numeric and roll < 0.6:
            col = NumOf(Col(r.choice(numeric).name))
            if r.random() < 0.5:
                return BinOp(r.choice(("add", "sub", "mul")), col,
                             Lit(r.choice(_INTS)))
            return col
        if qty and roll < 0.8:
            return UnitOf(Col(r.choice(qty).name))
        if r.random() < 0.5:
            return Lit(r.choice(_DECS))
        return Lit(r.choice(_TEXTS))

    # -- expression families --------------------------------------------

    def base_a(self) -> RAExpr:
        return BaseRelation(self.rng.choice(("a1", "a2")))

    def samesch(self, depth: int) -> RAExpr:
        """Subtrees over the a-schema that keep it unchanged."""
        r = self.rng
        if depth <= 1 or r.random() < 0.4:
            return self.base_a()
        roll = r.random()
        if roll < 0.5:
            return Select(self.samesch(depth - 1), self.pred(self.sch_a))
        op = r.choice((Union, UnionAll, Minus, Intersect))
        return op(self.samesch(depth - 1), self.samesch(depth - 1))

    def b_side(self, depth: int) -> RAExpr:
        if depth <= 1 or self.rng.random() < 0.6:
            return BaseRelation("b1")
        return Select(self.b_side(depth - 1), self.pred(self.sch_b))

    def b_renamed(self, depth: int):
        """The small table with every field renamed fresh, for disjointness."""
        mapping = tuple((s.name, self.fresh("rn")) for s in self.sch_b)
        return Rename(self.b_side(depth), mapping), dict(mapping)

    def any_expr(self, depth: int, mult: int) -> RAExpr:
        r = self.rng
        if depth <= 1:
            return r.choice((self.base_a(), BaseRelation("b1")))
        kinds = [Project, Select, Rename, Union, UnionAll, Minus, Intersect,
                 Aggregate, Map]
        if mult > 0:
            kinds += [CrossProduct, NaturalJoin, OuterJoin]
        return self.build(r.choice(kinds), depth, mult)

    def build(self, kind, depth: int, mult: int) -> RAExpr:
        r = self.rng
        if kind is Project:
            sub = self.any_expr(depth - 1, mult)
            names = list(field_names(self._sch(sub)))
            keep = r.sample(names, r.randint(1, len(names)))
            return Project(sub, tuple(keep))
        if kind is Select:
            sub = self.any_expr(depth - 1, mult)
            return Select(sub, self.pred(self._sch(sub)))
        if kind is Rename:
            sub = self.any_expr(depth - 1, mult)
            names = list(field_names(self._sch(sub)))
            take = r.sample(names, r.randint(1, min(2, len(names))))
            return Rename(sub, tuple((n, self.fresh("rn")) for n in take))
        if kind is CrossProduct:
            left = self.samesch(depth - 1)
            right, _ = self.b_renamed(depth - 1)
            return CrossProduct(left, right)
        if kind is NaturalJoin:
            if r.random() < 0.25:
                return NaturalJoin(self.samesch(depth - 1), self.base_a())
            return NaturalJoin(self.samesch(depth - 1), self.b_side(depth - 1))
        if kind is OuterJoin:
            left = self.samesch(depth - 1)
            right, mapping = self.b_renamed(depth - 1)
            # every key pair that ops.join_schema, the typer's one rule for them, accepts
            sch_r = rename_schema(self.sch_b, mapping)
            pairs = [(s.name, new) for s in self.sch_a for new in mapping.values()
                     if _types(join_schema, self.sch_a, sch_r, ((s.name, new),))]
            take = r.sample(pairs, min(len(pairs), r.randint(1, 2)))
            return OuterJoin(left, right, tuple(take))
        if kind in (Union, UnionAll, Minus, Intersect):
            return kind(self.samesch(depth - 1), self.samesch(depth - 1))
        if kind is Aggregate:
            sub = self.any_expr(depth - 1, mult)
            return self._aggregate_over(sub)
        if kind is Map:
            sub = self.any_expr(depth - 1, mult)
            sch = self._sch(sub)
            n = r.randint(1, 2)
            return Map(sub, tuple(
                (self.fresh("mx"), self.map_expr(sch)) for _ in range(n)))
        raise ValueError(f"unknown kind {kind!r}")

    def _aggregate_over(self, sub: RAExpr) -> RAExpr:
        """An aggregate whose specs and group keys ops.aggregate_schema accepts."""
        r = self.rng
        sch = self._sch(sub)
        if any(s.name == "count" for s in sch):  # aggregate_schema refuses any input count
            sub = Rename(sub, (("count", self.fresh("rn")),))
            sch = self._sch(sub)
        candidates = [spec for spec in (AggSpec(s.name, op) for s in sch for op in AGG_OPS)
                      if _types(aggregate_schema, sch, (), (spec,))]
        specs = tuple(r.sample(candidates, min(len(candidates), r.randint(0, 2))))
        pool = [n for n in field_names(sch) if _types(aggregate_schema, sch, (n,), specs)]
        group_by = r.sample(pool, min(len(pool), r.randint(0, 2)))
        return Aggregate(sub, tuple(group_by), specs)

    def _sch(self, sub: RAExpr):
        return infer_schema(sub, {n: t.schema for n, t in self.tables.items()})


def make_case(seed: int, index: int):
    """The (query, tables) pair for one iteration; pure function of both."""
    rng = Random(f"{seed}/{index}")
    gen = _Gen(rng)
    root = OPERATOR_KINDS[index % len(OPERATOR_KINDS)]
    expr = gen.build(root, MAX_DEPTH, 2)
    return expr, gen.tables


def node_kinds(expr: RAExpr) -> set:
    out = {type(expr).__name__}
    for _, child in _children(expr):
        out |= node_kinds(child)
    return out


class FuzzReport(Frozen):
    __slots__ = ("iterations", "failures", "first_failure", "kinds_seen")


def run_share(seed: int, iterations: int, share: int, shares: int) -> tuple:
    """Cases share, share + shares, ... of a job: (failures, first, kinds seen).

    first is (index, text) of the share's lowest failing case, or None.  A
    TallyError raised while building or checking a case fails that case.
    """
    failures = 0
    first = None
    seen: set = set()
    for i in range(share, iterations, shares):
        expr = None
        try:
            expr, tables = make_case(seed, i)
            seen |= node_kinds(expr)
            verdict = equivalence_check(expr, tables)
            if verdict.ok:
                continue
            detail = verdict.detail
        except TallyError as exc:
            detail = f"{type(exc).__name__}: {exc}"
        failures += 1
        if first is None:
            text = f"iteration {i} (seed {seed}): {detail}"
            first = (i, text if expr is None else f"{text}\nquery: {expr!r}")
    return failures, first, seen


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_fuzz(seed: int, iterations: int) -> FuzzReport:
    """Drive equivalence checks; deterministic for a given seed.

    The cases are split into k strided shares, k = min(CPUs this process
    may run on, iterations).  The caller runs share 0 and k - 1 forked
    workers run the others; the shares merge by case index, so the report
    does not depend on k.  With k = 1, or where processes cannot fork,
    nothing is forked.

    Each worker sends its share's result, or the exception its share
    raised, pickled through a pipe of its own, and every path through a
    worker ends in os._exit: no code of the caller's runs twice.  The
    caller raises a worker's exception as its own and reaps every worker
    however the job ends.
    """
    k = max(1, min(_cpus(), iterations)) if hasattr(os, "fork") else 1
    if k > 1:
        import pickle  # loaded only by a job that forks
    workers = []  # (pid, read end of its pipe) of each forked worker
    try:
        for w in range(1, k):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the worker: run share w, send it, exit
                code = 1
                try:
                    os.close(read_end)
                    try:
                        sent = (True, run_share(seed, iterations, w, k))
                    except BaseException as exc:  # raised again by the caller
                        sent = (False, exc)
                    with open(write_end, "wb") as fh:
                        pickle.dump(sent, fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            workers.append((pid, open(read_end, "rb")))
        shares = [run_share(seed, iterations, 0, k)]
        for w, (_, pipe) in enumerate(workers, 1):
            data = pipe.read()
            if not data:
                raise RuntimeError(f"fuzz worker of share {w} ended without a result")
            ok, share = pickle.loads(data)
            if not ok:
                raise share
            shares.append(share)
    finally:
        for pid, pipe in workers:
            pipe.close()  # a worker still writing to it gets EPIPE, and exits
            os.waitpid(pid, 0)
    firsts = [first for _, first, _ in shares if first is not None]
    return FuzzReport(iterations, sum(failures for failures, _, _ in shares),
                      min(firsts)[1] if firsts else "",
                      tuple(sorted(set().union(*(seen for _, _, seen in shares)))))
