"""Pipeline graphs: wired stages that route every row somewhere.

A graph is a DAG of named stages between declared sources and sinks.  The
no-forget rule is structural: each input port is fed where its stage or
sink is added (PipelineGraph.feeds holds each consumer's feeds once), and
every output port must be consumed exactly once (feed a stage or a sink
with it), so data cannot fall off the edge of the graph.
Execution records, for every port in run order, the pids it carried
(RunAudit.ports), each the pid record of the relation at that port
(Relation.pid_record, an int bitset); stage pid sets, sink pid sets, trace()
and the audit document's paths are all read off that one record.  validate()
sweeps the consumers once, sinks then stages in reverse topological order,
for the reports each output port reaches: it refuses a stage other than a
tee whose ports reach different reports, and a run reads each report's
sources off the same sweep.
"""

from __future__ import annotations

import time
from itertools import chain, combinations
from typing import NamedTuple

from .audit import build_charges, measure_carriers
from .errors import InvalidGraph, MissingInput, SchemaMismatch, TallyError, UnknownPid
from .exprs import EXPR, PRED
from .grammar import BOOL, NAME, NAMES, PAIRS, TEXT, Entry, Key, Leaf, ListOf, Mapping
from .ops import (
    AggSpec,
    aggregate,
    as_errors,
    dedup,
    lossless_project,
    outer_join,
    partition_detailed,
    rename,
    strip_tags,
    tagged_union,
    untag,
)
from .ops import fmap as ops_fmap
from .relation import (
    ERROR,
    ERROR_REASON,
    ERROR_STAGE,
    REPORT,
    SEM_TYPES,
    PidSet,
    Relation,
    Schema,
    check_rows,
    empty,
    has_field,
)
from .space import SCHEMES
from .values import Frozen, set_field


class Violation(Frozen):
    """One reason a graph is not runnable; validation never raises."""

    __slots__ = ("kind", "where", "detail")


class PortRef(NamedTuple):
    """A source's, stage's or sink's named port.  A NamedTuple, not a
    Frozen record: every validation and run builds and hashes one per lookup."""

    owner: str
    port: str

    def __str__(self) -> str:
        return f"{self.owner}.{self.port}"


# -- stage node types ---------------------------------------------------


class Node(Frozen):
    """Base stage: subclasses define ports, the relation transform, and
    doc_keys, the pipeline document's keys of their parameters (grammar)."""

    __slots__ = ()
    name: str
    in_ports: tuple[str, ...] = ("in",)
    out_ports: tuple[str, ...] = ("out",)
    doc_keys: dict = {}

    def apply(self, ins: dict) -> dict:
        raise NotImplementedError


class PartitionNode(Node):
    """Split on a predicate; optionally reshape rejects onto the error rail."""

    __slots__ = ("name", "pred", "rejected_to_errors")
    _defaults = {"rejected_to_errors": False}
    in_ports = ("in",)
    out_ports = ("accepted", "rejected")
    doc_keys = {"when": Key(PRED, "pred"), "rejected_to_errors": Key(BOOL, default=False)}

    def apply(self, ins: dict) -> dict:
        acc, rej, reasons = partition_detailed(ins["in"], self.pred)
        if self.rejected_to_errors:
            rej = as_errors(rej, self.name, list(reasons))
        return {"accepted": acc, "rejected": rej}


class TeeNode(Node):
    """Duplicate a flow so several reports can consume the same data."""

    __slots__ = ("name",)
    in_ports = ("in",)
    out_ports = ("left", "right")

    def apply(self, ins: dict) -> dict:
        return {"left": ins["in"], "right": ins["in"]}


class TaggedUnionNode(Node):
    __slots__ = ("name",)
    in_ports = ("left", "right")
    out_ports = ("out",)

    def apply(self, ins: dict) -> dict:
        return {"out": tagged_union(ins["left"], ins["right"])}


class UntagNode(Node):
    __slots__ = ("name",)
    in_ports = ("in",)
    out_ports = ("left", "right")

    def apply(self, ins: dict) -> dict:
        left, right = untag(ins["in"])
        return {"left": left, "right": right}


class StripTagsNode(Node):
    __slots__ = ("name",)

    def apply(self, ins: dict) -> dict:
        return {"out": strip_tags(ins["in"])}


class ProjectNode(Node):
    """Lossless narrowing: dropped fields ride along as irrelevant payload."""

    __slots__ = ("name", "fields")
    doc_keys = {"fields": NAMES}

    def apply(self, ins: dict) -> dict:
        return {"out": lossless_project(ins["in"], self.fields)}


class RenameNode(Node):
    __slots__ = ("name", "mapping")
    doc_keys = {"map": Key(Mapping(NAME, "a mapping of names to names"), "mapping")}

    def apply(self, ins: dict) -> dict:
        return {"out": rename(ins["in"], self.mapping)}


class DedupNode(Node):
    __slots__ = ("name",)

    def apply(self, ins: dict) -> dict:
        return {"out": dedup(ins["in"])}


class MapNode(Node):
    """Enrichment stage: adds computed fields, never overwrites.

    kind "fmap" runs on ordinary rows; "emap" insists its input is on the
    error rail (has the error columns) but is otherwise the same add-only
    mapping.  sems must declare the type of every added field, and it must
    be the type its expression computes over the input schema (decided by
    exprs.compile_expr), so validation refuses a mismatch whatever the data
    holds and no computed cell is checked when rows run.  sems and units
    name added fields only, so a misspelled key cannot silently drop a unit.
    """

    __slots__ = ("name", "additions", "sems", "kind", "units")
    _defaults = {"kind": "fmap", "units": None}
    doc_keys = {
        "add": Key(Mapping(EXPR, "a mapping of each added field to its expression"),
                   "additions"),
        "sems": Mapping(NAME, "a mapping of each added field to its type"),
        "units": Key(Mapping(Leaf("text or null", (str, type(None))),
                             "a mapping of each added field to its unit"), default=None),
    }

    def __post_init__(self) -> None:
        if self.kind not in ("fmap", "emap"):
            raise ValueError(f"map kind must be fmap or emap, not {self.kind!r}")
        missing = [n for n in self.additions if n not in self.sems]
        if missing:
            raise ValueError(f"map node {self.name!r} lacks sems for {missing}")
        extra = [n for n in dict.fromkeys([*self.sems, *(self.units or {})])
                 if n not in self.additions]
        if extra:
            raise ValueError(f"map node {self.name!r} has sems or units for fields "
                             f"it does not add: {extra}")
        for n, sem in self.sems.items():
            if sem not in SEM_TYPES:
                raise ValueError(f"map node {self.name!r}: unknown semantic type "
                                 f"{sem!r} for field {n!r}")

    def apply(self, ins: dict) -> dict:
        rel = ins["in"]
        if self.kind == "emap":
            if not (has_field(rel.schema, ERROR_STAGE) and has_field(rel.schema, ERROR_REASON)):
                raise SchemaMismatch(f"emap stage {self.name!r} needs error-rail input")
        return {"out": ops_fmap(rel, self.additions, self.sems, self.units)}


class ErrorizeNode(Node):
    """Move rows onto the error rail with this stage's name and a fixed reason."""

    __slots__ = ("name", "reason")
    doc_keys = {"reason": TEXT}

    def apply(self, ins: dict) -> dict:
        return {"out": as_errors(ins["in"], self.name, self.reason)}


class JoinNode(Node):
    """Equi-join with unmatched rows kept on their own ports."""

    __slots__ = ("name", "on", "missing_matches")
    _defaults = {"missing_matches": False}

    in_ports = ("left", "right")
    out_ports = ("inner", "left_only", "right_only")
    doc_keys = {"keys": Key(PAIRS, "on", ()), "missing_matches": Key(BOOL, default=False)}

    def apply(self, ins: dict) -> dict:
        inner, left_only, right_only = outer_join(
            ins["left"], ins["right"], self.on, missing_matches=self.missing_matches
        )
        return {"inner": inner, "left_only": left_only, "right_only": right_only}


class AggregateNode(Node):
    __slots__ = ("name", "group_by", "specs")
    doc_keys = {
        "by": Key(NAMES, "group_by", ()),
        "specs": Key(ListOf(Entry("an aggregation", {"field": NAME, "op": NAME}, AggSpec),
                            "a list of aggregations"), default=()),
    }

    def apply(self, ins: dict) -> dict:
        return {"out": aggregate(ins["in"], self.group_by, self.specs)}


# -- source / sink / conservation declarations --------------------------


class Source(Frozen):
    __slots__ = ("name", "schema")


class Sink(Frozen):
    """A declared output: either a report or an error drain of a report."""

    __slots__ = ("name", "kind", "report")
    _defaults = {"report": "main"}

    def __post_init__(self) -> None:
        if self.kind not in (REPORT, ERROR):
            raise ValueError(f"sink {self.name!r}: its kind is report or error, "
                             f"not {self.kind!r}")
        if self.report == "all":
            raise ValueError(f"sink {self.name!r}: the report label 'all' is reserved "
                             "for the run-wide check coverage:all")
        if not self.report:
            raise ValueError(f"sink {self.name!r}: its report label is empty")


class ConservationSpec(Frozen):
    """Which measure family the audit must balance: a scheme of
    space.SCHEMES, over a field exactly when the scheme reads one."""

    __slots__ = ("scheme", "fld")
    _defaults = {"fld": None}

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown conservation scheme {self.scheme!r}")
        if bool(SCHEMES[self.scheme]) != bool(self.fld):
            need = "needs a field" if SCHEMES[self.scheme] else "takes no field"
            raise ValueError(f"{self.scheme} conservation {need}")


# -- the graph ----------------------------------------------------------


class PortPids(Frozen):
    """The pids one port carried during a run, a PidSet bitset.

    repeats is sparse: pid -> number of rows that carried it, only for pids
    more than one row carried (a join copy, a dedup's merged duplicates).
    Frozen, so a recorded port cannot be reassigned; like the dict it
    holds it cannot be hashed.
    """

    __slots__ = ("owner", "port", "pids", "repeats")

    def __init__(self, owner: str, port: str, pids: PidSet, repeats: dict) -> None:
        set_field(self, "owner", owner)
        set_field(self, "port", port)
        set_field(self, "pids", pids)
        set_field(self, "repeats", repeats)


class StageVisit(Frozen):
    """Pid movement through one stage during a run (sets shared with ports).

    A mutable record, like RunAudit and RunResult: object's own __setattr__
    and __delattr__ replace Frozen's refusals, so fields assign plainly.
    """

    __slots__ = ("stage", "ins", "outs")
    __hash__ = None  # type: ignore[assignment]
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, stage: str, ins: dict, outs: dict) -> None:
        self.stage = stage
        self.ins = ins
        self.outs = outs


class RunAudit(Frozen):
    """Everything a run leaves behind for auditing, minus wall-clock noise.

    ports is the one record of pid movement: a PortPids per source output,
    stage output and sink input, in run order (sources, then stage outputs
    in topological order, then sinks).  source_pids, stage_visits and
    sink_pids index the same PidSets by owner: each is the pid record of
    the relation at that port, scanned once per relation.  Every field
    defaults to a new empty container: charges maps space -> pid ->
    payload, totals space -> carrier -> payload, space_units space -> unit
    element, sink_order report -> its sinks in canonical order; timings
    stay in memory.
    """

    __slots__ = ("source_pids", "stage_visits", "sink_pids", "ports", "charges", "totals",
                 "space_units", "sink_order", "report_sources", "timings")
    __hash__ = None  # type: ignore[assignment]
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, *args, **kwargs) -> None:
        fresh = {n: [] if n in ("stage_visits", "ports") else {} for n in self._fields[len(args):]}
        super().__init__(*args, **{**fresh, **kwargs})

    def all_source_pids(self) -> frozenset:
        return frozenset().union(*self.source_pids.values())

    @property
    def visits(self) -> dict:
        """pid -> [(owner, port)], one entry per row that carried the pid.

        Derived from ports on every read, for the benchmark tracer only; the
        next change to the benchmark makes the tracer read ports and drops
        this property.
        """
        out: dict = {}
        for e in self.ports:
            for pid in e.pids:
                out.setdefault(pid, []).extend([(e.owner, e.port)] * e.repeats.get(pid, 1))
        return out


class RunResult(Frozen):
    __slots__ = ("sinks", "audit")
    __hash__ = None  # type: ignore[assignment]
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


class PipelineGraph:
    """Builder and runner for one pipeline."""

    def __init__(self, name: str = "pipeline"):
        self.name = name
        self.sources: dict[str, Source] = {}
        self.nodes: dict[str, Node] = {}
        self.sinks: dict[str, Sink] = {}
        # stage or sink -> the output port feeding each in-port, in in_ports order
        self.feeds: dict[str, tuple[PortRef, ...]] = {}
        self.conservation: list[ConservationSpec] = []
        self._order: list[str] = []  # stages in the order the last validate() found
        self._reach: dict = {}  # the last validate()'s _report_reach

    # -- construction ---------------------------------------------------

    def _claim(self, name: str) -> None:
        if name in self.sources or name in self.nodes or name in self.sinks:
            raise ValueError(f"name {name!r} already used in this graph")
        # '.' ends an owner in an address; a sink's name is also its file name
        if not name or any(c in name for c in "./\\"):
            raise ValueError(f"bad owner name {name!r}")

    def add_source(self, name: str, schema: Schema) -> None:
        self._claim(name)
        self.sources[name] = Source(name, schema)

    def _feed(self, addr: str) -> PortRef:
        """The output port at addr, 'owner.port'; a source's bare name means its .out."""
        if "." in addr:
            owner, port = addr.split(".", 1)
            return PortRef(owner, port)
        if addr not in self.sources:
            raise ValueError(f"address {addr!r} needs an explicit port")
        return PortRef(addr, "out")

    def add_node(self, node: Node, *feeds: str) -> None:
        """Add a stage fed from one output address per in-port, in in_ports order."""
        ports = node.in_ports
        if len(feeds) != len(ports):
            raise ValueError(f"stage {node.name!r} takes one feed per in-port "
                             f"({', '.join(ports)}), not {len(feeds)}")
        refs = tuple(map(self._feed, feeds))
        self._claim(node.name)
        self.nodes[node.name] = node
        self.feeds[node.name] = refs

    def add_sink(self, name: str, kind: str, src: str, *, report: str = "main") -> None:
        """Add a sink fed from the output address src."""
        ref = self._feed(src)
        self._claim(name)
        self.sinks[name] = Sink(name, kind, report)
        self.feeds[name] = (ref,)

    def add_conservation(self, scheme: str, fld: str | None = None) -> None:
        self.conservation.append(ConservationSpec(scheme, fld))

    # -- validation -----------------------------------------------------

    def validate(self) -> list[Violation]:
        """Structural, schema and measure checks; returns violations, raises nothing.

        A measure over a field needs a carrier (audit.measure_carriers), and
        a sum's carriers must share one unit.  A stage other than a tee
        must send all its output ports to one set of reports: a report is a
        complete summary of its sources, and coverage is checked per source.
        """
        v: list[Violation] = []
        # every input port has its one feed from add_node or add_sink; the
        # output ports, in declaration order: sources then stages
        outs = dict.fromkeys([PortRef(s, "out") for s in self.sources]
                             + [PortRef(n.name, p) for n in self.nodes.values()
                                for p in n.out_ports])
        seen_src: dict[PortRef, int] = {}
        for ref in chain.from_iterable(self.feeds.values()):
            if ref not in outs:
                v.append(Violation("UnknownEndpoint", str(ref), "no such output port"))
            seen_src[ref] = seen_src.get(ref, 0) + 1
        for ref, n in seen_src.items():
            if n > 1 and ref in outs:
                v.append(Violation(
                    "DuplicateConsumer", str(ref),
                    f"output consumed {n} times; use a tee stage to duplicate"))
        for ref in outs:
            if ref not in seen_src:
                v.append(Violation("UnconsumedPort", str(ref), "every output must be wired or sunk"))
        order, cyclic = self._topo_order()
        self._order = order
        for name in cyclic:
            v.append(Violation("Cycle", name, "stage participates in a cycle"))
        self._reach = {}
        if not v:
            self._reach = self._report_reach(order)
            v.extend(self._split_reports(order))
            v.extend(self._dry_run(order))
        for spec in (c for c in self.conservation if c.fld):
            where = f"{spec.scheme}[{spec.fld}]"
            carriers = measure_carriers(self, spec)
            if not carriers:
                v.append(Violation("UnmeasuredField", where, f"no source has a "
                                   f"{SCHEMES[spec.scheme]} field {spec.fld!r}"))
            elif SCHEMES[spec.scheme] == "decimal" and len(set(carriers.values())) > 1:
                v.append(Violation("MixedUnits", where, "carriers declare " + ", ".join(
                    f"{n}: {u or 'no unit'}" for n, u in carriers.items())))
        return v

    def _topo_order(self):
        """Kahn's algorithm over stages; ties broken by declaration order."""
        pending = {n: {ref.owner for ref in self.feeds[n] if ref.owner in self.nodes}
                   for n in self.nodes}
        order = []
        placed: set[str] = set()
        while True:
            ready = [n for n in self.nodes if n not in placed and pending[n] <= placed]
            if not ready:
                break
            order += ready
            placed.update(ready)
        cyclic = [n for n in self.nodes if n not in placed]
        return order, cyclic

    def _report_reach(self, order) -> dict:
        """PortRef of every source and stage output -> the reports whose
        sinks its rows can reach.  One sweep over the consumers, sinks first,
        then stages in reverse order: each gives the reports it reaches (a
        sink its own, a stage those of its output ports, all swept already)
        to the ports in its feeds entry."""
        reach: dict = {}
        for name in [*self.sinks, *reversed(order)]:
            sink = self.sinks.get(name)
            mine = frozenset((sink.report,)) if sink else frozenset().union(
                *(reach[PortRef(name, p)] for p in self.nodes[name].out_ports))
            reach.update(dict.fromkeys(self.feeds[name], mine))
        return reach

    def _split_reports(self, order) -> list[Violation]:
        """A SplitReport for each stage, tees aside, whose output ports reach
        different sets of reports."""
        out = []
        for name in order:
            node = self.nodes[name]
            if len(node.out_ports) < 2 or isinstance(node, TeeNode):
                continue
            by_labels: dict = {}  # reports -> the ports that reach them
            for p in node.out_ports:
                by_labels.setdefault(self._reach[PortRef(name, p)], []).append(p)
            if len(by_labels) > 1:
                out.append(Violation("SplitReport", name, "; ".join(
                    f"{', '.join(ports)} {'reach' if len(ports) > 1 else 'reaches'} "
                    f"{', '.join(sorted(labels))}" for labels, ports in by_labels.items())))
        return out

    def _apply(self, name: str, values: dict) -> tuple:
        """One stage step: gather its inputs from values (output port ->
        relation) through its feeds entry, apply, store its outputs."""
        node = self.nodes[name]
        ins = dict(zip(node.in_ports, map(values.__getitem__, self.feeds[name])))
        outs = node.apply(ins)
        for p in node.out_ports:
            values[PortRef(name, p)] = outs[p]
        return ins, outs

    def _dry_run(self, order) -> list[Violation]:
        """Push empty relations through _apply to surface schema problems early.

        The first stage that refuses gives one violation, whose kind is the
        class of the error it raised.  validate() dry-runs only a graph with
        no structural violation, so every input port is fed by a source or
        by an earlier stage.
        """
        values = {PortRef(s.name, "out"): empty(s.schema) for s in self.sources.values()}
        for name in order:
            try:
                self._apply(name, values)
            except TallyError as exc:
                return [Violation(type(exc).__name__, name, str(exc))]
        return []

    # -- execution ------------------------------------------------------

    def run(self, inputs: dict) -> RunResult:
        """Execute over the given source relations, producing sinks and audit.

        Input rows are checked here (check_rows); stage outputs are not.
        Stages run in the topological order that run's one validate() call
        found, each through _apply, as in the dry run, and audit.timings[stage]
        holds the seconds of that call.  A stage that fails on rows raises
        its error again, of the same class, with the stage named.
        """
        violations = self.validate()
        if violations:
            head = "; ".join(f"{x.kind}@{x.where}" for x in violations[:5])
            raise InvalidGraph(f"graph {self.name!r} is not runnable: {head}", violations)

        audit = RunAudit()
        values: dict[PortRef, Relation] = {}

        def record(owner: str, port: str, rel: Relation) -> PidSet:
            pids, repeats = rel.pid_record
            audit.ports.append(PortPids(owner, port, pids, repeats))
            return pids

        for name, s in self.sources.items():
            if name not in inputs:
                raise MissingInput(f"no input relation for source {name!r}")
            rel = inputs[name]
            if rel.schema != s.schema:
                raise SchemaMismatch(f"input for {name!r} does not match its declared schema")
            check_rows(s.schema, rel)
            values[PortRef(name, "out")] = rel
            try:
                audit.source_pids[name] = record(name, "out", rel)
            except TallyError as exc:
                raise type(exc)(f"source {name!r}: {exc}") from exc
            if rel.pid_record[1]:
                raise TallyError(f"source {name!r} has rows that share pid "
                                 f"{min(rel.pid_record[1])}; each source row needs its own pid")
        stray = next((name for name in inputs if name not in self.sources), None)
        if stray is not None:
            raise MissingInput(f"input {stray!r} does not name a source")
        src = audit.source_pids
        shared = next(((a, b) for a, b in combinations(src, 2) if src[a] & src[b]), None)
        if shared:
            raise TallyError(f"sources {shared[0]!r} and {shared[1]!r} share pids; each source "
                             "needs its own pids (ingest's first_pid)")
        order = self._order
        self._setup_audit(audit, inputs)

        for name in order:
            t0 = time.perf_counter()
            try:
                ins, outs = self._apply(name, values)
                audit.timings[name] = time.perf_counter() - t0
                audit.stage_visits.append(StageVisit(
                    stage=name,
                    ins={p: r.pid_record[0] for p, r in ins.items()},
                    outs={p: record(name, p, outs[p]) for p in self.nodes[name].out_ports},
                ))
            except TallyError as exc:
                raise type(exc)(f"stage {name!r}: {exc}") from exc

        sinks: dict[str, Relation] = {}
        for sink in self.sinks.values():
            rel = values[self.feeds[sink.name][0]]
            sinks[sink.name] = rel
            audit.sink_pids[sink.name] = record(sink.name, "in", rel)
        return RunResult(sinks=sinks, audit=audit)

    def _setup_audit(self, audit: RunAudit, inputs: dict) -> None:
        """Charge the ledger, order each report's sinks, and find each
        report's sources: those whose output reaches one of its sinks
        (validate()'s _report_reach)."""
        build_charges(self, audit, inputs)
        reports: dict[str, list] = {}
        for sink in self.sinks.values():
            reports.setdefault(sink.report, []).append(sink)
        for label, members in reports.items():
            canonical = [s.name for s in members if s.kind == REPORT]
            canonical += [s.name for s in members if s.kind == ERROR]
            audit.sink_order[label] = tuple(canonical)
            audit.report_sources[label] = tuple(
                s for s in self.sources if label in self._reach[PortRef(s, "out")])


def trace(audit: RunAudit, pid: int) -> tuple:
    """The (owner, port) path one source row took through the run.

    Ports come in run order (sources, stage outputs in topological order,
    sinks), each repeated once per row that carried the pid there.
    """
    if not (isinstance(pid, int) and pid >= 0
            and any(s >> pid & 1 for s in audit.source_pids.values())):
        raise UnknownPid(f"pid {pid} was never issued by a source")
    return tuple(step for e in audit.ports if e.pids >> pid & 1
                 for step in [(e.owner, e.port)] * e.repeats.get(pid, 1))


# The one map from a pipeline document's op name to its stage class.
NODE_TYPES = {
    "partition": PartitionNode,
    "tee": TeeNode,
    "tagged_union": TaggedUnionNode,
    "untag": UntagNode,
    "strip_tags": StripTagsNode,
    "project": ProjectNode,
    "rename": RenameNode,
    "dedup": DedupNode,
    "fmap": MapNode,
    "emap": MapNode,
    "errorize": ErrorizeNode,
    "join": JoinNode,
    "aggregate": AggregateNode,
}
