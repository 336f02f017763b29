"""Pipeline graphs: wired stages that route every row somewhere.

A graph is a DAG of named stages between declared sources and sinks.  The
no-forget rule is structural: every output port must be consumed exactly
once (wire it or sink it), so data cannot fall off the edge of the graph.
Execution records, for every port in run order, the pids it carried
(RunAudit.ports); stage pid sets, sink pid sets, trace() and the audit
document's paths are all read off that one record.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from .audit import build_charges
from .errors import InvalidGraph, MissingInput, SchemaMismatch, TallyError, UnknownPid
from .exprs import Pred, decode_expr, decode_pred
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
    ERROR_REASON,
    ERROR_STAGE,
    Relation,
    Schema,
    SumSchema,
    check_rows,
    empty,
    has_field,
)
from .relation import pids as rel_pids

REPORT = "report"
ERROR = "error"


@dataclass(frozen=True)
class Violation:
    """One reason a graph is not runnable; validation never raises."""

    kind: str
    where: str
    detail: str


@dataclass(frozen=True)
class PortRef:
    owner: str
    port: str

    def __str__(self) -> str:
        return f"{self.owner}.{self.port}"


@dataclass(frozen=True)
class Wire:
    src: PortRef
    dst: PortRef


# -- stage node types ---------------------------------------------------


class Node:
    """Base stage: subclasses define ports and the relation transform."""

    name: str
    in_ports: tuple[str, ...] = ("in",)
    out_ports: tuple[str, ...] = ("out",)

    @classmethod
    def from_doc(cls, nd: dict) -> Node:
        """Build the stage from its pipeline-document entry."""
        return cls(nd["name"])

    def apply(self, ins: dict) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PartitionNode(Node):
    """Split on a predicate; optionally reshape rejects onto the error rail."""

    name: str
    pred: Pred
    rejected_to_errors: bool = False
    in_ports = ("in",)
    out_ports = ("accepted", "rejected")

    @classmethod
    def from_doc(cls, nd: dict) -> Node:
        return cls(nd["name"], decode_pred(nd["when"]),
                   bool(nd.get("rejected_to_errors", False)))

    def apply(self, ins: dict) -> dict:
        acc, rej, reasons = partition_detailed(ins["in"], self.pred)
        if self.rejected_to_errors:
            rej = as_errors(rej, self.name, list(reasons))
        return {"accepted": acc, "rejected": rej}


@dataclass(frozen=True)
class TeeNode(Node):
    """Duplicate a flow so several reports can consume the same data."""

    name: str
    in_ports = ("in",)
    out_ports = ("left", "right")

    def apply(self, ins: dict) -> dict:
        return {"left": ins["in"], "right": ins["in"]}


@dataclass(frozen=True)
class TaggedUnionNode(Node):
    name: str
    label: str | None = None
    in_ports = ("left", "right")
    out_ports = ("out",)

    @classmethod
    def from_doc(cls, nd: dict) -> Node:
        return cls(nd["name"], nd.get("label"))

    def apply(self, ins: dict) -> dict:
        return {"out": tagged_union(ins["left"], ins["right"], self.label or self.name)}


@dataclass(frozen=True)
class UntagNode(Node):
    name: str
    in_ports = ("in",)
    out_ports = ("left", "right")

    def apply(self, ins: dict) -> dict:
        left, right = untag(ins["in"])
        return {"left": left, "right": right}


@dataclass(frozen=True)
class StripTagsNode(Node):
    name: str

    def apply(self, ins: dict) -> dict:
        return {"out": strip_tags(ins["in"])}


@dataclass(frozen=True)
class ProjectNode(Node):
    """Lossless narrowing: dropped fields ride along as irrelevant payload."""

    name: str
    fields: tuple

    @classmethod
    def from_doc(cls, nd: dict) -> Node:
        return cls(nd["name"], tuple(nd["fields"]))

    def apply(self, ins: dict) -> dict:
        return {"out": lossless_project(ins["in"], self.fields)}


@dataclass(frozen=True)
class RenameNode(Node):
    name: str
    mapping: dict

    @classmethod
    def from_doc(cls, nd: dict) -> Node:
        return cls(nd["name"], dict(nd["map"]))

    def apply(self, ins: dict) -> dict:
        return {"out": rename(ins["in"], self.mapping)}


@dataclass(frozen=True)
class DedupNode(Node):
    name: str

    def apply(self, ins: dict) -> dict:
        return {"out": dedup(ins["in"])}


@dataclass(frozen=True)
class MapNode(Node):
    """Enrichment stage: adds computed fields, never overwrites.

    kind "fmap" runs on ordinary rows; "emap" insists its input is on the
    error rail (has the error columns) but is otherwise the same add-only
    mapping.  sems must declare the type of every added field so that
    validation does not depend on data.
    """

    name: str
    additions: dict
    sems: dict
    kind: str = "fmap"
    units: dict | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fmap", "emap"):
            raise ValueError(f"map kind must be fmap or emap, not {self.kind!r}")
        missing = [n for n in self.additions if n not in self.sems]
        if missing:
            raise ValueError(f"map node {self.name!r} lacks sems for {missing}")

    @classmethod
    def from_doc(cls, nd: dict) -> Node:
        additions = {k: decode_expr(v) for k, v in nd["add"].items()}
        units = dict(nd["units"]) if nd.get("units") else None
        return cls(nd["name"], additions, dict(nd.get("sems") or {}),
                   kind=nd["op"], units=units)

    def apply(self, ins: dict) -> dict:
        rel = ins["in"]
        if self.kind == "emap":
            if isinstance(rel.schema, SumSchema) or not (
                    has_field(rel.schema, ERROR_STAGE) and has_field(rel.schema, ERROR_REASON)):
                raise SchemaMismatch(f"emap stage {self.name!r} needs error-rail input")
        return {"out": ops_fmap(rel, self.additions, self.sems, self.units)}


@dataclass(frozen=True)
class ErrorizeNode(Node):
    """Move rows onto the error rail with this stage's name and a fixed reason."""

    name: str
    reason: str

    @classmethod
    def from_doc(cls, nd: dict) -> Node:
        return cls(nd["name"], str(nd["reason"]))

    def apply(self, ins: dict) -> dict:
        return {"out": as_errors(ins["in"], self.name, self.reason)}


@dataclass(frozen=True)
class JoinNode(Node):
    """Equi-join with unmatched rows kept on their own ports."""

    name: str
    on: tuple
    missing_matches: bool = False

    in_ports = ("left", "right")
    out_ports = ("inner", "left_only", "right_only")

    @classmethod
    def from_doc(cls, nd: dict) -> Node:
        pairs = tuple(tuple(p) for p in nd.get("keys", ()))
        return cls(nd["name"], pairs, bool(nd.get("missing_matches", False)))

    def apply(self, ins: dict) -> dict:
        inner, left_only, right_only = outer_join(
            ins["left"], ins["right"], self.on, missing_matches=self.missing_matches
        )
        return {"inner": inner, "left_only": left_only, "right_only": right_only}


@dataclass(frozen=True)
class AggregateNode(Node):
    name: str
    group_by: tuple
    specs: tuple

    @classmethod
    def from_doc(cls, nd: dict) -> Node:
        specs = tuple(AggSpec(s["field"], s["op"]) for s in nd.get("specs", ()))
        return cls(nd["name"], tuple(nd.get("by", ())), specs)

    def apply(self, ins: dict) -> dict:
        return {"out": aggregate(ins["in"], self.group_by, self.specs)}


# -- source / sink / conservation declarations --------------------------


@dataclass(frozen=True)
class Source:
    name: str
    schema: Schema


@dataclass(frozen=True)
class Sink:
    """A declared output: either a report or an error drain of a report."""

    name: str
    kind: str
    report: str = "main"

    def __post_init__(self) -> None:
        if self.kind not in (REPORT, ERROR):
            raise ValueError(f"sink kind must be report or error, not {self.kind!r}")
        if self.report == "all":
            raise ValueError(f"sink {self.name!r}: the report label 'all' is reserved "
                             "for the run-wide check coverage:all")


@dataclass(frozen=True)
class ConservationSpec:
    """Which measure families the audit must balance.

    scheme: "count", "sum" (decimal field), "sum_by_unit" (quantity field,
    one balance per unit label), or "paccioli" (signed decimal field).
    """

    scheme: str
    fld: str | None = None

    def __post_init__(self) -> None:
        if self.scheme not in ("count", "sum", "sum_by_unit", "paccioli"):
            raise ValueError(f"unknown conservation scheme {self.scheme!r}")
        if self.scheme != "count" and not self.fld:
            raise ValueError(f"{self.scheme} conservation needs a field")


# -- the graph ----------------------------------------------------------


@dataclass(frozen=True)
class PortPids:
    """The pids one port carried during a run.

    repeats is sparse: pid -> number of rows that carried it, only for pids
    more than one row carried (a join copy, a dedup's merged duplicates).
    """

    owner: str
    port: str
    pids: frozenset
    repeats: dict


@dataclass
class StageVisit:
    """Pid movement through one stage during a run (sets shared with ports)."""

    stage: str
    ins: dict
    outs: dict


@dataclass
class RunAudit:
    """Everything a run leaves behind for auditing, minus wall-clock noise.

    ports is the one record of pid movement: a PortPids per source output,
    stage output and sink input, in run order (sources, then stage outputs
    in topological order, then sinks).  source_pids, stage_visits and
    sink_pids index the same frozensets by owner; no set is computed twice.
    """

    source_pids: dict = field(default_factory=dict)
    stage_visits: list = field(default_factory=list)
    sink_pids: dict = field(default_factory=dict)
    ports: list = field(default_factory=list)        # PortPids in run order
    charges: dict = field(default_factory=dict)      # space -> pid -> element
    space_units: dict = field(default_factory=dict)  # space -> unit element
    sink_order: dict = field(default_factory=dict)   # report -> (sinks, canonical)
    report_sources: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)      # in-memory only

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


@dataclass
class RunResult:
    sinks: dict
    audit: RunAudit


def _parse_ref(addr: str, default_port: str | None = None) -> PortRef:
    if "." in addr:
        owner, port = addr.split(".", 1)
        return PortRef(owner, port)
    if default_port is None:
        raise ValueError(f"address {addr!r} needs an explicit port")
    return PortRef(addr, default_port)


class PipelineGraph:
    """Builder and runner for one pipeline."""

    def __init__(self, name: str = "pipeline"):
        self.name = name
        self.sources: dict[str, Source] = {}
        self.nodes: dict[str, Node] = {}
        self.sinks: dict[str, Sink] = {}
        self.wires: list[Wire] = []
        self.conservation: list[ConservationSpec] = []

    # -- construction ---------------------------------------------------

    def _claim(self, name: str) -> None:
        if name in self.sources or name in self.nodes or name in self.sinks:
            raise ValueError(f"name {name!r} already used in this graph")
        if not name or "." in name:
            raise ValueError(f"bad owner name {name!r}")

    def add_source(self, name: str, schema: Schema) -> None:
        if isinstance(schema, SumSchema):
            raise SchemaMismatch(f"source {name!r} needs a plain schema, not a tagged sum")
        self._claim(name)
        self.sources[name] = Source(name, schema)

    def add_node(self, node: Node) -> None:
        self._claim(node.name)
        self.nodes[node.name] = node

    def add_sink(self, name: str, kind: str, report: str = "main") -> None:
        self._claim(name)
        self.sinks[name] = Sink(name, kind, report)

    def connect(self, src: str, dst: str) -> None:
        """Wire 'owner.port' to 'owner.port'; sources imply .out, sinks .in."""
        s = _parse_ref(src, "out" if src in self.sources else None)
        d = _parse_ref(dst, "in" if dst in self.sinks else None)
        self.wires.append(Wire(s, d))

    def add_conservation(self, scheme: str, fld: str | None = None) -> None:
        self.conservation.append(ConservationSpec(scheme, fld))

    # -- validation -----------------------------------------------------

    def _out_ports(self) -> dict:
        ports = {}
        for s in self.sources.values():
            ports[PortRef(s.name, "out")] = True
        for n in self.nodes.values():
            for p in n.out_ports:
                ports[PortRef(n.name, p)] = True
        return ports

    def _in_ports(self) -> dict:
        ports = {}
        for n in self.nodes.values():
            for p in n.in_ports:
                ports[PortRef(n.name, p)] = True
        for s in self.sinks.values():
            ports[PortRef(s.name, "in")] = True
        return ports

    def validate(self) -> list[Violation]:
        """Structural and schema checks; returns violations, raises nothing."""
        v: list[Violation] = []
        outs = self._out_ports()
        ins = self._in_ports()
        seen_src: dict[PortRef, int] = {}
        seen_dst: dict[PortRef, int] = {}
        for w in self.wires:
            if w.src not in outs:
                v.append(Violation("UnknownEndpoint", str(w.src), "no such output port"))
            if w.dst not in ins:
                v.append(Violation("UnknownEndpoint", str(w.dst), "no such input port"))
            seen_src[w.src] = seen_src.get(w.src, 0) + 1
            seen_dst[w.dst] = seen_dst.get(w.dst, 0) + 1
        for ref, n in seen_src.items():
            if n > 1 and ref in outs:
                v.append(Violation(
                    "DuplicateConsumer", str(ref),
                    f"output consumed {n} times; use a tee stage to duplicate"))
        for ref, n in seen_dst.items():
            if n > 1 and ref in ins:
                v.append(Violation("DuplicateProducer", str(ref), f"input fed {n} times"))
        for ref in outs:
            if ref not in seen_src:
                v.append(Violation("UnconsumedPort", str(ref), "every output must be wired or sunk"))
        for ref in ins:
            if ref not in seen_dst:
                v.append(Violation("UnwiredInput", str(ref), "input port never fed"))
        order, cyclic = self._topo_order()
        for name in cyclic:
            v.append(Violation("Cycle", name, "stage participates in a cycle"))
        if not v:
            v.extend(self._dry_run(order))
        return v

    def _topo_order(self):
        """Kahn's algorithm over stages; ties broken by declaration order."""
        feeds: dict[str, set[str]] = {n: set() for n in self.nodes}
        for w in self.wires:
            if w.src.owner in self.nodes and w.dst.owner in self.nodes:
                feeds[w.dst.owner].add(w.src.owner)
        order = []
        placed: set[str] = set()
        pending = dict(feeds)
        while True:
            ready = [n for n in self.nodes if n not in placed and pending[n] <= placed]
            if not ready:
                break
            for n in ready:
                order.append(n)
                placed.add(n)
        cyclic = [n for n in self.nodes if n not in placed]
        return order, cyclic

    def _incoming(self) -> dict:
        return {w.dst: w.src for w in self.wires}

    def _dry_run(self, order) -> list[Violation]:
        """Push empty relations through to surface schema problems early."""
        v: list[Violation] = []
        values: dict[PortRef, Relation] = {}
        for s in self.sources.values():
            values[PortRef(s.name, "out")] = empty(s.schema)
        incoming = self._incoming()
        for name in order:
            node = self.nodes[name]
            try:
                ins = {p: values[incoming[PortRef(name, p)]] for p in node.in_ports}
            except KeyError:
                return v  # unwired input already reported
            try:
                outs = node.apply(ins)
            except TallyError as exc:
                v.append(Violation("SchemaMismatch", name, str(exc)))
                return v
            for p in node.out_ports:
                values[PortRef(name, p)] = outs[p]
        return v

    # -- execution ------------------------------------------------------

    def run(self, inputs: dict) -> RunResult:
        """Execute over the given source relations, producing sinks and audit.

        Input rows are checked here (check_rows); stage outputs are not.
        """
        violations = self.validate()
        if violations:
            head = "; ".join(f"{x.kind}@{x.where}" for x in violations[:5])
            raise InvalidGraph(f"graph {self.name!r} is not runnable: {head}", violations)
        for s in self.sources.values():
            if s.name not in inputs:
                raise MissingInput(f"no input relation for source {s.name!r}")
            if inputs[s.name].schema != s.schema:
                raise SchemaMismatch(f"input for {s.name!r} does not match its declared schema")
            check_rows(s.schema, inputs[s.name].rows)

        audit = RunAudit()
        values: dict[PortRef, Relation] = {}
        incoming = self._incoming()
        carried: dict[int, tuple] = {}  # id(relation) -> (pids, repeats)

        def pids_of(rel: Relation) -> tuple:
            """Scan each relation once; a tee or a sink reuses what it is fed."""
            if id(rel) not in carried:
                pids, n = rel_pids(rel), Counter()
                if sum(len(rec.pids) for rec in rel.rows) > len(pids):
                    n = Counter(pid for rec in rel.rows for pid in rec.pids)
                carried[id(rel)] = (pids, {pid: k for pid, k in n.items() if k > 1})
            return carried[id(rel)]

        def record(owner: str, port: str, rel: Relation) -> frozenset:
            pids, repeats = pids_of(rel)
            audit.ports.append(PortPids(owner, port, pids, repeats))
            return pids

        for name, rel in inputs.items():
            if name not in self.sources:
                raise MissingInput(f"input {name!r} does not name a source")
            values[PortRef(name, "out")] = rel
            record(name, "out", rel)
        audit.source_pids = {name: pids_of(inputs[name])[0] for name in self.sources}
        self._setup_audit(audit, inputs)

        order, _ = self._topo_order()
        for name in order:
            node = self.nodes[name]
            ins = {}
            for p in node.in_ports:
                src = incoming[PortRef(name, p)]
                ins[p] = values[src]
            t0 = time.perf_counter()
            outs = node.apply(ins)
            audit.timings[name] = time.perf_counter() - t0
            for p in node.out_ports:
                values[PortRef(name, p)] = outs[p]
                record(name, p, outs[p])
            audit.stage_visits.append(StageVisit(
                stage=name,
                ins={p: pids_of(r)[0] for p, r in ins.items()},
                outs={p: pids_of(r)[0] for p, r in outs.items()},
            ))

        sinks: dict[str, Relation] = {}
        for sink in self.sinks.values():
            rel = values[incoming[PortRef(sink.name, "in")]]
            sinks[sink.name] = rel
            audit.sink_pids[sink.name] = record(sink.name, "in", rel)
        return RunResult(sinks=sinks, audit=audit)

    def _setup_audit(self, audit: RunAudit, inputs: dict) -> None:
        build_charges(self, audit, inputs)
        reports: dict[str, list] = {}
        for sink in self.sinks.values():
            reports.setdefault(sink.report, []).append(sink)
        for label, members in reports.items():
            canonical = [s.name for s in members if s.kind == REPORT]
            canonical += [s.name for s in members if s.kind == ERROR]
            audit.sink_order[label] = tuple(canonical)
        downstream = self._downstream_map()
        for label, members in reports.items():
            names = {s.name for s in members}
            audit.report_sources[label] = tuple(
                s for s in self.sources if downstream[s] & names)

    def _downstream_map(self) -> dict:
        """Owner -> set of sink names reachable from it."""
        adj: dict[str, set[str]] = {}
        for w in self.wires:
            adj.setdefault(w.src.owner, set()).add(w.dst.owner)
        reach: dict[str, set[str]] = {}

        def go(owner: str) -> set:
            if owner in reach:
                return reach[owner]
            found = set()
            reach[owner] = found  # cycle guard; graph is validated acyclic
            for nxt in adj.get(owner, ()):
                if nxt in self.sinks:
                    found.add(nxt)
                found |= go(nxt)
            return found

        for owner in list(self.sources) + list(self.nodes):
            go(owner)
        return reach


def trace(audit: RunAudit, pid: int) -> tuple:
    """The (owner, port) path one source row took through the run.

    Ports come in run order (sources, stage outputs in topological order,
    sinks), each repeated once per row that carried the pid there.
    """
    if not any(pid in s for s in audit.source_pids.values()):
        raise UnknownPid(f"pid {pid} was never issued by a source")
    return tuple(step for e in audit.ports if pid in e.pids
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
