"""Pipeline description documents: YAML in, runnable graph out.

A document names its sources (CSV files described by their own sidecar
documents), the processing stages, the wiring, the sinks, and which
measures the run must conserve.  load_doc reads it whole against the
declarations below and on each stage class.  build_graph assembles every
graph the package builds: a compiled query (ra.translate) is a document
too.  Keys that YAML would quietly turn into booleans (on, yes, no) are
avoided in the format.
"""

from __future__ import annotations

from .csvio import read_yaml
from .grammar import NAME, TEXT, Entry, Key, Leaf, ListOf, Mapping, Tagged, read
from .pipeline import NODE_TYPES, ConservationSpec, PipelineGraph
from .relation import REPORT

ADDRESS = Leaf("an address", (str,))  # owner or owner.port


def _node(op: str, cls) -> Entry:
    """op's entry: op, name, the stage's keys and the wiring keys (from:
    for the first in-port, one key per in-port, inputs:)."""
    ports = cls.in_ports

    def build(op, name, src, inputs, **params):
        feeds = [(src, ports[0])] + [(params.pop(p), p) for p in ports]
        feeds += [(a, p) for p, a in inputs.items()]
        if "kind" in cls._fields:  # fmap and emap share one stage class
            params["kind"] = op
        # params holds every field after name, so they all go by position
        node = cls(name, *map(params.__getitem__, cls._fields[1:]))
        return node, tuple((a, p) for a, p in feeds if a is not None)

    return Entry(f"a {op} node", {
        "op": NAME, "name": NAME, **cls.doc_keys, "from": Key(ADDRESS, "src", None),
        **{p: Key(ADDRESS, default=None) for p in ports},
        "inputs": Key(Mapping(ADDRESS, "a mapping of in-ports to addresses"), default={}),
    }, build, label=op)


NODE = Tagged("a node", "op", {op: _node(op, cls) for op, cls in NODE_TYPES.items()})

# the decoded document: name, sources (name -> file), conservation specs,
# nodes ((stage, its (address, in-port) feeds)), sinks (name -> (kind,
# report, address or None)) and wires ((from, to) addresses)
DOCUMENT = Entry("a pipeline document", {
    "name": Key(TEXT, default="pipeline"),
    "sources": Mapping(Entry("a source", {"file": TEXT}, lambda file: file),
                       "a mapping of source names to sources"),
    "conservation": Key(ListOf(Entry("a conservation entry", {
        "scheme": NAME, "field": Key(NAME, "fld", None)}, ConservationSpec),
        "a list of conservation entries"), default=()),
    "nodes": Key(ListOf(NODE, "a list of nodes"), default=()),
    "sinks": Mapping(Entry("a sink", {
        "kind": Key(NAME, default=REPORT), "report": Key(TEXT, default="main"),
        "from": Key(ADDRESS, "src", None)}, lambda kind, report, src: (kind, report, src)),
        "a mapping of sink names to sinks"),
    "wires": Key(ListOf(Entry("a wire", {
        "from": Key(ADDRESS, "src"), "to": Key(ADDRESS, "dst")}, lambda src, dst: (src, dst)),
        "a list of wires"), default=()),
}, dict)


def load_doc(path: str) -> dict:
    """The pipeline document at path, decoded (DOCUMENT)."""
    return read(DOCUMENT, read_yaml(path), path)


def source_files(doc: dict) -> dict:
    """Source name -> CSV file name, in document order."""
    return dict(doc["sources"])


def build_graph(doc: dict, schemas: dict) -> PipelineGraph:
    """Assemble a decoded document's graph; schemas maps each source to its schema."""
    g = PipelineGraph(doc["name"])
    for name in doc["sources"]:
        if name not in schemas:
            raise ValueError(f"no schema for source {name!r}")
        g.add_source(name, schemas[name])
    g.conservation.extend(doc["conservation"])
    for node, feeds in doc["nodes"]:
        g.add_node(node)
        for src, port in feeds:
            g.connect(src, f"{node.name}.{port}")
    for name, (kind, report, src) in doc["sinks"].items():
        g.add_sink(name, kind, report)
        if src is not None:
            g.connect(src, name)
    for src, dst in doc["wires"]:
        g.connect(src, dst)
    return g
