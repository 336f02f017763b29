"""Pipeline description documents: YAML in, runnable graph out.

A document names its sources (CSV files described by their own sidecar
documents), the processing stages, the wiring, the sinks, and which
measures the run must conserve.  Keys that YAML would quietly turn into
booleans (on, yes, no) are avoided in the format.
"""

from __future__ import annotations

from .csvio import read_yaml
from .errors import malformed
from .pipeline import NODE_TYPES, Node, PipelineGraph


SECTION_SHAPES = {"sources": dict, "sinks": dict,
                  "conservation": list, "nodes": list, "wires": list}


def load_doc(path: str) -> dict:
    doc = read_yaml(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a pipeline document is a mapping")
    for key in ("sources", "sinks"):
        if key not in doc:
            raise ValueError(f"{path}: missing {key!r} section")
    for key, shape in SECTION_SHAPES.items():
        if key in doc and not isinstance(doc[key], shape):
            kind = "mapping" if shape is dict else "list"
            raise ValueError(f"{path}: the {key!r} section must be a {kind}")
    return doc


def source_files(doc: dict) -> dict:
    """Source name -> CSV file name, in document order."""
    out = {}
    for name, entry in doc["sources"].items():
        if not isinstance(entry, dict) or "file" not in entry:
            raise ValueError(f"source {name!r} needs a file entry")
        if not isinstance(entry["file"], str):
            raise ValueError(f"source {name!r}: its file is text, not {entry['file']!r}")
        out[name] = entry["file"]
    return out


def _make_node(nd: dict) -> Node:
    if not isinstance(nd, dict) or not nd.get("op") or not nd.get("name"):
        raise ValueError(f"every node needs op and name: {nd!r}")
    op = nd["op"]
    if not isinstance(op, str) or op not in NODE_TYPES:
        raise ValueError(f"unknown node op {op!r}")
    with malformed(f"{op} node {nd['name']!r}"):
        try:
            return NODE_TYPES[op].from_doc(nd)
        except ValueError as exc:  # a bad value in the entry, such as {dec: soup}
            raise ValueError(f"{op} node {nd['name']!r}: {exc}") from exc


def build_graph(doc: dict, schemas: dict) -> PipelineGraph:
    """Assemble the graph; schemas maps each source name to its schema."""
    g = PipelineGraph(str(doc.get("name", "pipeline")))
    for name in doc["sources"]:
        if name not in schemas:
            raise ValueError(f"no schema for source {name!r}")
        g.add_source(name, schemas[name])
    for c in doc.get("conservation", ()):
        with malformed(f"conservation entry {c!r}"):
            g.add_conservation(c["scheme"], c.get("field"))
    for nd in doc.get("nodes", ()):
        node = _make_node(nd)
        g.add_node(node)
        with malformed(f"{nd['op']} node {node.name!r}"):
            # input wiring sugar: from: for the first port, or one key per port
            if "from" in nd:
                g.connect(str(nd["from"]), f"{node.name}.{node.in_ports[0]}")
            for port in node.in_ports:
                if port in nd:
                    g.connect(str(nd[port]), f"{node.name}.{port}")
            for port, src in (nd.get("inputs") or {}).items():
                g.connect(str(src), f"{node.name}.{port}")
    for name, sd in doc["sinks"].items():
        with malformed(f"sink {name!r}"):
            sd = sd or {}
            g.add_sink(name, sd.get("kind", "report"), sd.get("report", "main"))
            if "from" in sd:
                g.connect(str(sd["from"]), name)
    for w in doc.get("wires", ()):
        with malformed(f"wire {w!r}"):
            g.connect(str(w["from"]), str(w["to"]))
    return g
