"""Run one `tallyflow` CLI job in this process with timing wrappers.

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.json -- run PIPELINE --data D --out O
    PYTHONPATH=src python3 perfbench/tracer.py --cases OUT.json -- fuzz --iterations 500

--spans wraps the public functions each module calls into, records one
span (name, start, end, parent) per call in memory, counts work at the
same boundaries, and writes everything to OUT.json after the job ends.
--cases only timestamps the start of every fuzz case, which costs two
clock reads per case, so the untraced fuzz job can report per-case
latency.  Nothing under src/ is modified: the wrappers replace module
and class attributes after import.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import Counter

import tallyflow.audit as audit_mod
import tallyflow.cli as cli_mod
import tallyflow.fuzz as fuzz_mod
import tallyflow.ra as ra_mod
from tallyflow.pipeline import NODE_TYPES, PipelineGraph, RunAudit
from tallyflow.relation import Relation

clock = time.perf_counter


class Tracer:
    """Spans and counters of one job; wrappers are installed by install()."""

    def __init__(self) -> None:
        self.spans: list = []      # [name, start, end, parent index or -1]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.times: Counter = Counter()

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(result, *args) may add to the counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self.stack.pop()
            self.counts[name + "_calls"] += 1
            if after is not None:
                after(out, *args, **kwargs)
            return out
        return wrapper

    def in_run(self) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == "pipeline.run"

    # -- counters at the wrapped boundaries ------------------------------

    def _rows_read(self, out, *args, **kwargs) -> None:
        good, bad, _ = out
        self.counts["csvio.rows_read"] += len(good) + len(bad)

    def _bytes_written(self, out, path, *args, **kwargs) -> None:
        self.counts["csvio.bytes_written"] += os.path.getsize(path)
        if os.path.basename(path) == "audit.json":
            self.counts["audit.json_bytes"] += os.path.getsize(path)

    def _translated(self, graph, *args, **kwargs) -> None:
        self.counts["ra.stages"] += len(graph.nodes)

    def _graph_run(self, result, graph, inputs) -> None:
        """Counters read off the run's audit, plus a separate build_charges.

        audit.build_charges_s times one more build_charges call on a fresh
        RunAudit.  This work is itself a span, trace.summary, which the
        benchmark subtracts from the traced job time.
        """
        rec = ["trace.summary", clock(), 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(rec)
        audit = result.audit
        self.counts["pipeline.visit_entries"] += sum(len(v) for v in audit.visits.values())
        self.counts["pipeline.stage_pid_entries"] += sum(
            len(p) for sv in audit.stage_visits
            for side in (sv.ins, sv.outs) for p in side.values())
        self.times["pipeline.stage_apply_s"] += sum(audit.timings.values())
        fresh = RunAudit()
        t0 = clock()
        audit_mod.build_charges(graph, fresh, inputs)
        self.times["audit.build_charges_s"] += clock() - t0
        self.counts["audit.charge_entries"] += sum(len(c) for c in fresh.charges.values())
        rec[2] = clock()

    def install(self) -> None:
        w = self.wrap
        for mod, attr, name, after in (
            (cli_mod, "load_doc", "pipeline_doc.build", None),
            (cli_mod, "build_graph", "pipeline_doc.build", None),
            (cli_mod, "load_sidecar", "csvio.load_sidecar", None),
            (cli_mod, "read_table", "csvio.read_table", self._rows_read),
            (cli_mod, "write_csv", "csvio.write_csv", self._bytes_written),
            (cli_mod, "write_text", "csvio.write_text", self._bytes_written),
            (cli_mod, "dashboard_document", "audit.dashboard_document", None),
            (cli_mod, "audit_document", "audit.audit_document", None),
            (cli_mod, "conservation_check", "audit.conservation_check", None),
            (audit_mod, "conservation_check", "audit.conservation_check", None),
            (ra_mod, "conservation_check", "audit.conservation_check", None),
            (ra_mod, "reference_eval", "ra.reference_eval", None),
            (ra_mod, "translate", "ra.translate", self._translated),
            (fuzz_mod, "make_case", "fuzz.make_case", None),
            (fuzz_mod, "equivalence_check", "ra.equivalence_check", None),
        ):
            setattr(mod, attr, w(name, getattr(mod, attr), after))
        cli_mod.json = _JsonProxy(w("audit.json_encode", json.dumps))
        PipelineGraph.validate = w("pipeline.validate", PipelineGraph.validate)
        PipelineGraph.run = w("pipeline.run", PipelineGraph.run, self._graph_run)

        fuse = audit_mod.fuse
        counts = self.counts

        def counted_fuse(*args):
            counts["audit.fuse_calls"] += 1
            return fuse(*args)
        audit_mod.fuse = counted_fuse

        post_init = Relation.__post_init__

        def counted_post_init(rel):
            post_init(rel)
            counts["relation.rows_constructed"] += len(rel.rows)
        Relation.__post_init__ = counted_post_init

        for cls in set(NODE_TYPES.values()):
            cls.apply = self._wrap_apply(cls.apply)

    def _wrap_apply(self, apply):
        """Span stage applies of graph.run; dry runs stay inside validate."""
        kinds = {cls: op for op, cls in NODE_TYPES.items()}
        spanned: dict = {}

        @functools.wraps(apply)
        def wrapper(node, ins):
            if not self.in_run():
                return apply(node, ins)
            kind = getattr(node, "kind", None) or kinds[type(node)]
            if kind not in spanned:
                spanned[kind] = self.wrap(f"ops.{kind}.apply", apply)
            outs = spanned[kind](node, ins)
            self.counts[f"ops.{kind}.rows_in"] += sum(len(r) for r in ins.values())
            self.counts[f"ops.{kind}.rows_out"] += sum(len(r) for r in outs.values())
            return outs
        return wrapper


class _JsonProxy:
    """Stands in for the json module inside the CLI, with dumps timed."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--spans", help="write spans and counters here")
    mode.add_argument("--cases", help="write per-case fuzz seconds here")
    p.add_argument("job", nargs=argparse.REMAINDER, help="-- then tallyflow arguments")
    args = p.parse_args(argv)
    job = args.job[1:] if args.job[:1] == ["--"] else args.job

    if args.cases:
        starts: list = []
        make_case = fuzz_mod.make_case

        def timed_make_case(*a):
            starts.append(clock())
            return make_case(*a)
        fuzz_mod.make_case = timed_make_case
        code = cli_mod.main(job)
        starts.append(clock())
        with open(args.cases, "w", encoding="utf-8") as fh:
            json.dump([b - a for a, b in zip(starts, starts[1:])], fh)
        return code

    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", cli_mod.main)(job)
    # the job ends here; the second line says how long writing this took
    post_start = clock()
    doc = {"exit_code": code, "spans": tracer.spans, "counts": dict(tracer.counts),
           "times": dict(tracer.times)}
    with open(args.spans, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")
        fh.write(json.dumps({"post_s": clock() - post_start}) + "\n")
    return code

if __name__ == "__main__":
    sys.exit(main())
