"""Command-line front end.

run    execute a pipeline document over CSV data and write every sink,
       the dashboard, and the run audit into an output directory
check  validate a pipeline document without running it
fuzz   drive randomized equivalence checks of the query compiler

Exit codes: run 0 ok / 2 bad input or wiring / 3 conservation broken;
check 0 ok / 2 violations; fuzz 0 ok / 1 divergence found / 2 bad
arguments, such as a negative --iterations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .audit import audit_document, conservation_check, dashboard_document, render_dashboard
from .csvio import load_sidecar, read_table, table_schema, write_csv, write_text
from .errors import InvalidGraph, TallyError
from .pipeline_doc import build_graph, load_doc, source_files


def _out(msg: str) -> None:
    sys.stdout.write(msg + "\n")


def _err(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _read_sidecar(name: str, csv_path: str) -> tuple:
    """The columns described beside csv_path, and the schema they declare."""
    sidecar = csv_path + ".yaml"
    if not os.path.exists(sidecar):
        raise FileNotFoundError(f"source {name!r}: no column description {sidecar}")
    cols = load_sidecar(sidecar)
    return cols, table_schema(cols)


def _ingest_errors_name(source: str) -> str:
    """The output, beside the sinks, that holds a source's unparseable rows."""
    return f"{source}_ingest_errors"


def _build_graph(doc: dict, schemas: dict):
    """build_graph, refusing a sink that would overwrite a source's ingest errors."""
    graph = build_graph(doc, schemas)
    for source in graph.sources:
        if _ingest_errors_name(source) in graph.sinks:
            raise ValueError(f"sink {_ingest_errors_name(source)!r} would overwrite "
                             f"the ingest errors of source {source!r}")
    return graph


def _load_sources(doc: dict, data_dir: str):
    """Read every source CSV; pids run in one sequence across sources."""
    schemas: dict = {}
    inputs: dict = {}
    ingest_errors: dict = {}
    pid = 1
    for name, fname in source_files(doc).items():
        csv_path = os.path.join(data_dir, fname)
        if not os.path.exists(csv_path):
            raise FileNotFoundError(f"source {name!r}: no such file {csv_path}")
        cols, schemas[name] = _read_sidecar(name, csv_path)
        rel, bad, pid = read_table(csv_path, cols, first_pid=pid, name=name)
        inputs[name] = rel
        if len(bad):
            ingest_errors[name] = bad
    return schemas, inputs, ingest_errors


def cmd_run(args) -> int:
    try:
        doc = load_doc(args.pipeline)
        schemas, inputs, ingest_errors = _load_sources(doc, args.data)
        graph = _build_graph(doc, schemas)
    except (OSError, ValueError, TallyError) as exc:
        _err(f"run: {exc}")
        return 2

    try:
        result = graph.run(inputs)
    except InvalidGraph as exc:
        for v in exc.violations:
            _err(f"run: {v.kind} at {v.where}: {v.detail}")
        return 2
    except TallyError as exc:
        _err(f"run: {exc}")
        return 2

    report = conservation_check(result.audit)
    dash = dashboard_document(graph, result, report)
    text = render_dashboard(dash)
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, rel in sorted(result.sinks.items()):
            write_csv(os.path.join(args.out, f"{name}.csv"), rel)
        for name, rel in sorted(ingest_errors.items()):
            write_csv(os.path.join(args.out, f"{_ingest_errors_name(name)}.csv"), rel)
        write_text(os.path.join(args.out, "dashboard.txt"), text)
        write_text(os.path.join(args.out, "dashboard.json"),
                   json.dumps(dash, indent=2, sort_keys=True) + "\n")
        write_text(os.path.join(args.out, "audit.json"),
                   json.dumps(audit_document(result.audit, report), indent=2,
                              sort_keys=True) + "\n")
    except OSError as exc:
        _err(f"run: {exc}")
        return 2

    if args.format == "structured":
        _out(json.dumps(dash, indent=2, sort_keys=True))
    else:
        _out(text.rstrip("\n"))

    if not report.ok:
        for c in report.checks:
            if not c.ok:
                _err(f"run: conservation broken: {c.name}: {c.detail}")
        return 3
    return 0


def cmd_check(args) -> int:
    try:
        doc = load_doc(args.pipeline)
        if not args.data:
            raise ValueError("check needs --data to find the column descriptions")
        schemas = {name: _read_sidecar(name, os.path.join(args.data, fname))[1]
                   for name, fname in source_files(doc).items()}
        graph = _build_graph(doc, schemas)
    except (OSError, ValueError, TallyError) as exc:
        _err(f"check: {exc}")
        return 2
    violations = graph.validate()
    for v in violations:
        _out(f"{v.kind} at {v.where}: {v.detail}")
    if violations:
        return 2
    _out(f"check: {graph.name}: graph is runnable "
         f"({len(graph.nodes)} stages, {len(graph.sinks)} sinks)")
    return 0


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"needs a count, 0 or more, not {text!r}")
    return int(text)


def cmd_fuzz(args) -> int:
    from .fuzz import run_fuzz  # only fuzz loads the query compiler

    report = run_fuzz(args.seed, args.iterations)
    if args.format == "structured":
        _out(json.dumps({
            "iterations": report.iterations,
            "failures": report.failures,
            "first_failure": report.first_failure,
            "kinds_seen": list(report.kinds_seen),
        }, indent=2, sort_keys=True))
    else:
        _out(f"fuzz: {report.iterations} iterations, seed {args.seed}, "
             f"{report.failures} failures")
        _out(f"fuzz: node kinds seen: {', '.join(report.kinds_seen)}")
        if report.first_failure:
            _out(f"fuzz: first failure:\n{report.first_failure}")
    return 1 if report.failures else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="tallyflow",
        description="Lossless data pipelines with conservation accounting.")
    sub = p.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("run", help="execute a pipeline over CSV data")
    rp.add_argument("pipeline", help="pipeline description document")
    rp.add_argument("--data", required=True, help="directory with source CSVs")
    rp.add_argument("--out", required=True, help="directory for sinks and reports")
    rp.add_argument("--format", choices=("text", "structured"), default="text")
    rp.set_defaults(fn=cmd_run)

    cp = sub.add_parser("check", help="validate a pipeline document")
    cp.add_argument("pipeline")
    cp.add_argument("--data", help="directory with the column descriptions")
    cp.set_defaults(fn=cmd_check)

    fp = sub.add_parser("fuzz", help="randomized compiler cross-checks")
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument("--iterations", type=_count, default=1000)
    fp.add_argument("--format", choices=("text", "structured"), default="text")
    fp.set_defaults(fn=cmd_fuzz)

    args = p.parse_args(argv)
    # A command holds every row of the run as a live object, none of which
    # can form a reference cycle, so the cyclic collector would only rescan
    # them: pause it for the one command and give the caller back its setting.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
