"""Seeded inputs and the output-correctness gate for the benchmark.

The two pipeline workloads scale a fixture of the package by replicating
the rows of one of its source tables.  Every template row is copied
either floor(n/k) or ceil(n/k) times, so two seeds give the same row mix
and the same amount of work; the seed decides which rows get the extra
copy, the row order, and the values that make each copy distinct.

Expected per-sink counts come from one in-process run of the unscaled
template: each template pid is attributed to its sink, and the count of
a sink is the sum of the multiplicities of its template pids.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import sys
from dataclasses import dataclass
from random import Random

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "tallyflow", "fixtures")


@dataclass(frozen=True)
class PipelineWorkload:
    """A fixture pipeline whose source `table` is scaled to `rows` rows."""

    name: str
    fixture: str
    table: str          # source file that is replicated
    rows: int

    @property
    def pipeline(self) -> str:
        return os.path.join(FIXTURES, self.fixture, "pipeline.yaml")

    @property
    def template_dir(self) -> str:
        return os.path.join(FIXTURES, self.fixture)


@dataclass(frozen=True)
class FuzzWorkload:
    """`tallyflow fuzz` jobs of `cases` cases at the fixed fuzz seed `seed`."""

    name: str
    cases: int
    seed: int


# why each workload was chosen is recorded in BENCHMARK.json and README.md
SHIP = PipelineWorkload("ship_fanout", "ship", "items.csv", 3_000)
LOOKUP = PipelineWorkload("lookup_join", "lookup", "order_details.csv", 25_000)
FUZZ = FuzzWorkload("fuzz_queries", 500, 0)

WORKLOADS = {w.name: w for w in (SHIP, LOOKUP, FUZZ)}


# -- input generation ---------------------------------------------------

def _distinct_copy(fixture: str, header: list, row: list, rng: Random,
                   fresh: list) -> list:
    """One replicated row; the copy differs from its template in one cell."""
    out = list(row)
    if fixture == "ship":
        i = header.index("Description")
        out[i] = f"{row[i]} {rng.getrandbits(32):08x}"
    else:
        out[header.index("order")] = str(fresh.pop())
    return out


def multiplicities(n_template: int, rows: int, rng: Random) -> list:
    """How often each template row is copied; every row at least once."""
    if rows < n_template:
        raise ValueError(f"need at least {n_template} rows, got {rows}")
    base, extra = divmod(rows, n_template)
    counts = [base] * n_template
    for i in rng.sample(range(n_template), extra):
        counts[i] += 1
    return counts


def generate(wl: PipelineWorkload, seed: int, out_dir: str,
             rows: int | None = None) -> list:
    """Write the scaled data directory; returns the per-template-row copies.

    Only `wl.table` is rewritten; the other fixture files are copied as
    they are.  The same (workload, seed, rows) gives byte-identical files.
    """
    rows = wl.rows if rows is None else rows
    os.makedirs(out_dir, exist_ok=True)
    for fname in sorted(os.listdir(wl.template_dir)):
        if fname != "pipeline.yaml" and fname != wl.table:
            shutil.copyfile(os.path.join(wl.template_dir, fname),
                            os.path.join(out_dir, fname))
    with open(os.path.join(wl.template_dir, wl.table), newline="",
              encoding="utf-8") as fh:
        header, *template = list(csv.reader(fh))
    rng = Random(f"{wl.name}/{seed}")
    counts = multiplicities(len(template), rows, rng)
    order = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(order)
    fresh = rng.sample(range(1_000_000, 10_000_000), rows) if wl.fixture == "lookup" else []
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for i in order:
        w.writerow(_distinct_copy(wl.fixture, header, template[i], rng, fresh))
    with open(os.path.join(out_dir, wl.table), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(buf.getvalue())
    return counts


# -- expected outputs ---------------------------------------------------

def template_attribution(wl: PipelineWorkload) -> tuple:
    """Run the unscaled template in-process.

    Returns (sink -> attributed template pids, first pid of `wl.table`).
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from tallyflow.audit import attribution_classes
    from tallyflow.csvio import load_sidecar, read_table, table_schema
    from tallyflow.pipeline_doc import build_graph, load_doc, source_files

    doc = load_doc(wl.pipeline)
    schemas, inputs = {}, {}
    pid, table_first = 1, None
    for name, fname in source_files(doc).items():
        path = os.path.join(wl.template_dir, fname)
        cols = load_sidecar(path + ".yaml")
        schemas[name] = table_schema(cols)
        if fname == wl.table:
            table_first = pid
        inputs[name], _, pid = read_table(path, cols, first_pid=pid, name=name)
    result = build_graph(doc, schemas).run(inputs)
    attributed = {}
    for label in result.audit.sink_order:
        attributed.update(attribution_classes(result.audit, label))
    return attributed, table_first


def expected_counts(wl: PipelineWorkload, counts: list) -> dict:
    """Sink -> attributed pid count the scaled run must report."""
    attributed, first = template_attribution(wl)

    def copies(pid: int) -> int:
        i = pid - first
        return counts[i] if 0 <= i < len(counts) else 1

    return {sink: sum(copies(p) for p in pids) for sink, pids in attributed.items()}


# -- the gate -----------------------------------------------------------

def check_run(exit_code: int, out_dir: str, expected: dict) -> list:
    """Problems with one `tallyflow run`; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = []
    try:
        with open(os.path.join(out_dir, "dashboard.txt"), encoding="utf-8") as fh:
            text = fh.read()
        with open(os.path.join(out_dir, "dashboard.json"), encoding="utf-8") as fh:
            dash = json.load(fh)
        got = {}
        for entry in dash["reports"].values():
            for s in entry["report_sinks"] + entry["error_sinks"]:
                got[s["name"]] = s["attributed_pids"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable dashboard: {exc}"]
    if "conservation: balanced" not in text.splitlines():
        problems.append("dashboard does not say balanced")
    for sink in sorted(set(expected) | set(got)):
        if got.get(sink) != expected.get(sink):
            problems.append(f"{sink}: attributed_pids {got.get(sink)}, "
                            f"expected {expected.get(sink)}")
    return problems


def check_fuzz(exit_code: int, stdout: str, cases: int) -> int:
    """Failed cases of one structured `tallyflow fuzz` job.

    A divergence counts once; a job that crashed or printed no report
    counts every case as failed.
    """
    try:
        report = json.loads(stdout)
    except ValueError:
        return cases
    if report.get("iterations") != cases or exit_code not in (0, 1):
        return cases
    failures = int(report.get("failures", cases))
    if (failures == 0) != (exit_code == 0):
        return cases
    return failures
