"""End-to-end and per-layer benchmark of the tallyflow CLI.

    python3 perfbench/run.py --workload ship_fanout --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: a job is one CLI process
(`tallyflow run` or `tallyflow fuzz`), and the next job starts when the
previous one has exited.  Jobs repeat for about --seconds seconds and
every job's output goes through the correctness gate.  --trace 0 reports
the end-to-end metrics; --trace 1 alternates untraced jobs with jobs run
under perfbench/tracer.py and reports the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it list the
same figures for people.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from random import Random

from workloads import (
    ROOT,
    SRC,
    WORKLOADS,
    FuzzWorkload,
    check_fuzz,
    check_run,
    expected_counts,
    generate,
)

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
WORK = os.path.join(ROOT, ".perfbench_work")

REF_S = 0.3         # seconds the reference task takes at the reference speed
MIN_JOBS = 3        # measured jobs per run, however long they take
MIN_TRACED = 2      # (untraced, traced) job pairs per --trace 1 run

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_bytes": "bytes"}

OPS_KINDS = ("aggregate", "dedup", "errorize", "fmap", "join", "partition",
             "project", "rename", "strip_tags", "tagged_union", "tee")
SPANS = (("cli.main", "pipeline_doc.build", "csvio.load_sidecar", "csvio.read_table",
          "csvio.write_csv", "csvio.write_text", "pipeline.validate", "pipeline.run")
         + tuple(f"ops.{k}.apply" for k in OPS_KINDS)
         + ("audit.conservation_check", "audit.dashboard_document",
            "audit.audit_document", "audit.json_encode", "fuzz.make_case",
            "ra.equivalence_check", "ra.reference_eval", "ra.translate"))
# per-layer seconds that every workload spends, so none of them reads 0
LAYER_SECONDS = ("pipeline.validate_s", "pipeline.run_s", "pipeline.stage_apply_s",
                 "pipeline.bookkeeping_s", "audit.build_charges_s",
                 "audit.conservation_check_s")
COUNTERS = (("csvio.rows_read", "csvio.bytes_written", "pipeline.validate_calls",
             "pipeline.visit_entries", "pipeline.stage_pid_entries")
            + tuple(f"ops.{k}.{side}" for k in OPS_KINDS for side in ("rows_in", "rows_out"))
            + ("relation.rows_constructed", "audit.charge_entries",
               "audit.conservation_check_calls", "audit.fuse_calls", "audit.json_bytes",
               "ra.stages_per_case", "fuzz.cases"))
PER_LAYER = ({"trace.job_s": "s", "trace.overhead_share": "share"}
             | {name: "s" for name in LAYER_SECONDS}
             | {f"{name}.self_share": "share" for name in SPANS + ("process",)}
             | {name: "count" for name in COUNTERS})


@dataclass
class Job:
    exit_code: int
    wall_s: float
    rss_mb: float
    stdout: str


class Bench:
    """One benchmark run: child processes, the gate's tally, a scratch dir."""

    def __init__(self, work: str):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.base: Counter = Counter()
        self.problems: list = []
        self.n = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))

    def path(self, stem: str) -> str:
        self.n += 1
        return os.path.join(self.work, f"{stem}{self.n}")

    def spawn(self, argv: list) -> Job:
        """Run one Python child to completion; wall time and its own peak RSS."""
        out_path = self.path("stdout")
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        os.unlink(out_path)
        return Job(proc.returncode, wall, usage.ru_maxrss / 1024, stdout)

    def tally(self, kind: str, n: int, failed: int, problems=()) -> None:
        self.attempted += n
        self.failed += failed
        self.base[kind] += n
        self.problems.extend(problems)

    def setup(self, argv: list) -> float:
        """Wall seconds of one set-up command."""
        job = self.spawn(argv)
        ok = job.exit_code == 0
        self.tally("setup commands", 1, 0 if ok else 1,
                   () if ok else [f"set-up exit code {job.exit_code}"])
        return job.wall_s


def loop(seconds: float, minimum: int, step) -> None:
    """Call step() until the next call would end past `seconds`."""
    t0 = time.perf_counter()
    walls: list = []
    while len(walls) < minimum or (
            time.perf_counter() - t0 + statistics.median(walls) <= seconds):
        s0 = time.perf_counter()
        step()
        walls.append(time.perf_counter() - s0)


# -- jobs -----------------------------------------------------------------

def dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path))


class PipelineJobs:
    """`tallyflow run` over the scaled data, gated per job."""

    def __init__(self, bench: Bench, wl, seed: int, rows: int | None = None):
        self.bench = bench
        self.wl = wl
        self.data = os.path.join(bench.work, "data")
        self.expected = expected_counts(wl, generate(wl, seed, self.data, rows))

    def setup_argv(self) -> list:
        return ["-m", "tallyflow.cli", "check", self.wl.pipeline, "--data", self.data]

    def run(self, traced: bool = False):
        """One job; returns (Job, output bytes, spans file or None)."""
        out = self.bench.path("out")
        spans = self.bench.path("spans") if traced else None
        argv = (([TRACER, "--spans", spans, "--"] if traced else ["-m", "tallyflow.cli"])
                + ["run", self.wl.pipeline, "--data", self.data, "--out", out])
        job = self.bench.spawn(argv)
        problems = check_run(job.exit_code, out, self.expected) if os.path.isdir(out) \
            else [f"exit code {job.exit_code}, no output directory"]
        self.bench.tally("run jobs", 1, 1 if problems else 0, problems)
        size = (dir_bytes(out) if os.path.isdir(out) else 0) + len(job.stdout.encode())
        shutil.rmtree(out, ignore_errors=True)
        return job, size, spans


class FuzzJobs:
    """`tallyflow fuzz` jobs of the workload's fixed fuzz seed, gated per case.

    The cost of 500 fuzz cases depends strongly on the fuzz seed, so the
    seed is fixed: a run-to-run spread then measures the program and the
    machine, not the case mix.  Every job repeats the same cases.
    """

    def __init__(self, bench: Bench, wl: FuzzWorkload, cases: int | None = None):
        self.bench = bench
        self.seed = wl.seed
        self.cases = wl.cases if cases is None else cases
        self.latencies: list = []

    def setup_argv(self) -> list:
        return ["-m", "tallyflow.cli", "fuzz", "--iterations", "0"]

    def run(self, traced: bool = False):
        out = self.bench.path("spans" if traced else "cases")
        argv = [TRACER, "--spans" if traced else "--cases", out, "--",
                "fuzz", "--seed", str(self.seed), "--iterations", str(self.cases),
                "--format", "structured"]
        job = self.bench.spawn(argv)
        failed = check_fuzz(job.exit_code, job.stdout, self.cases)
        self.bench.tally("fuzz cases", self.cases, failed,
                         [f"{failed} fuzz cases failed"] if failed else [])
        if not traced and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                self.latencies.extend(json.load(fh))
            os.unlink(out)
        return job, len(job.stdout.encode()), out if traced else None


def make_jobs(bench: Bench, wl, seed: int, size: int | None = None):
    if isinstance(wl, FuzzWorkload):
        return FuzzJobs(bench, wl, size)
    return PipelineJobs(bench, wl, seed, size)


# -- measurements -----------------------------------------------------------

def reference_task() -> float:
    """Wall seconds of a fixed pure-Python task that does not use tallyflow.

    It exercises what the jobs exercise (CSV, dicts, strings, sorting,
    JSON) with the same interpreter, so a host that is busier or quieter
    slows it down or speeds it up about as much as it does the jobs.
    """
    t0 = time.perf_counter()
    rng = Random(0)
    rows = [[f"item{rng.randrange(5000)}", str(rng.randrange(10 ** 6)),
             f"{rng.random():.6f}"] for _ in range(60_000)]
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    groups: dict = {}
    for key, a, b in csv.reader(io.StringIO(buf.getvalue())):
        groups.setdefault(key, []).append((int(a), float(b)))
    summary = {k: [len(v), sum(a for a, _ in v), max(b for _, b in v)]
               for k, v in sorted(groups.items())}
    json.dumps(summary, sort_keys=True)
    return time.perf_counter() - t0


def end_to_end(bench: Bench, jobs, seconds: float) -> tuple:
    """(metrics, human-readable extra lines) with tracing off.

    Set-up commands are interleaved with the jobs, so that set-up time is
    sampled across the whole run like the jobs are.  On a shared host the
    CPU speed can drift by tens of percent within minutes, and a job's wall
    time with it.  So every step (a set-up command, then a job) is
    bracketed by runs of reference_task(), and run_s and setup_s are the
    medians of wall time / mean bracketing reference time * REF_S: seconds
    on a host where the reference task takes REF_S.  A change to tallyflow
    moves them as it moves wall time; a change in host load mostly cancels.
    """
    bench.setup(jobs.setup_argv())  # warm-up: fills the bytecode cache
    refs = [reference_task()]
    setups: list = []
    done: list = []
    runs: list = []

    def step():
        setup = bench.setup(jobs.setup_argv())
        done.append(jobs.run())
        refs.append(reference_task())
        scale = REF_S * 2 / (refs[-2] + refs[-1])
        setups.append(setup * scale)
        runs.append(done[-1][0].wall_s * scale)

    loop(seconds, MIN_JOBS, step)
    metrics = {
        "run_s": statistics.median(runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(j.rss_mb for j, _, _ in done),
        "output_bytes": statistics.median(size for _, size, _ in done),
    }
    notes = [f"jobs measured: {len(done)}, set-up commands timed: {len(setups)}",
             f"unscaled wall medians: job {statistics.median(j.wall_s for j, _, _ in done):.4f} s, "
             f"reference task {statistics.median(refs):.4f} s (REF_S {REF_S} s)"]
    if isinstance(jobs, FuzzJobs) and jobs.latencies:
        lat = jobs.latencies
        q = statistics.quantiles(lat, n=100)
        notes += [f"fuzz_cases_per_s {len(lat) / sum(lat):.1f} 1/s (over {len(lat)} "
                  f"case runs of {jobs.cases} distinct cases)",
                  f"fuzz_case_p50_ms {q[49] * 1e3:.3f} ms",
                  f"fuzz_case_p99_ms {q[98] * 1e3:.3f} ms "
                  f"({len(lat) - int(0.99 * len(lat))} case runs above)"]
    return metrics, notes


def read_spans(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        doc, post = (json.loads(line) for line in fh.read().splitlines())
    os.unlink(path)
    return doc, post["post_s"]


def layer_figures(doc: dict, post_s: float, wall_s: float) -> tuple:
    """(per-layer metrics, span table) of one traced job.

    Self time is a span's duration minus its children's.  trace.summary
    spans (the tracer's own counting) and the writing of the spans file
    are taken out of the job time; what no span covers is `process`:
    interpreter start, imports, installing the wrappers, and exit.
    """
    spans = doc["spans"]
    dur = [end - start for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent] += dur[i]
    table: dict = {}   # name -> [calls, total s, self s]
    excluded = 0.0
    for i, (name, _, _, _) in enumerate(spans):
        if name == "trace.summary":
            excluded += dur[i]
            continue
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += dur[i] - children[i]
    job_s = wall_s - post_s - excluded
    table["process"] = [1, job_s, job_s - sum(r[2] for r in table.values())]

    counts = Counter(doc["counts"])
    times = Counter(doc["times"])
    nested_validate = sum(dur[i] for i, s in enumerate(spans)
                          if s[0] == "pipeline.validate" and s[3] >= 0
                          and spans[s[3]][0] == "pipeline.run")
    run_s = table.get("pipeline.run", [0, 0.0])[1]
    cc_calls = counts["audit.conservation_check_calls"]
    m = {
        "trace.job_s": job_s,
        "pipeline.validate_s": table.get("pipeline.validate", [0, 0.0])[1],
        "pipeline.run_s": run_s,
        "pipeline.stage_apply_s": times["pipeline.stage_apply_s"],
        "pipeline.bookkeeping_s": run_s - times["pipeline.stage_apply_s"] - nested_validate,
        "audit.build_charges_s": times["audit.build_charges_s"],
        "audit.conservation_check_s": (table["audit.conservation_check"][1] / cc_calls
                                       if cc_calls else 0.0),
    }
    for name in SPANS + ("process",):
        m[f"{name}.self_share"] = table.get(name, [0, 0.0, 0.0])[2] / job_s
    cases = counts["fuzz.make_case_calls"]
    counts["ra.stages_per_case"] = counts["ra.stages"] / cases if cases else 0
    counts["fuzz.cases"] = cases
    for name in COUNTERS:
        m[name] = counts[name]
    return m, table


def per_layer(bench: Bench, jobs, seconds: float) -> tuple:
    """(metrics, human-readable lines) from alternating untraced/traced jobs."""
    traced: list = []
    overheads: list = []   # per pair, so that slow drift of the host cancels

    def pair():
        wall = jobs.run()[0].wall_s
        job, _, spans = jobs.run(traced=True)
        if os.path.exists(spans):
            doc, post_s = read_spans(spans)
            traced.append(layer_figures(doc, post_s, job.wall_s))
            overheads.append(traced[-1][0]["trace.job_s"] / wall - 1)

    loop(seconds, MIN_TRACED, pair)
    if not traced:
        raise RuntimeError(f"no traced job wrote its spans: {bench.problems[:3]}")
    metrics = {}
    for name in PER_LAYER:
        values = [m[name] for m, _ in traced if name in m]
        if name in COUNTERS:
            if len(set(values)) != 1:
                bench.problems.append(f"counter {name} differs between traced jobs: {values}")
            metrics[name] = values[0]
        elif values:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_share"] = statistics.median(overheads)

    table = traced[len(traced) // 2][1]
    lines = [f"(untraced, traced) job pairs: {len(traced)}",
             "span (one traced job)                  calls     total_s      self_s  self_share"]
    job_s = table["process"][1]
    for name, (calls, total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<36} {calls:>7} {total:>11.4f} {self_s:>11.4f} {self_s / job_s:>11.4f}")
    return metrics, lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and the scratch dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "tallyflow", "cli.py")):
        sys.stderr.write(f"perfbench: no tallyflow sources under {SRC}\n")
        return 2
    wl = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    try:
        bench = Bench(work)
        jobs = make_jobs(bench, wl, args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(bench, jobs, args.seconds)
    except RuntimeError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    base = " + ".join(f"{n} {kind}" for kind, n in bench.base.items())
    print(f"failed_share {bench.failed}/{bench.attempted} = "
          f"{bench.failed / bench.attempted:.4f} (base: {base})")
    for problem in bench.problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
