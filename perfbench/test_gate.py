"""Tests of the benchmark itself: inputs, the correctness gate, the tracer.

    python3 -m pytest perfbench -q

The negative controls show the gate going red: a tampered expected count
and a run pointed at a missing data file must each raise failed_share.
"""

import json
import os

import pytest

import run as bench_run
from workloads import FUZZ, LOOKUP, ROOT, SHIP, WORKLOADS, check_fuzz, generate


def failed_share(bench) -> float:
    return bench.failed / bench.attempted


def read_all(d) -> dict:
    return {f: open(os.path.join(d, f), "rb").read() for f in sorted(os.listdir(d))}


@pytest.mark.parametrize("wl", [SHIP, LOOKUP], ids=lambda w: w.name)
def test_same_seed_gives_byte_identical_inputs(tmp_path, wl):
    a = generate(wl, 7, str(tmp_path / "a"), rows=100)
    b = generate(wl, 7, str(tmp_path / "b"), rows=100)
    c = generate(wl, 8, str(tmp_path / "c"), rows=100)
    assert a == b and sum(a) == 100 and min(a) >= 1
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")
    assert read_all(tmp_path / "a")[wl.table] != read_all(tmp_path / "c")[wl.table]


@pytest.mark.parametrize("wl", [SHIP, LOOKUP], ids=lambda w: w.name)
def test_scaled_run_passes_the_gate(tmp_path, wl):
    bench = bench_run.Bench(str(tmp_path))
    jobs = bench_run.make_jobs(bench, wl, 3, 60)
    assert sum(jobs.expected.values()) >= 60
    jobs.run()
    assert (bench.attempted, bench.failed, bench.problems) == (1, 0, [])


def test_tampered_expected_count_fails(tmp_path):
    bench = bench_run.Bench(str(tmp_path))
    jobs = bench_run.make_jobs(bench, SHIP, 3, 60)
    jobs.expected["iv_quoted"] += 1
    jobs.run()
    assert failed_share(bench) > 0
    assert any("iv_quoted" in p for p in bench.problems)


def test_missing_data_file_fails(tmp_path):
    bench = bench_run.Bench(str(tmp_path))
    jobs = bench_run.make_jobs(bench, LOOKUP, 3, 60)
    os.unlink(os.path.join(jobs.data, LOOKUP.table))
    jobs.run()
    assert failed_share(bench) > 0


def test_fuzz_divergence_and_crash_fail():
    report = {"iterations": 10, "failures": 2, "first_failure": "x", "kinds_seen": []}
    assert check_fuzz(1, json.dumps(report), 10) == 2
    assert check_fuzz(0, json.dumps(dict(report, failures=0)), 10) == 0
    assert check_fuzz(0, json.dumps(report), 10) == 10
    assert check_fuzz(1, "Traceback ...", 10) == 10


@pytest.mark.parametrize("wl,size", [(SHIP, 60), (FUZZ, 20)], ids=["ship", "fuzz"])
def test_traced_counters_repeat_and_self_times_cover_the_job(tmp_path, wl, size):
    bench = bench_run.Bench(str(tmp_path))
    jobs = bench_run.make_jobs(bench, wl, 3, size)
    metrics, _ = bench_run.per_layer(bench, jobs, 0)
    assert bench.failed == 0 and bench.problems == []
    assert set(metrics) == set(bench_run.PER_LAYER)
    shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1, abs=0.05)
    assert metrics["process.self_share"] >= 0


def test_end_to_end_reports_every_metric_scaled_to_the_reference(tmp_path):
    bench = bench_run.Bench(str(tmp_path))
    jobs = bench_run.make_jobs(bench, FUZZ, 3, 20)
    metrics, notes = bench_run.end_to_end(bench, jobs, 0)
    assert bench.failed == 0 and bench.problems == []
    assert set(metrics) == set(bench_run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert any(line.startswith("unscaled wall medians") for line in notes)


def test_benchmark_json_matches_what_run_py_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER
