"""End-to-end acceptance gate.

Seven criteria, one test each, one printed PASS/FAIL line each.  Every
numeric comparison in this module is exact: the engine works in
fixed-point decimals, so conservation and equivalence hold with zero
tolerance or not at all.  The only pinned budget is wall-clock time for
the randomized compiler cross-check.
"""

import json
import os
import time
from collections import Counter
from decimal import Decimal
from importlib import resources
from random import Random

import pytest

from tallyflow import (
    Kind,
    Missing,
    Quantity,
    avg_of,
    count,
    fuse,
    leq,
    max_of,
    min_of,
    paccioli,
    set_of,
    sum_of,
    tuple_of,
)
from tallyflow.audit import conservation_check
from tallyflow.cli import main
from tallyflow.csvio import load_sidecar, read_table, table_schema
from tallyflow.fuzz import MAX_DEPTH, MAX_ROWS, OPERATOR_KINDS, make_case, run_fuzz
from tallyflow.monoid import unit_for
from tallyflow.ops import dedup, lossless_project
from tallyflow.pipeline_doc import build_graph, load_doc, source_files
from tallyflow.ra import translate
from tallyflow.relation import FieldSpec, field_names, ingest, pids, schema, triples

D = Decimal

ORACLE_SEED = 2026
ORACLE_CASES = 1000
ORACLE_TIME_LIMIT_S = 60.0
CONSERVATION_SAMPLE = 150
LAW_CASES_PER_KIND = 10_000
ROUNDTRIP_CASES = 1000
RERUN_FUZZ_CASES = 150


def _announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- shared fixture runs ------------------------------------------------


def fixture_dir(name: str) -> str:
    return str(resources.files("tallyflow") / "fixtures" / name)


def run_fixture(name: str):
    d = fixture_dir(name)
    doc = load_doc(os.path.join(d, "pipeline.yaml"))
    schemas, inputs, pid = {}, {}, 1
    for src, fname in source_files(doc).items():
        cols = load_sidecar(os.path.join(d, fname) + ".yaml")
        schemas[src] = table_schema(cols)
        rel, bad, pid = read_table(os.path.join(d, fname), cols,
                                   first_pid=pid, name=src)
        inputs[src] = rel
        assert len(bad) == 0, f"{name}/{src}: unexpected ingestion errors"
    graph = build_graph(doc, schemas)
    assert graph.validate() == []
    return graph, graph.run(inputs), inputs


@pytest.fixture(scope="module")
def ship_run():
    return run_fixture("ship")


@pytest.fixture(scope="module")
def lookup_run():
    return run_fixture("lookup")


# -- criterion 1: compiled queries against the reference evaluator ------


def test_criterion_1_compiled_queries_match_the_reference_evaluator(capsys):
    t0 = time.perf_counter()
    report = run_fuzz(ORACLE_SEED, ORACLE_CASES)
    elapsed = time.perf_counter() - t0

    needed = {k.__name__ for k in OPERATOR_KINDS}
    kinds_ok = needed <= set(report.kinds_seen)

    # the generator's size budget: small trees over duplicate-heavy tables
    assert MAX_DEPTH == 4
    assert MAX_ROWS == 50
    max_rows = max_cols = 0
    for i in range(0, ORACLE_CASES, 97):
        _, tables = make_case(ORACLE_SEED, i)
        for t in tables.values():
            max_rows = max(max_rows, len(t.rows))
            max_cols = max(max_cols, len(list(field_names(t.schema))))
    sizes_ok = max_rows <= 50 and max_cols <= 5

    ok = (report.failures == 0 and kinds_ok and sizes_ok
          and elapsed < ORACLE_TIME_LIMIT_S)
    _announce(capsys, 1, ok,
              f"compiled queries match the reference evaluator: "
              f"{report.iterations} seeded cases, {report.failures} failures, "
              f"{len(needed)} operator kinds all seen, "
              f"{elapsed:.1f}s (limit {ORACLE_TIME_LIMIT_S:.0f}s)")
    assert report.failures == 0, report.first_failure
    assert kinds_ok, needed - set(report.kinds_seen)
    assert sizes_ok, (max_rows, max_cols)
    assert elapsed < ORACLE_TIME_LIMIT_S


# -- criterion 2: conservation everywhere -------------------------------


def test_criterion_2_conservation_holds_for_fuzz_runs_and_fixtures(
        capsys, ship_run, lookup_run):
    problems = []
    families = set()

    for i in range(CONSERVATION_SAMPLE):
        expr, tables = make_case(77, i)
        graph = translate(expr, {n: t.schema for n, t in tables.items()})
        if graph.validate():
            problems.append(f"case 77/{i}: graph does not validate")
            continue
        result = graph.run({n: tables[n] for n in graph.sources})
        verdict = conservation_check(result.audit)
        if not verdict.ok:
            bad = next(c for c in verdict.checks if not c.ok)
            problems.append(f"case 77/{i}: {bad.name}: {bad.detail}")
        src = result.audit.all_source_pids()
        snk: set = set()
        for p in result.audit.sink_pids.values():
            snk |= p
        if src != frozenset(snk):
            problems.append(f"case 77/{i}: source pids != sink pids")
        for space in result.audit.space_units:
            families.add(space.split("[", 1)[0])

    fixture_spaces = set()
    for label, (graph, result, _) in (("ship", ship_run), ("lookup", lookup_run)):
        verdict = conservation_check(result.audit)
        if not verdict.ok:
            bad = [c.name for c in verdict.checks if not c.ok]
            problems.append(f"{label}: broken checks {bad}")
        src = result.audit.all_source_pids()
        snk = set()
        for p in result.audit.sink_pids.values():
            snk |= p
        if src != frozenset(snk):
            problems.append(f"{label}: source pids != sink pids")
        for space in result.audit.space_units:
            fixture_spaces.add(space.split("[", 1)[0])

    # the three measure families all get exercised, fixtures included
    for fam in ("count", "sum", "paccioli"):
        if fam not in families:
            problems.append(f"fuzz sample never built a {fam} space")
        if fam not in fixture_spaces:
            problems.append(f"fixtures declare no {fam} space")

    ok = not problems
    _announce(capsys, 2, ok,
              f"conservation: {CONSERVATION_SAMPLE} fuzz pipelines and both "
              f"bundled pipelines balance exactly; source pids equal sink "
              f"pids in every run")
    assert ok, problems[:5]


# -- criterion 3: summary algebra laws at scale -------------------------

_LAW_DECS = tuple(D(s) for s in (
    "-3", "-0.5000", "0", "0.0001", "1.5", "2.25", "7", "120.0625"))
_NONNEG = tuple(d for d in _LAW_DECS if d >= 0)
_SET_POOL = ("a", "b", "c", 1, 2, 3)

LAW_KINDS = (Kind.COUNT, Kind.SUM, Kind.MIN, Kind.MAX,
             Kind.AVG, Kind.SET, Kind.PACCIOLI, Kind.TUPLE)


def _elem(kind: Kind, rng: Random, unit):
    if kind is Kind.COUNT:
        return count(rng.randrange(0, 9))
    if kind is Kind.SUM:
        return sum_of(rng.choice(_LAW_DECS), unit)
    if kind is Kind.MIN:
        return min_of(rng.choice(_LAW_DECS), unit)
    if kind is Kind.MAX:
        return max_of(rng.choice(_LAW_DECS), unit)
    if kind is Kind.AVG:
        n = rng.randrange(0, 5)
        # the empty summary has nothing to total
        return avg_of(rng.choice(_LAW_DECS) if n else D(0), n, unit)
    if kind is Kind.SET:
        return set_of(rng.sample(_SET_POOL, rng.randrange(0, 4)))
    if kind is Kind.PACCIOLI:
        return paccioli(rng.choice(_NONNEG), rng.choice(_NONNEG), unit)
    return tuple_of(count(rng.randrange(0, 9)), sum_of(rng.choice(_LAW_DECS), unit))


def _bump(kind: Kind, e, rng: Random):
    """Some element that sits at or above e in the summary order."""
    if kind is Kind.COUNT:
        return count(e.payload + rng.randrange(0, 4))
    if kind is Kind.SUM:
        return sum_of(e.payload + rng.choice(_NONNEG), e.unit)
    if kind is Kind.MIN:
        return min_of(e.payload + rng.choice(_NONNEG), e.unit)
    if kind is Kind.MAX:
        # the order runs against the numbers here, so moving up means down
        return max_of(e.payload - rng.choice(_NONNEG), e.unit)
    if kind is Kind.AVG:
        total, n = e.payload
        k = rng.randrange(0, 3)
        if n + k == 0:
            return avg_of(total, n, e.unit)
        return avg_of(total + rng.choice(_NONNEG), n + k, e.unit)
    if kind is Kind.SET:
        extra = rng.sample(_SET_POOL, rng.randrange(0, 3))
        return set_of(set(e.payload) | set(extra))
    if kind is Kind.PACCIOLI:
        dr, cr = e.payload
        return paccioli(dr + rng.choice(_NONNEG), cr + rng.choice(_NONNEG), e.unit)
    c, s = e.payload
    return tuple_of(_bump(Kind.COUNT, c, rng), _bump(Kind.SUM, s, rng))


def _identity_for(kind: Kind, e):
    if kind is Kind.TUPLE:
        # componentwise: each slot carries its own unit
        return tuple_of(unit_for(Kind.COUNT), unit_for(Kind.SUM, e.payload[1].unit))
    return unit_for(kind, e.unit)


def test_criterion_3_summary_laws_hold_at_scale(capsys):
    violations = []

    def flag(kind, i, law):
        if len(violations) < 5:
            violations.append(f"{kind.name} case {i}: {law}")

    for kind in LAW_KINDS:
        rng = Random(f"laws/{kind.name}")
        for i in range(LAW_CASES_PER_KIND):
            unit = rng.choice((None, "kg", "$"))
            a = _elem(kind, rng, unit)
            b = _elem(kind, rng, unit)
            c = _elem(kind, rng, unit)

            if fuse(fuse(a, b), c) != fuse(a, fuse(b, c)):
                flag(kind, i, "associativity")
            if fuse(a, b) != fuse(b, a):
                flag(kind, i, "commutativity")

            e = _identity_for(kind, a)
            if fuse(e, a) != a or fuse(a, e) != a:
                flag(kind, i, "identity")

            if not leq(a, a):
                flag(kind, i, "order reflexivity")
            up1 = _bump(kind, a, rng)
            up2 = _bump(kind, up1, rng)
            if not (leq(a, up1) and leq(up1, up2) and leq(a, up2)):
                flag(kind, i, "order transitivity")
            if leq(a, b) and leq(b, a) and a != b:
                flag(kind, i, "order antisymmetry")

            down1 = _bump(kind, c, rng)
            if not leq(fuse(a, c), fuse(up1, down1)):
                flag(kind, i, "monotonicity of fuse")

            if kind in (Kind.MIN, Kind.MAX):
                m = fuse(a, b)
                if not (leq(m, a) and leq(m, b)):
                    flag(kind, i, "fuse as lower bound")
            if kind in (Kind.SET, Kind.COUNT):
                if not leq(a, fuse(a, b)):
                    flag(kind, i, "fuse as upper bound")

    ok = not violations
    _announce(capsys, 3, ok,
              f"summary laws: {LAW_CASES_PER_KIND} cases for each of "
              f"{len(LAW_KINDS)} kinds (associativity, identity, order, "
              f"monotonicity), {len(violations)} violations")
    assert ok, violations


# -- criterion 4: the cargo manifest's three views ----------------------


def _error_descriptions(graph, result, label: str) -> set:
    out = set()
    for sink_name in result.audit.sink_order[label]:
        if graph.sinks[sink_name].kind != "error":
            continue
        rel = result.sinks[sink_name]
        if "Description" not in set(field_names(rel.schema)):
            continue
        for rec in rel.rows:
            v = rec.fields["Description"]
            if isinstance(v, str):
                out.add(v)
    return out


def test_criterion_4_ship_reports_classify_the_manifest(capsys, ship_run):
    graph, result, _ = ship_run
    got = {label: _error_descriptions(graph, result, label)
           for label in ("insured_value", "replacement_cost", "weight")}
    want = {
        "insured_value": {"Cat", "Nut oil"},
        "replacement_cost": {"Cat", "Nut oil"},
        "weight": {"Sailors", "Cat"},
    }
    ok = got == want
    _announce(capsys, 4, ok,
              "cargo views leave out exactly the expected rows: "
              "insured_value and replacement_cost {Cat, Nut oil}, "
              "weight {Sailors, Cat}")
    assert got == want


# -- criterion 5: misspelled lookups are routed, never dropped ----------


def test_criterion_5_lookup_routes_misspellings_and_unused_references(
        capsys, lookup_run):
    graph, result, inputs = lookup_run
    problems = []

    misspelled = set()
    for rec in inputs["orders"].rows:
        if rec.fields["product"] == "Nut oli":
            misspelled |= rec.pids
    if misspelled != {3, 5, 8}:
        problems.append(f"fixture drift: misspelled order pids {misspelled}")

    missing = result.sinks["missing_products"]
    if pids(missing) != frozenset(misspelled):
        problems.append(f"missing group holds pids {sorted(pids(missing))}")
    if len(missing) != 1:
        problems.append(f"expected one summary row, got {len(missing)}")
    else:
        row = missing.rows[0]
        if row.fields["product"] != "Nut oli":
            problems.append(f"summary names {row.fields['product']!r}")
        if row.fields["error_stage"] != "unknown_product" \
                or row.fields["error_reason"] != "missing":
            problems.append("summary row lost its error grouping")
        if row.fields["quantity_unit"] != "each":
            problems.append("summary row lost its unit subdivision")
        if row.fields["quantity_sum"] != sum_of(D("5"), "each"):
            problems.append(f"quantities {row.fields['quantity_sum'].render()}")
        if row.fields["count"] != count(3):
            problems.append(f"row count {row.fields['count'].render()}")

    unused = result.sinks["unused_references"]
    unused_names = {rec.fields["product"] for rec in unused.rows}
    if unused_names != {"Nut oil", "Honey"}:
        problems.append(f"unused references {sorted(unused_names)}")
    if pids(unused) != frozenset({12, 13}):
        problems.append(f"unused reference pids {sorted(pids(unused))}")
    for rec in unused.rows:
        if rec.fields["error_stage"] != "unused_reference" \
                or rec.fields["error_reason"] != "unused":
            problems.append("unused rows lost their error grouping")

    priced = result.sinks["priced"]
    if pids(priced) != frozenset({1, 2, 4, 6, 7, 9, 10, 11}):
        problems.append(f"priced pids {sorted(pids(priced))}")

    all_src = result.audit.all_source_pids()
    all_snk: set = set()
    for p in result.audit.sink_pids.values():
        all_snk |= p
    if all_src != frozenset(range(1, 14)) or all_src != frozenset(all_snk):
        problems.append("a source pid was dropped")
    if not conservation_check(result.audit).ok:
        problems.append("conservation broken")

    ok = not problems
    _announce(capsys, 5, ok,
              "misspelled order rows all land in the missing group "
              "(3 rows, 5 each), unused references are flagged, "
              "and no pid is dropped")
    assert ok, problems


# -- criterion 6: projection never loses a fact -------------------------

_RT_SEMS = ("integer", "decimal", "text", "quantity")


def _rt_cell(rng: Random, sem: str):
    if rng.random() < 0.2:
        return Missing(rng.choice(("empty", "n/a")))
    if sem == "text":
        return rng.choice(("x", "y"))
    if sem == "integer":
        return rng.choice((0, 1))
    if sem == "decimal":
        return rng.choice((D("1.5"), D("2.25")))
    return Quantity(rng.choice((D(1), D(2))), rng.choice(("kg", "lb")))


def test_criterion_6_projection_keeps_every_fact(capsys):
    rng = Random("roundtrip/2026")
    violations = []
    for i in range(ROUNDTRIP_CASES):
        n = rng.randint(2, 5)
        sems = [rng.choice(_RT_SEMS) for _ in range(n)]
        sch = schema(*(FieldSpec(f"c{j}", sems[j]) for j in range(n)))
        rows = [{f"c{j}": _rt_cell(rng, sems[j]) for j in range(n)}
                for _ in range(rng.randint(0, 30))]
        rel = ingest(sch, rows)
        keep = rng.sample([f"c{j}" for j in range(n)], rng.randint(1, n))

        before = Counter(triples(rel))
        projected = lossless_project(rel, keep)
        if Counter(triples(projected)) != before:
            violations.append(f"case {i}: projection changed the facts")
        merged = dedup(projected)
        if Counter(triples(merged)) != before:
            violations.append(f"case {i}: dedup changed the facts")
        if pids(merged) != pids(rel):
            violations.append(f"case {i}: pid set changed")
        if len(violations) >= 5:
            break

    ok = not violations
    _announce(capsys, 6, ok,
              f"narrowing and merging keep the fact multiset: "
              f"{ROUNDTRIP_CASES} random relations, {len(violations)} violations")
    assert ok, violations


# -- criterion 7: byte-identical reruns ---------------------------------


def _run_once(fixture: str, out_dir: str, capsys) -> tuple:
    d = fixture_dir(fixture)
    rc = main(["run", os.path.join(d, "pipeline.yaml"),
               "--data", d, "--out", out_dir])
    text = capsys.readouterr().out
    files = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            files[fname] = fh.read()
    return rc, text, files


def test_criterion_7_runs_are_byte_identical(capsys, tmp_path):
    problems = []
    for fixture in ("ship", "lookup"):
        rc1, text1, files1 = _run_once(fixture, str(tmp_path / f"{fixture}1"), capsys)
        rc2, text2, files2 = _run_once(fixture, str(tmp_path / f"{fixture}2"), capsys)
        if (rc1, rc2) != (0, 0):
            problems.append(f"{fixture}: exit codes {rc1}/{rc2}")
        if text1 != text2:
            problems.append(f"{fixture}: stdout differs between runs")
        if set(files1) != set(files2):
            problems.append(f"{fixture}: file sets differ")
        else:
            for fname in files1:
                if files1[fname] != files2[fname]:
                    problems.append(f"{fixture}: {fname} differs between runs")

    fuzz_out = []
    for _ in range(2):
        rc = main(["fuzz", "--seed", "123", "--iterations", str(RERUN_FUZZ_CASES)])
        fuzz_out.append((rc, capsys.readouterr().out))
    if fuzz_out[0] != fuzz_out[1]:
        problems.append("fuzz output differs between runs")
    if fuzz_out[0][0] != 0:
        problems.append(f"fuzz exit code {fuzz_out[0][0]}")

    struct = []
    for _ in range(2):
        main(["fuzz", "--seed", "123", "--iterations", str(RERUN_FUZZ_CASES),
              "--format", "structured"])
        struct.append(capsys.readouterr().out)
    if struct[0] != struct[1]:
        problems.append("structured fuzz output differs between runs")
    json.loads(struct[0])

    ok = not problems
    _announce(capsys, 7, ok,
              "repeated pipeline runs and fuzz runs are byte-identical "
              "(sinks, dashboards, audits, stdout)")
    assert ok, problems
