"""Conservation audits and dashboards for pipeline runs.

At ingestion every source row's measure contributions are recorded per pid
(its charges).  After a run, checks confirm that no stage lost or invented
a pid, that every source pid of a report reached one of its sinks, and
that the fused sink-side charges balance the source-side charges exactly.
Sink-side fusing attributes each pid to the first sink that carries it,
report sinks before error sinks, so fan-out never double-counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchemaMismatch
from .monoid import MonoidElement, fuse, fuse_all
from .relation import field_names
from .space import (
    DataSpace,
    count_space,
    decimal_sum_space,
    paccioli_space,
    quantity_sum_space,
    quantity_units,
)

REPORT = "report"


def _concrete_spaces(graph, inputs: dict) -> list[DataSpace]:
    spaces: list[DataSpace] = []
    for spec in graph.conservation:
        if spec.scheme == "count":
            spaces.append(count_space())
        elif spec.scheme == "sum":
            unit = None
            for s in graph.sources.values():
                for f in s.schema:
                    if f.name == spec.fld and f.unit:
                        unit = f.unit
            spaces.append(decimal_sum_space(spec.fld, unit))
        elif spec.scheme == "paccioli":
            spaces.append(paccioli_space(spec.fld))
        else:  # sum_by_unit
            units: set[str] = set()
            for name, rel in inputs.items():
                src = graph.sources.get(name)
                if src is not None and any(f.name == spec.fld for f in src.schema):
                    units.update(quantity_units(rel, spec.fld))
            for unit in sorted(units):
                spaces.append(quantity_sum_space(spec.fld, unit))
    return spaces


def build_charges(graph, audit, inputs: dict) -> None:
    """Record each source pid's contribution to every declared measure.

    A source that lacks a measure's fields contributes the unit element;
    multi-pid source rows charge their smallest pid and zero the rest.
    """
    for space in _concrete_spaces(graph, inputs):
        per_pid: dict[int, MonoidElement] = {}
        unit = space.unit
        for name, rel in inputs.items():
            if name not in graph.sources:
                continue
            names = set(field_names(rel.schema))
            has = all(f in names for f in space.requires)
            for rec in rel.rows:
                main = min(rec.pids)
                if has:
                    # same field name can carry another sem in another source
                    try:
                        elem = space.per_record(rec)
                    except SchemaMismatch:
                        elem = unit
                else:
                    elem = unit
                for pid in rec.pids:
                    per_pid[pid] = elem if pid == main else unit
        audit.charges[space.name] = per_pid
        audit.space_units[space.name] = unit


@dataclass(frozen=True)
class Check:
    """One audited equation with its verdict."""

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ConservationReport:
    ok: bool
    checks: tuple


def _fmt_pids(pids) -> str:
    return "{" + ", ".join(str(p) for p in sorted(pids)) + "}"


def attribution_classes(audit, label: str) -> dict:
    """Partition a report's pids over its sinks: first carrier wins.

    Report sinks are scanned before error sinks, each in declaration order,
    so a pid that made it into a report is counted as accounted even if an
    error copy exists elsewhere.
    """
    classes: dict[str, frozenset] = {}
    attributed: set[int] = set()
    for sink_name in audit.sink_order[label]:
        mine = audit.sink_pids[sink_name] - attributed
        classes[sink_name] = frozenset(mine)
        attributed |= mine
    return classes


def conservation_check(audit) -> ConservationReport:
    """Audit a finished run; exact equalities only, no tolerances."""
    checks: list[Check] = []

    for sv in audit.stage_visits:
        ins: set[int] = set()
        for p in sv.ins.values():
            ins |= p
        outs: set[int] = set()
        for p in sv.outs.values():
            outs |= p
        ok = ins == outs
        detail = "no pid lost or invented"
        if not ok:
            detail = f"lost {_fmt_pids(ins - outs)}, invented {_fmt_pids(outs - ins)}"
        checks.append(Check(f"stage:{sv.stage}", ok, detail))

    all_src = audit.all_source_pids()
    all_snk: set[int] = set()
    for p in audit.sink_pids.values():
        all_snk |= p
    ok = all_src == frozenset(all_snk)
    detail = "every source pid reached a sink"
    if not ok:
        detail = (f"missing from sinks {_fmt_pids(all_src - all_snk)}, "
                  f"unknown in sinks {_fmt_pids(all_snk - all_src)}")
    checks.append(Check("coverage:all", ok, detail))

    for label in audit.sink_order:
        group: set[int] = set()
        for s in audit.sink_order[label]:
            group |= audit.sink_pids[s]
        src: set[int] = set()
        for s in audit.report_sources.get(label, ()):
            src |= audit.source_pids[s]
        cov_ok = group == src
        detail = "report covers its sources"
        if not cov_ok:
            detail = (f"missing {_fmt_pids(src - group)}, "
                      f"foreign {_fmt_pids(group - src)}")
        checks.append(Check(f"coverage:{label}", cov_ok, detail))
        if not cov_ok:
            continue
        classes = attribution_classes(audit, label)
        for space, unit in audit.space_units.items():
            charge = audit.charges[space]
            lhs = unit
            for sink_name in audit.sink_order[label]:
                lhs = fuse(lhs, fuse_all(
                    (charge.get(p, unit) for p in sorted(classes[sink_name])), unit))
            rhs = fuse_all((charge.get(p, unit) for p in sorted(src)), unit)
            m_ok = lhs == rhs
            detail = f"sinks {lhs.render()} == sources {rhs.render()}"
            if not m_ok:
                detail = f"sinks {lhs.render()} != sources {rhs.render()}"
            checks.append(Check(f"measure:{label}:{space}", m_ok, detail))

    return ConservationReport(ok=all(c.ok for c in checks), checks=tuple(checks))


# -- structured documents ----------------------------------------------


def conservation_document(report: ConservationReport) -> dict:
    return {
        "ok": report.ok,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks
        ],
    }


def pid_ranges(pids) -> str:
    """Write a set of pids as ascending comma-separated runs.

    A run of two or more consecutive pids is "a-b" (inclusive), a lone pid
    "a", and the empty set "": {1, 2, 3, 7, 9, 10, 11, 12} is "1-3,7,9-12".
    """
    ordered = sorted(pids)
    starts = [i for i in range(len(ordered))
              if i == 0 or ordered[i] != ordered[i - 1] + 1]
    ends = starts[1:] + [len(ordered)]
    return ",".join(
        str(ordered[a]) if b - a == 1 else f"{ordered[a]}-{ordered[b - 1]}"
        for a, b in zip(starts, ends))


def audit_document(audit, report: ConservationReport) -> dict:
    """Deterministic, serializable view of a run audit (no timings).

    Every pid set is a pid_ranges string.  "paths" holds one entry per
    distinct (owner, port) visit sequence, ordered by its smallest pid:
    its "steps" are what trace() returns for each of its "pids", repeats
    included, and every pid of the run is in exactly one entry.  The size
    follows the number of distinct paths and pid runs, not of visits.

    report is conservation_check(audit), computed once by the caller.
    """
    paths: dict[tuple, list] = {}
    for pid in sorted(audit.visits):
        paths.setdefault(tuple(audit.visits[pid]), []).append(pid)
    return {
        "sources": {k: pid_ranges(v) for k, v in sorted(audit.source_pids.items())},
        "stages": [
            {
                "stage": sv.stage,
                "in": {p: pid_ranges(s) for p, s in sorted(sv.ins.items())},
                "out": {p: pid_ranges(s) for p, s in sorted(sv.outs.items())},
            }
            for sv in audit.stage_visits
        ],
        "sinks": {k: pid_ranges(v) for k, v in sorted(audit.sink_pids.items())},
        "reports": {
            label: {
                "sinks": list(audit.sink_order[label]),
                "sources": list(audit.report_sources.get(label, ())),
            }
            for label in sorted(audit.sink_order)
        },
        # json writes each (owner, port) tuple as an array, so no list is
        # built per step: a join can give one path tens of thousands of steps
        "paths": [
            {"steps": list(steps), "pids": pid_ranges(pids)}
            for steps, pids in paths.items()
        ],
        "conservation": conservation_document(report),
    }


def dashboard_document(graph, result, report: ConservationReport) -> dict:
    """Per-report rollup: row counts, error groupings, accounting verdicts.

    report is conservation_check(result.audit), computed once by the caller.
    """
    audit = result.audit
    by_label: dict[str, dict] = {}
    for label in sorted(audit.sink_order):
        classes = attribution_classes(audit, label)
        entry: dict = {"report_sinks": [], "error_sinks": []}
        accounted = 0
        unaccounted = 0
        for sink_name in audit.sink_order[label]:
            sink = graph.sinks[sink_name]
            rel = result.sinks[sink_name]
            if sink.kind == REPORT:
                accounted += len(classes[sink_name])
                entry["report_sinks"].append({
                    "name": sink_name,
                    "rows": len(rel),
                    "attributed_pids": len(classes[sink_name]),
                })
            else:
                unaccounted += len(classes[sink_name])
                groups: dict[tuple, int] = {}
                for rec in rel.rows:
                    key = (str(rec.fields.get("error_stage", "")),
                           str(rec.fields.get("error_reason", "")))
                    groups[key] = groups.get(key, 0) + 1
                entry["error_sinks"].append({
                    "name": sink_name,
                    "rows": len(rel),
                    "attributed_pids": len(classes[sink_name]),
                    "groups": [
                        {"stage": k[0], "reason": k[1], "rows": n}
                        for k, n in sorted(groups.items())
                    ],
                })
        entry["accounted_pids"] = accounted
        entry["unaccounted_pids"] = unaccounted
        entry["checks"] = [
            {"name": c.name, "ok": c.ok}
            for c in report.checks
            if c.name == f"coverage:{label}" or c.name.startswith(f"measure:{label}:")
        ]
        by_label[label] = entry
    return {
        "pipeline": graph.name,
        "reports": by_label,
        "conservation_ok": report.ok,
    }


def render_dashboard(doc: dict) -> str:
    """Human-readable dashboard text."""
    lines = [f"pipeline: {doc['pipeline']}",
             f"conservation: {'balanced' if doc['conservation_ok'] else 'BROKEN'}"]
    for label, entry in doc["reports"].items():
        lines.append("")
        lines.append(f"report {label}: {entry['accounted_pids']} accounted, "
                     f"{entry['unaccounted_pids']} unaccounted")
        for s in entry["report_sinks"]:
            lines.append(f"  [report] {s['name']}: {s['rows']} rows "
                         f"({s['attributed_pids']} pids)")
        for s in entry["error_sinks"]:
            lines.append(f"  [error]  {s['name']}: {s['rows']} rows "
                         f"({s['attributed_pids']} pids)")
            for g in s["groups"]:
                lines.append(f"           - {g['stage']}: {g['reason']} x{g['rows']}")
        bad = [c["name"] for c in entry["checks"] if not c["ok"]]
        if bad:
            lines.append(f"  failed checks: {', '.join(bad)}")
    return "\n".join(lines) + "\n"
