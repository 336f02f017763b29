"""Conservation audits and dashboards for pipeline runs.

At ingestion each carrier row's payload in every measure space it is
charged in is recorded at its smallest pid (the ledger, RunAudit.charges),
and each carrier's payloads are folded once into its total per space
(RunAudit.totals).  After a run, checks confirm that no stage lost or
invented a pid, that every source pid of a report reached one of its sinks,
and that the ledger payloads of the pids attributed to the report's sinks
fuse to exactly the totals of its carrier sources.
Sink-side fusing attributes each pid to the first sink that carries it,
report sinks before error sinks, so fan-out never double-counts.
"""

from __future__ import annotations

from itertools import repeat

from .monoid import MonoidElement, fold_payloads, fuse
from .relation import ERROR_REASON, ERROR_STAGE, REPORT
from .space import carries, count_space, decimal_sum_space, paccioli_space, quantity_sum_space
from .values import Frozen, Quantity, set_field


def measure_carriers(graph, spec) -> dict:
    """The sources whose schema carries spec's measure (space.carries), in
    source order, each with the unit it declares for spec's field."""
    return {name: next((f.unit for f in s.schema if f.name == spec.fld), None)
            for name, s in graph.sources.items() if carries(s.schema, spec.scheme, spec.fld)}


def _unit_ledgers(fld: str, rows_of: dict, charged_at: dict) -> list:
    """(space, {carrier: ledger}) per unit label of a quantity field, sorted.

    Each carrier's cells are read once.  A row with a quantity is charged
    its amount in its unit's space only, at its smallest pid (charged_at);
    a Missing cell is charged nowhere.
    """
    amounts: dict = {}  # unit -> carrier -> pid -> amount
    for name, rows in rows_of.items():
        for pid, rec in zip(charged_at[name], rows):
            v = rec.fields[fld]
            if isinstance(v, Quantity):
                amounts.setdefault(v.unit, {}).setdefault(name, {})[pid] = v.amount
    return [(quantity_sum_space(fld, u), {name: amounts[u].get(name, {}) for name in rows_of})
            for u in sorted(amounts)]


def build_charges(graph, audit, inputs: dict) -> None:
    """Record each carrier row's payload in every measure space it is charged in.

    Each carrier's rows are read once per measure; a sum_by_unit field is
    read once for all of its unit labels.  A row is charged at its smallest
    pid: in every space of a count, sum or paccioli measure, and in its
    quantity's unit space of a sum_by_unit measure.  A pid with no entry
    (a multi-pid row's other pids, a Missing quantity, another source's
    pids) is read by conservation_check as the unit payload.  Each
    carrier's total per space is folded here, once per run.  validate() has
    refused a sum or paccioli whose carriers declare different units.
    """
    # each source row's smallest pid, in row order, found once for all measures
    charged_at = {name: [min(rec.pids) for rec in inputs[name].rows] for name in graph.sources}
    for spec in graph.conservation:
        carriers = measure_carriers(graph, spec)
        rows_of = {name: inputs[name].rows for name in carriers}
        if spec.scheme == "sum_by_unit":
            ledgers = _unit_ledgers(spec.fld, rows_of, charged_at)
        else:
            if spec.scheme == "count":
                space = count_space()
            elif spec.scheme == "sum":
                space = decimal_sum_space(spec.fld, next(iter(carriers.values()), None))
            else:
                space = paccioli_space(spec.fld)
            ledgers = [(space, {name: dict(zip(charged_at[name], map(space.payload, rows)))
                                for name, rows in rows_of.items()})]
        for space, by_carrier in ledgers:
            unit = space.unit
            charge: dict = {}
            audit.totals[space.name] = {}
            for name, mine in by_carrier.items():
                audit.totals[space.name][name] = fold_payloads(
                    unit.kind, mine.values(), unit.payload)
                charge = {**charge, **mine} if charge else mine
            audit.charges[space.name] = charge
            audit.space_units[space.name] = unit


class Check(Frozen):
    """One audited equation with its verdict."""

    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str) -> None:
        set_field(self, "name", name)
        set_field(self, "ok", ok)
        set_field(self, "detail", detail)


class ConservationReport(Frozen):
    __slots__ = ("ok", "checks")


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
        ins = frozenset().union(*sv.ins.values())
        outs = frozenset().union(*sv.outs.values())
        ok = ins == outs
        detail = "no pid lost or invented"
        if not ok:
            detail = f"lost {_fmt_pids(ins - outs)}, invented {_fmt_pids(outs - ins)}"
        checks.append(Check(f"stage:{sv.stage}", ok, detail))

    all_src = audit.all_source_pids()
    all_snk = frozenset().union(*audit.sink_pids.values())
    ok = all_src == all_snk
    detail = "every source pid reached a sink"
    if not ok:
        detail = (f"missing from sinks {_fmt_pids(all_src - all_snk)}, "
                  f"unknown in sinks {_fmt_pids(all_snk - all_src)}")
    checks.append(Check("coverage:all", ok, detail))

    for label in audit.sink_order:
        group = frozenset().union(*(audit.sink_pids[s] for s in audit.sink_order[label]))
        src = frozenset().union(
            *(audit.source_pids[s] for s in audit.report_sources.get(label, ())))
        cov_ok = group == src
        detail = "report covers its sources"
        if not cov_ok:
            detail = (f"missing {_fmt_pids(src - group)}, "
                      f"foreign {_fmt_pids(group - src)}")
        checks.append(Check(f"coverage:{label}", cov_ok, detail))
        if not cov_ok:
            continue
        classes = attribution_classes(audit, label)
        sources = audit.report_sources.get(label, ())
        for space, unit in audit.space_units.items():
            charge, kind, zero = audit.charges[space], unit.kind, unit.payload
            lhs = unit
            for sink_name in audit.sink_order[label]:
                lhs = fuse(lhs, MonoidElement(kind, fold_payloads(
                    kind, map(charge.get, classes[sink_name], repeat(zero)), zero), unit.unit))
            totals = audit.totals[space]
            rhs = MonoidElement(kind, fold_payloads(
                kind, (totals[s] for s in sources if s in totals), zero), unit.unit)
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


def path_classes(audit) -> list:
    """Group the run's pids by path: [(steps, pids)], by smallest pid.

    A step is (owner, port, n): n rows carried each of the pids at that
    port, and the steps follow audit.ports in run order, so a path has at
    most one step per port.  The classes are refined port by port with set
    operations; no per-pid path is built.
    """
    classes: dict[tuple, frozenset] = {}
    for e in audit.ports:
        refined: dict[tuple, frozenset] = {}
        reached = []  # (steps so far, pids of that class that e carried)
        for steps, pids in classes.items():
            hit = pids & e.pids
            if len(hit) < len(pids):
                refined[steps] = pids - hit if hit else pids
            if hit:
                reached.append((steps, hit))
        if sum(len(hit) for _, hit in reached) < len(e.pids):
            # a source port, or a stage that invented pids
            reached.append(((), e.pids.difference(*classes.values())))
        for steps, hit in reached:
            by_n: dict[int, set] = {}
            for pid in e.repeats.keys() & hit:
                by_n.setdefault(e.repeats[pid], set()).add(pid)
            by_n[1] = hit.difference(*by_n.values()) if by_n else hit
            for n, group in by_n.items():
                if group:
                    refined[steps + ((e.owner, e.port, n),)] = frozenset(group)
        classes = refined
    return sorted(classes.items(), key=lambda c: min(c[1]))


def audit_document(audit, report: ConservationReport) -> dict:
    """Deterministic, serializable view of a run audit (no timings).

    "paths" is the whole pid record: one entry per distinct path
    (path_classes), ordered by smallest pid.  Its "pids" is a pid_ranges
    string, and n copies of each [owner, port, n] step give what trace()
    returns for each of those pids.  Each pid of the run is written once;
    a port's pids are the union of the entries with a step at it.  The
    size follows the number of ports, distinct paths and pid runs, not of
    rows.

    report is conservation_check(audit), computed once by the caller.
    """
    return {
        "reports": {
            label: {
                "sinks": list(audit.sink_order[label]),
                "sources": list(audit.report_sources.get(label, ())),
            }
            for label in sorted(audit.sink_order)
        },
        # json writes each (owner, port, n) tuple as an array
        "paths": [
            {"steps": list(steps), "pids": pid_ranges(pids)}
            for steps, pids in path_classes(audit)
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
                    key = (str(rec.fields.get(ERROR_STAGE, "")),
                           str(rec.fields.get(ERROR_REASON, "")))
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
