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

from array import array
from collections import Counter
from functools import reduce
from itertools import repeat

from .monoid import MonoidElement, fold_payloads, fuse
from .relation import ERROR_REASON, ERROR_STAGE, REPORT, PidSet, has_field, pid_bits
from .space import carries, count_space, decimal_sum_space, paccioli_space, quantity_sum_space
from .values import Frozen, Quantity, set_field


def measure_carriers(graph, spec) -> dict:
    """The sources whose schema carries spec's measure (space.carries), in
    source order, each with the unit it declares for spec's field."""
    return {name: next((f.unit for f in s.schema if f.name == spec.fld), None)
            for name, s in graph.sources.items() if carries(s.schema, spec.scheme, spec.fld)}


def _unit_ledgers(fld: str, rels: dict, charged_at: dict) -> list:
    """(space, {carrier: ledger}) per unit label of a quantity field, sorted.

    Each carrier's column is read once.  A row with a quantity is charged
    its amount in its unit's space only, at its smallest pid (charged_at);
    a Missing cell is charged nowhere.
    """
    amounts: dict = {}  # unit -> carrier -> pid -> amount
    for name, rel in rels.items():
        for pid, v in zip(charged_at[name], rel.column(fld)):
            if isinstance(v, Quantity):
                amounts.setdefault(v.unit, {}).setdefault(name, {})[pid] = v.amount
    return [(quantity_sum_space(fld, u), {name: amounts[u].get(name, {}) for name in rels})
            for u in sorted(amounts)]


def build_charges(graph, audit, inputs: dict) -> None:
    """Record each carrier row's payload in every measure space it is charged in.

    Each carrier's column is read once per measure; a sum_by_unit field is
    read once for all of its unit labels.  A row is charged at its smallest
    pid: in every space of a count, sum or paccioli measure, and in its
    quantity's unit space of a sum_by_unit measure.  A pid with no entry
    (a multi-pid row's other pids, a Missing quantity, another source's
    pids) is read by conservation_check as the unit payload.  Each
    carrier's total per space is folded here, once per run.  validate() has
    refused a sum or paccioli whose carriers declare different units.
    """
    # each source row's smallest pid, in row order, found once for all measures
    charged_at = {name: list(map(min, inputs[name].pids)) for name in graph.sources}
    for spec in graph.conservation:
        carriers = measure_carriers(graph, spec)
        rels = {name: inputs[name] for name in carriers}
        if spec.scheme == "sum_by_unit":
            ledgers = _unit_ledgers(spec.fld, rels, charged_at)
        else:
            if spec.scheme == "count":
                space = count_space()
            elif spec.scheme == "sum":
                space = decimal_sum_space(spec.fld, next(iter(carriers.values()), None))
            else:
                space = paccioli_space(spec.fld)
            ledgers = [(space, {name: dict(zip(charged_at[name], space.payloads(rel)))
                                for name, rel in rels.items()})]
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


def _fmt_pids(bits: int) -> str:
    return "{" + ", ".join(map(str, PidSet(bits))) + "}"


def _union(sets) -> int:
    return reduce(int.__or__, sets, 0)


def attribution_classes(audit, label: str) -> dict:
    """Partition a report's pids over its sinks: first carrier wins.

    Report sinks are scanned before error sinks, each in declaration order,
    so a pid that made it into a report is counted as accounted even if an
    error copy exists elsewhere.  Each class is a PidSet.
    """
    classes: dict[str, PidSet] = {}
    attributed = 0
    for sink_name in audit.sink_order[label]:
        mine = audit.sink_pids[sink_name] & ~attributed
        classes[sink_name] = PidSet(mine)
        attributed |= mine
    return classes


def conservation_check(audit) -> ConservationReport:
    """Audit a finished run; exact equalities only, no tolerances."""
    checks: list[Check] = []

    for sv in audit.stage_visits:
        ins = _union(sv.ins.values())
        outs = _union(sv.outs.values())
        ok = ins == outs
        detail = "no pid lost or invented"
        if not ok:
            detail = f"lost {_fmt_pids(ins & ~outs)}, invented {_fmt_pids(outs & ~ins)}"
        checks.append(Check(f"stage:{sv.stage}", ok, detail))

    all_src = _union(audit.source_pids.values())
    all_snk = _union(audit.sink_pids.values())
    ok = all_src == all_snk
    detail = "every source pid reached a sink"
    if not ok:
        detail = (f"missing from sinks {_fmt_pids(all_src & ~all_snk)}, "
                  f"unknown in sinks {_fmt_pids(all_snk & ~all_src)}")
    checks.append(Check("coverage:all", ok, detail))

    for label in audit.sink_order:
        group = _union(audit.sink_pids[s] for s in audit.sink_order[label])
        src = _union(audit.source_pids[s] for s in audit.report_sources.get(label, ()))
        cov_ok = group == src
        detail = "report covers its sources"
        if not cov_ok:
            detail = (f"missing {_fmt_pids(src & ~group)}, "
                      f"foreign {_fmt_pids(group & ~src)}")
        checks.append(Check(f"coverage:{label}", cov_ok, detail))
        if not cov_ok:
            continue
        # each class is decoded once, to 8-byte ints, for every space's fold
        members = {s: array("q", c) for s, c in attribution_classes(audit, label).items()}
        sources = audit.report_sources.get(label, ())
        for space, unit in audit.space_units.items():
            charge, kind, zero = audit.charges[space], unit.kind, unit.payload
            lhs = unit
            for sink_name in audit.sink_order[label]:
                lhs = fuse(lhs, MonoidElement(kind, fold_payloads(
                    kind, map(charge.get, members[sink_name], repeat(zero)), zero), unit.unit))
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


def pid_ranges(bits: int) -> str:
    """Write a pid bitset as ascending comma-separated runs.

    A run of two or more consecutive pids is "a-b" (inclusive), a lone pid
    "a", and the empty set "": the bits of {1, 2, 3, 7, 9, 10, 11, 12} are
    "1-3,7,9-12".  A run starts at each pid whose predecessor is absent
    and ends at each pid whose successor is absent, so its starts and ends
    are two bit masks, read in step.
    """
    starts = PidSet(bits & ~(bits << 1))
    ends = PidSet(bits & ~(bits >> 1))
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in zip(starts, ends))


def path_classes(audit) -> list:
    """Group the run's pids by path: [(steps, PidSet)], by smallest pid.

    A step is (owner, port, n): n rows carried each of the pids at that
    port, and the steps follow audit.ports in run order, so a path has at
    most one step per port.  The classes are refined port by port with
    bitset operations; no per-pid path is built.
    """
    classes: dict[tuple, int] = {}
    for e in audit.ports:
        by_n: dict[int, list] = {}  # n > 1 -> the pids n rows carried here
        for pid, n in e.repeats.items():
            by_n.setdefault(n, []).append(pid)
        repeated = [(n, pid_bits(group)) for n, group in by_n.items()]
        refined: dict[tuple, int] = {}
        # the pids e carried that no class holds: a source's, or invented ones
        for steps, pids in [*classes.items(), ((), e.pids & ~_union(classes.values()))]:
            if pids & ~e.pids:
                refined[steps] = pids & ~e.pids
            hit = pids & e.pids
            for n, group in repeated:
                if hit & group:
                    refined[steps + ((e.owner, e.port, n),)] = hit & group
                    hit &= ~group
            if hit:
                refined[steps + ((e.owner, e.port, 1),)] = hit
        classes = refined
    return sorted(((steps, PidSet(pids)) for steps, pids in classes.items()),
                  key=lambda c: c[1] & -c[1])


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
                groups = Counter(zip(*(map(str, rel.column(n)) if has_field(rel.schema, n)
                                       else repeat("", len(rel)) for n in (ERROR_STAGE, ERROR_REASON))))
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
        mine = {f"coverage:{label}", *(f"measure:{label}:{space}" for space in audit.space_units)}
        entry["checks"] = [{"name": c.name, "ok": c.ok} for c in report.checks if c.name in mine]
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
