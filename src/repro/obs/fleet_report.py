"""Fleet health reporting from a decision journal.

``repro.cli fleet-report JOURNAL.jsonl`` renders the operator-facing view
of a journal produced by any instrumented run (a tuning cycle, a fleet
sweep, ``benchmarks/bench_continuous.py``):

* **decision audit** -- every advisor accept/reject with its reason, in
  sequence order, grouped by tuning cycle;
* **regression timeline** -- flagged regressions and index rollbacks over
  the journal's sequence axis;
* **digest time series** -- per-window workload digests (executions,
  CPU, discarded-data shape) per database;
* **top estimation errors** -- the worst per-node Q-errors recorded by
  EXPLAIN ANALYZE runs.

All sections derive deterministically from the record list: rendering a
journal, re-reading it from disk and rendering again yields the identical
report (the replay-determinism property ``tests/test_events.py`` pins).
"""

from __future__ import annotations

__all__ = ["render_fleet_report", "fleet_report_data", "event_line"]

#: Sequence-ordered record list -> structured report sections.


def fleet_report_data(records: list[dict], torn_tail: int = 0) -> dict:
    """The ``--json`` shape: structured sections from journal records
    (*torn_tail*: undecodable final lines the reader skipped)."""
    return {
        "events": len(records),
        "torn_tail": torn_tail,
        "types": _type_counts(records),
        "cycles": _cycles(records),
        "decisions": _decisions(records),
        "regressions": _regressions(records),
        "digests": _digests(records),
        "estimate_errors": _estimate_errors(records),
    }


def render_fleet_report(records: list[dict], torn_tail: int = 0) -> str:
    """Human-readable fleet health report."""
    data = fleet_report_data(records, torn_tail)
    sections = [
        _render_header(records, data),
        _render_cycles(data["cycles"]),
        _render_decisions(records),
        _render_regressions(records),
        _render_digests(data["digests"]),
        _render_estimate_errors(data["estimate_errors"]),
    ]
    return "\n\n".join(s for s in sections if s)


# -- section extraction ------------------------------------------------------


def _type_counts(records: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in records:
        counts[record.get("type", "?")] = counts.get(record.get("type", "?"), 0) + 1
    return dict(sorted(counts.items()))


def _cycles(records: list[dict]) -> list[dict]:
    """Pair cycle_start/cycle_end records per database, in order."""
    cycles: list[dict] = []
    open_by_db: dict[str, dict] = {}
    for record in records:
        if record["type"] == "cycle_start":
            entry = {
                "database": record.get("database", ""),
                "start_seq": record["seq"],
                "queries": record.get("queries", 0),
                "budget_bytes": record.get("budget_bytes", 0),
                "end_seq": None,
            }
            open_by_db[entry["database"]] = entry
            cycles.append(entry)
        elif record["type"] == "cycle_end":
            database = record.get("database", "")
            entry = open_by_db.pop(database, None)
            if entry is None:
                entry = {
                    "database": database,
                    "start_seq": None,
                    "queries": 0,
                    "budget_bytes": 0,
                }
                cycles.append(entry)
            entry.update(
                end_seq=record["seq"],
                created=list(record.get("created", [])),
                dropped=list(record.get("dropped", [])),
                cost_before=record.get("cost_before", 0.0),
                cost_after=record.get("cost_after", 0.0),
                improvement=record.get("improvement", 0.0),
                optimizer_calls=record.get("optimizer_calls", 0),
            )
    return cycles


def _decisions(records: list[dict]) -> list[dict]:
    out = []
    for record in records:
        if record["type"] != "advisor_decision":
            continue
        out.append(
            {
                "seq": record["seq"],
                "action": record.get("action", "?"),
                "reason": record.get("reason", ""),
                "index": record.get("index", ""),
                "table": record.get("table", ""),
                "phase": record.get("phase", ""),
                "benefit": record.get("benefit", 0.0),
                "maintenance": record.get("maintenance", 0.0),
                "size_bytes": record.get("size_bytes", 0),
                "database": record.get("database", ""),
            }
        )
    return out


def _regressions(records: list[dict]) -> list[dict]:
    out = []
    for record in records:
        if record["type"] == "regression_flagged":
            out.append(
                {
                    "seq": record["seq"],
                    "kind": "regression",
                    "database": record.get("database", ""),
                    "sql": record.get("normalized_sql", ""),
                    "ratio": record.get("ratio", 1.0),
                    "before": record.get("before_cpu_avg", 0.0),
                    "after": record.get("after_cpu_avg", 0.0),
                    "suspects": list(record.get("suspects", [])),
                }
            )
        elif record["type"] == "index_rollback":
            out.append(
                {
                    "seq": record["seq"],
                    "kind": "rollback",
                    "database": record.get("database", ""),
                    "index": record.get("index", ""),
                    "table": record.get("table", ""),
                    "reason": record.get("reason", ""),
                }
            )
    return out


def _digests(records: list[dict]) -> dict[str, list[dict]]:
    """Per-database window series of workload digests."""
    series: dict[str, list[dict]] = {}
    for record in records:
        if record["type"] != "workload_digest":
            continue
        series.setdefault(record.get("database", ""), []).append(
            {
                "seq": record["seq"],
                "window": record.get("window", 0),
                "queries": record.get("queries", 0),
                "executions": record.get("executions", 0),
                "total_cpu": record.get("total_cpu", 0.0),
                "rows_read": record.get("rows_read", 0),
                "rows_sent": record.get("rows_sent", 0),
                "top": list(record.get("top", [])),
            }
        )
    return series


def _estimate_errors(records: list[dict], limit: int = 10) -> list[dict]:
    errors = [
        {
            "seq": record["seq"],
            "sql": record.get("sql", ""),
            "node": record.get("node", ""),
            "est_rows": record.get("est_rows", 0.0),
            "actual_rows": record.get("actual_rows", 0),
            "q_error": record.get("q_error", 1.0),
        }
        for record in records
        if record["type"] == "plan_estimate"
    ]
    errors.sort(key=lambda e: (-e["q_error"], e["seq"]))
    return errors[:limit]


# -- text rendering ----------------------------------------------------------


def _render_header(records: list[dict], data: dict) -> str:
    torn = ""
    if data["torn_tail"]:
        torn = (
            f"\n  torn tail: {data['torn_tail']} undecodable final line "
            "skipped (crash mid-append)"
        )
    if not records:
        return "journal: empty (no events)" + torn
    lo, hi = records[0]["seq"], records[-1]["seq"]
    counts = ", ".join(f"{k}={v}" for k, v in data["types"].items())
    return f"journal: {len(records)} events (seq {lo}..{hi})\n  {counts}{torn}"


def _render_cycles(cycles: list[dict]) -> str:
    if not cycles:
        return ""
    lines = ["tuning cycles:"]
    for cycle in cycles:
        if cycle.get("end_seq") is None:
            lines.append(
                f"  [{cycle['start_seq']:>5}] {cycle['database'] or '-'}: "
                f"cycle open ({cycle['queries']} queries)"
            )
            continue
        created = cycle.get("created", [])
        dropped = cycle.get("dropped", [])
        lines.append(
            f"  [{_seq_range(cycle)}] {cycle['database'] or '-'}: "
            f"{cycle['queries']} queries, "
            f"+{len(created)}/-{len(dropped)} indexes, "
            f"cost {cycle.get('cost_before', 0.0):.1f} -> "
            f"{cycle.get('cost_after', 0.0):.1f} "
            f"({cycle.get('improvement', 0.0) * 100:+.1f}%)"
        )
        for name in created:
            lines.append(f"      CREATE {name}")
        for name in dropped:
            lines.append(f"      DROP   {name}")
    return "\n".join(lines)


def _seq_range(cycle: dict) -> str:
    start = cycle.get("start_seq")
    end = cycle.get("end_seq")
    if start is None:
        return f"..{end}"
    return f"{start}..{end}"


def event_line(record: dict) -> str:
    """One journal record as one report line (the decision audit and
    regression timeline here, the journal tail in ``repro top``)."""
    etype = record.get("type", "?")
    db = f" [{record['database']}]" if record.get("database") else ""
    head = f"  [{record.get('seq', '?'):>5}]{db}"
    if etype == "advisor_decision":
        accepted = record.get("action") == "accepted"
        detail = ""
        if accepted:
            detail = (
                f"  (benefit {record.get('benefit', 0.0):.3f}, "
                f"maintenance {record.get('maintenance', 0.0):.3f})"
            )
        return (
            f"{head} {'+' if accepted else '-'} {record.get('index', '')}: "
            f"{record.get('reason', '')}{detail}"
        )
    if etype == "regression_flagged":
        return (
            f"{head} REGRESSED x{record.get('ratio', 1.0):.2f} "
            f"(cpu {record.get('before_cpu_avg', 0.0):.4g} -> "
            f"{record.get('after_cpu_avg', 0.0):.4g}): "
            f"{_truncate(record.get('normalized_sql', ''))}"
        )
    if etype == "index_rollback":
        return (
            f"{head} ROLLBACK {record.get('index', '')} "
            f"({record.get('reason', '')})"
        )
    detail = [str(record[k]) for k in ("action", "index", "oracle") if record.get(k)]
    return " ".join([f"{head} {etype}"] + detail)


def _render_decisions(records: list[dict]) -> str:
    lines = [event_line(r) for r in records if r["type"] == "advisor_decision"]
    return "\n".join(["decision audit:"] + lines) if lines else ""


def _render_regressions(records: list[dict]) -> str:
    lines = ["regression timeline:"]
    for record in records:
        if record["type"] == "regression_flagged":
            suspects = ", ".join(record.get("suspects", [])) or "(none)"
            lines.append(event_line(record))
            lines.append(f"          suspects: {suspects}")
        elif record["type"] == "index_rollback":
            lines.append(event_line(record))
    if len(lines) == 1:
        lines.append("  (no regressions observed)")
    return "\n".join(lines)


def _render_digests(series: dict[str, list[dict]]) -> str:
    if not series:
        return ""
    lines = ["workload digests:"]
    for database, windows in sorted(series.items()):
        lines.append(f"  {database or '-'}:")
        lines.append(
            f"    {'window':>6} {'queries':>8} {'execs':>8} "
            f"{'cpu':>12} {'ddr':>6}"
        )
        for w in windows:
            ddr = (
                min(1.0, w["rows_sent"] / w["rows_read"])
                if w["rows_read"] > 0
                else 1.0
            )
            lines.append(
                f"    {w['window']:>6} {w['queries']:>8} {w['executions']:>8} "
                f"{w['total_cpu']:>12.4g} {ddr:>6.2f}"
            )
        tops = windows[-1].get("top", [])
        if tops:
            lines.append("    top queries (last window, by expected benefit):")
            for top in tops[:3]:
                lines.append(
                    f"      B={top.get('benefit', 0.0):.4g} "
                    f"cpu_avg={top.get('cpu_avg', 0.0):.4g} "
                    f"x{top.get('executions', 0)}: "
                    f"{_truncate(top.get('sql', ''))}"
                )
    return "\n".join(lines)


def _render_estimate_errors(errors: list[dict]) -> str:
    if not errors:
        return ""
    lines = [
        "top estimation errors (EXPLAIN ANALYZE):",
        f"  {'Q-error':>8} {'est':>10} {'actual':>10}  node",
    ]
    for e in errors:
        lines.append(
            f"  {e['q_error']:>8.2f} {e['est_rows']:>10.0f} "
            f"{e['actual_rows']:>10}  {e['node']}"
        )
        lines.append(f"           {_truncate(e['sql'])}")
    return "\n".join(lines)


def _truncate(text: str, width: int = 72) -> str:
    text = " ".join(text.split())
    return text if len(text) <= width else text[: width - 3] + "..."
