"""The traced run and its per-layer metrics.

Every per-layer metric is a total over the traced run's measured
operations divided by its round count (one round = one fresh lake
through the workload's op sequence), except ``cdc.apply.max_s`` and
``cdc.apply.skew`` (medians over ticks) and the ``trace.*`` figures.
A span or task belongs to the operation whose window holds its start.

``_s`` metrics from wrapped functions are self time (net of nested
wrapped calls) in wall seconds, each with a ``.cpu_s`` twin in process
CPU seconds. Task metrics come from Ray's task events and are wall only.
"""

from __future__ import annotations

import bisect
import os
import statistics
from collections import defaultdict

import pyarrow as pa

from . import tracing
from .workloads import measure, run_round

# a wrapped function's metrics are "<base>_s" and "<base>.cpu_s", where
# base is its span name; listing the log counts as part of pruning it
SPAN_BASE = {"sources.binlog.list": "sources.binlog.prune"}
TASK_KINDS = ("map", "apply", "delta", "compact", "lookup", "init")
# the replay planner's cap on apply groups, read as the planner reads it
MAX_SHARDS = int(os.environ.get("NIFI_RAY_MAX_SHARDS", "512"))
ACCOUNTING_TOLERANCE = 0.10


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for base in dict.fromkeys(SPAN_BASE.get(n, n) for _, _, n in tracing.TARGETS):
        out += [(f"{base}_s", "s"), (f"{base}.cpu_s", "s")]
    out += [
        ("parquet.read_bytes", "B"), ("parquet.write_bytes", "B"),
        ("parquet.write_bytes_per_event", "B/event"),
        ("stages.lww.collapse_rows_in", "count"),
        ("stages.lww.collapse_rows_out", "count"),
        ("sources.binlog.files_kept", "count"),
        ("sources.binlog.files_skipped", "count"),
        ("state.manifest.bytes", "B"),
    ]
    for k in TASK_KINDS:
        out += [(f"cdc.{k}.busy_s", "s"), (f"cdc.{k}.tasks", "count")]
    out += [
        ("cdc.apply.max_s", "s"), ("cdc.apply.skew", "ratio"),
        ("cdc.driver_s", "s"), ("cdc.driver.cpu_s", "s"),
        ("cdc.exchange_gap_s", "s"), ("cdc.task_other_s", "s"),
        ("ray.sched_wait_s", "s"), ("ray.arg_fetch_s", "s"), ("ray.store_s", "s"),
        ("trace.overhead_frac", "ratio"), ("trace.accounting_err_max", "ratio"),
        ("trace.selfcheck_failures", "count"),
    ]
    return out


def traced_run(session, w, ds, warm, warm_ds, seed, seconds, work, reference,
               untraced, ncpu: int):
    """Restart Ray with every layer wrapped, rerun the rounds, aggregate."""
    span_dir = os.path.join(work, "spans")
    os.makedirs(span_dir)
    driver = tracing.Tracer()
    # patch before the first task is submitted: remote functions are
    # pickled per session with the driver's globals at that moment
    undo = tracing.patch(driver, tracing.TARGETS + tracing.DRIVER_TARGETS)
    try:
        session.start(span_dir=span_dir)
        run_round(warm, warm_ds, 0, os.path.join(work, "warm_traced"), [])
        res = measure(w, ds, seed, seconds, work, reference, tracing=True)
        tasks = tracing.wait_for_tasks()
        session.stop()
    finally:
        undo()
    spans = driver.spans + tracing.read_worker_spans(span_dir)
    metrics, selfchecks = aggregate(w, res, spans, tasks, untraced, ncpu)
    return {"metrics": metrics, "selfchecks": selfchecks,
            "checks": res["checks"], "ops": res["ops"]}


class _Windows:
    """Maps a start time to the measured operation whose window holds it."""

    def __init__(self, ops):
        self.ops = sorted(ops, key=lambda o: o.t0)
        self.starts = [o.t0 for o in self.ops]

    def find(self, t: float):
        i = bisect.bisect_right(self.starts, t) - 1
        if i >= 0 and t <= self.ops[i].t1:
            return self.ops[i]
        return None


def aggregate(w, res, spans, tasks, untraced, ncpu: int) -> tuple[dict, dict]:
    from nifi_ray.util.hashing import partition_of

    win = _Windows(res["ops"])
    rounds = res["rounds"]
    total: dict[str, float] = defaultdict(float)
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    task_spans: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, t0, _wall, _cpu, self_wall, self_cpu, task_id, n1, n2 in spans:
        op = win.find(t0)
        if op is None:
            continue
        calls[name] += 1
        if task_id:
            task_spans[task_id] += self_wall
        if name == "ray.get":
            per_op[id(op)]["get"] += self_wall
            continue
        if not task_id:
            per_op[id(op)]["driver"] += self_wall
        base = SPAN_BASE.get(name, name)
        total[f"{base}_s"] += self_wall
        total[f"{base}.cpu_s"] += self_cpu
        if name == "parquet.read":
            total["parquet.read_bytes"] += n1
        elif name == "parquet.write":
            total["parquet.write_bytes"] += n1
            if op.kind == "tick":
                total["_tick_write_bytes"] += n1
        elif name == "stages.lww.collapse":
            total["stages.lww.collapse_rows_in"] += n1
            total["stages.lww.collapse_rows_out"] += n2
        elif name == "sources.binlog.prune":
            total["sources.binlog.files_kept"] += n1
            total["sources.binlog.files_skipped"] += n2
        elif name == "state.manifest.commit":
            total["state.manifest.bytes"] += n1

    task_count: dict[tuple[int, str], int] = defaultdict(int)
    apply_busy: dict[int, list[float]] = defaultdict(list)
    misfit = []
    for t in tasks:
        op = win.find(t["start"])
        if op is None:
            continue
        kind = t["kind"]
        task_count[(id(op), kind)] += 1
        if kind in TASK_KINDS:  # "other": Ray Data's stats actor and the like
            per_op[id(op)]["busy"] += t["busy"]
            total[f"cdc.{kind}.busy_s"] += t["busy"]
            total[f"cdc.{kind}.tasks"] += 1
        if kind == "apply":
            apply_busy[id(op)].append(t["busy"])
        total["ray.sched_wait_s"] += t["sched_wait"]
        total["ray.arg_fetch_s"] += t["arg_fetch"]
        total["ray.store_s"] += t["store"]
        inside = task_spans.get(t["task_id"], 0.0)
        total["cdc.task_other_s"] += t["busy"] - inside
        if inside > t["busy"] * 1.05 + 0.002:
            misfit.append(t["task_id"])

    ticks = [o for o in res["ops"] if o.kind == "tick"]
    # Per tick, wall = task busy + cdc.driver_s, and task busy = wrapped
    # self time in tasks + task remainder. Both sides are measured on
    # separate clocks, so check that the tasks attributed to the tick and
    # the driver's own measured pieces (wrapped calls + ray.get waits)
    # each fit in the tick's wall, within the tolerance.
    errs, over = [], []
    for i, o in enumerate(ticks):
        busy, get, drv = (per_op[id(o)][k] for k in ("busy", "get", "driver"))
        total["cdc.driver_s"] += o.dur - busy
        total["cdc.driver.cpu_s"] += o.cpu
        total["cdc.exchange_gap_s"] += get - busy
        errs.append(max(0.0, busy / o.dur - 1.0, (drv + get) / o.dur - 1.0))
        if errs[-1] > ACCOUNTING_TOLERANCE:
            over.append({"tick": i, "wall": o.dur, "task_busy": busy,
                         "driver_wrapped": drv, "ray_get": get})
    skews = [max(b) / (sum(b) / len(b)) for b in apply_busy.values() if sum(b) > 0]

    m = {k: v / rounds for k, v in total.items() if not k.startswith("_")}
    events = rounds * w.events_per_round()
    m["parquet.write_bytes_per_event"] = total["_tick_write_bytes"] / events
    m["cdc.apply.max_s"] = (statistics.median(max(b) for b in apply_busy.values())
                            if apply_busy else 0.0)
    m["cdc.apply.skew"] = statistics.median(skews) if skews else 0.0
    walls = lambda r: sum(r["round_walls"]) / r["rounds"]  # noqa: E731
    m["trace.overhead_frac"] = walls(res) / walls(untraced) - 1.0
    m["trace.accounting_err_max"] = max(errs) if errs else 0.0

    # self-checks: the trace against the lake's own lineage and plan
    lin = res["lineage"]
    publishes = sum(
        r.get("partitions_touched", 0) if r["kind"].startswith("APPLY")
        else len(r["partitions"]) if r["kind"] == "COMPACT"
        else r.get("partitions", 0)
        for r in lin
    )
    plan_bad = []
    tick_lin = [r for r in lin if r["kind"].startswith("APPLY")]
    comp_lin = [r for r in lin if r["kind"] == "COMPACT"]
    for o, r in zip(ticks, tick_lin):
        want = {"map": min(r["files_in"], ncpu),
                "delta" if w.mode == "delta" else "apply": min(w.partitions, MAX_SHARDS)}
        got = {k: task_count[(id(o), k)] for k in want}
        if got != want:
            plan_bad.append({"op": "tick", "want": want, "got": got})
    for o, r in zip([o for o in res["ops"] if o.kind == "compact"], comp_lin):
        if task_count[(id(o), "compact")] != len(r["partitions"]):
            plan_bad.append({"op": "compact", "want": len(r["partitions"]),
                             "got": task_count[(id(o), "compact")]})
    for o in res["ops"]:
        if o.kind == "init":
            want = min(w.base_files, ncpu) + w.partitions
        elif o.kind == "lookup":
            want = len(set(partition_of(pa.array(o.note, pa.string()), w.partitions)))
        else:
            continue
        if task_count[(id(o), o.kind)] != want:
            plan_bad.append({"op": o.kind, "want": want, "got": task_count[(id(o), o.kind)]})
    selfchecks = {
        "publish_calls_match_lineage": {
            "ok": calls["state.manifest.publish"] == publishes,
            "spans": calls["state.manifest.publish"], "lineage": publishes},
        "task_counts_match_plan": {"ok": not plan_bad, "mismatches": plan_bad[:5]},
        "lineage_records": {"ok": len(tick_lin) == len(ticks),
                            "ticks": len(ticks), "records": len(tick_lin)},
        "tick_wall_accounted": {
            "ok": all(e <= ACCOUNTING_TOLERANCE for e in errs),
            "tolerance": ACCOUNTING_TOLERANCE,
            "worst": max(errs) if errs else 0.0,
            "ticks_over": over[:5]},
        "spans_fit_tasks": {"ok": not misfit, "tasks_over": len(misfit)},
    }
    m["trace.selfcheck_failures"] = sum(not c["ok"] for c in selfchecks.values())
    units = dict(metric_names())
    metrics = {k: {"value": float(m.get(k, 0.0)), "unit": u} for k, u in units.items()}
    return metrics, selfchecks
