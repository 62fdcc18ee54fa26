"""The closed-loop workloads and the correctness gate.

One client drives ``CDCLake`` through its public API and waits for each
call to return before issuing the next (NiFi's session-commit shape).
A *round* is one fresh lake: ``init_from`` the base, one or more replay
ticks (each followed by lookups of 64 hot ids, with ``compact()`` at a
fixed tick cadence), then full scans. Every round of a workload
does identical work on identical inputs, so rounds repeat until the run
length is reached and the samples pool across rounds. After each round
the lake is checked against the DuckDB reference (untimed).

Sizes are set so that a run, three set-ups included, ends well inside
180 s on one CPU.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from . import data
from .procs import host_cpu


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_docs: int
    partitions: int
    base_files: int
    event_files: int  # log segments, one per tick (backfill: all in one tick)
    events_per_file: int
    mode: str  # replay mode: "cow" rewrites partitions, "delta" appends
    one_tick: bool  # replay the whole log in one call
    lookups_per_tick: int
    compact_every: int  # 0: never; else after ticks where i % every == every // 2
    min_rounds: int
    scans: int = 3

    def sizes(self) -> dict:
        return {k: getattr(self, k) for k in
                ("n_docs", "base_files", "event_files", "events_per_file")}

    def events_per_round(self) -> int:
        return self.event_files * self.events_per_file


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "backfill",
            "map side plus a full COW rewrite: one replay of a 480k-event Zipf backlog "
            "into a 50k-doc lake (event read, partition stamp, LWW collapse, merge, "
            "write)",
            n_docs=50_000, partitions=16, base_files=4, event_files=12,
            events_per_file=40_000, mode="cow", one_tick=True,
            lookups_per_tick=4, compact_every=0, min_rounds=3,
        ),
        Workload(
            "tail_mor_reads",
            "small ticks and reads: 10 delta ticks per lake, a 64-id lookup after "
            "each, one compaction mid-way, merge-on-read scans; driver cost grows "
            "with the log",
            n_docs=40_000, partitions=8, base_files=4, event_files=10,
            events_per_file=4_000, mode="delta", one_tick=False,
            lookups_per_tick=1, compact_every=10, min_rounds=3,
        ),
    )
}


def warm_spec(w: Workload) -> Workload:
    """A tiny round with the same code paths, run untimed after Ray starts."""
    return Workload(
        f"warm_{w.name}", "", n_docs=2_000, partitions=w.partitions, base_files=2,
        event_files=3, events_per_file=1_000, mode=w.mode, one_tick=w.one_tick,
        lookups_per_tick=1, compact_every=2 if w.compact_every else 0, min_rounds=1,
        scans=1,
    )


@dataclass
class Op:
    kind: str  # init | tick | lookup | compact | scan
    t0: float  # epoch seconds, to align with task events and worker spans
    t1: float
    dur: float  # perf_counter seconds
    cpu: float  # driver process CPU seconds
    note: object = None  # lookup: the ids asked for
    steal: float = 0.0  # CPU seconds the hypervisor took from the VM meanwhile
    round: int = 0  # index of the measured round it belongs to


def timed(ops: list, kind: str, fn, *args, note=None, **kwargs):
    s0 = host_cpu()[1]
    t0, p0, c0 = time.time(), time.perf_counter(), time.process_time()
    out = fn(*args, **kwargs)
    dur, cpu = time.perf_counter() - p0, time.process_time() - c0
    ops.append(Op(kind, t0, time.time(), dur, cpu, note, host_cpu()[1] - s0))
    return out


def scan(lake) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(lake.read().to_arrow_refs()))


def run_round(w: Workload, ds: dict, seed: int, work_dir: str, ops: list,
              lineage: list | None = None) -> dict:
    """One fresh lake through the workload's op sequence.

    Returns what the correctness gate needs. ``lineage``, when given,
    receives each tick's and compaction's newest lineage record (read
    after the op, outside its timing)."""
    from nifi_ray.pipelines.cdc import CDCLake

    lake = CDCLake(os.path.join(work_dir, "lake"))
    log = os.path.join(work_dir, "log")
    os.makedirs(log)
    m = timed(ops, "init", lake.init_from, ds["base"], num_partitions=w.partitions)
    if lineage is not None:
        lineage.append(m.lineage[-1])
    ticks = [ds["events"]] if w.one_tick else [[f] for f in ds["events"]]
    ids, found = [], None
    for i, segs in enumerate(ticks):
        for f in segs:  # the log grows by hard-linking the next segment in
            os.link(f, os.path.join(log, os.path.basename(f)))
        timed(ops, "tick", lake.replay, log, mode=w.mode)
        if lineage is not None:
            lineage.append(lake.manifest().lineage[-1])
        for j in range(w.lookups_per_tick):
            ids = data.lookup_ids(seed, w.n_docs, i * w.lookups_per_tick + j)
            found = timed(ops, "lookup", lake.lookup, ids, note=ids)
        if w.compact_every and i % w.compact_every == w.compact_every // 2:
            m = timed(ops, "compact", lake.compact)
            if lineage is not None and m is not None:
                lineage.append(m.lineage[-1])
    for _ in range(w.scans):
        final = timed(ops, "scan", scan, lake)
    return {"lake": lake, "final": final, "ids": ids, "found": found}


def check_round(out: dict, ds: dict, reference: pa.Table) -> list[tuple[str, bool]]:
    """The correctness gate: (check name, passed) for each check."""
    from nifi_ray.util.hashing import state_checksum

    cols = data.BASE_SCHEMA.names
    final = out["final"].select(cols).cast(data.BASE_SCHEMA).sort_by("doc_id")
    ref_ids = reference.filter(pa.compute.is_in(
        reference["doc_id"], value_set=pa.array(out["ids"], pa.string())))
    found = out["found"].select(cols).cast(data.BASE_SCHEMA).sort_by("doc_id")
    lake = out["lake"]
    return [
        ("row_count", final.num_rows == reference.num_rows),
        ("doc_id_set", final["doc_id"].equals(reference["doc_id"])),
        ("state_checksum", state_checksum(final) == state_checksum(reference)),
        ("rows_equal", final.equals(reference)),
        ("watermark", lake.manifest().applied_through == ds["meta"]["last_lsn"]),
        ("verify", bool(lake.verify()["ok"])),
        ("final_lookup", found.equals(ref_ids)),
    ]


MAX_MEASURE_S = 110  # stop starting rounds past this, to end within 180 s


def measure(w: Workload, ds: dict, seed: int, seconds: float, work: str,
            reference: pa.Table, tracing: bool = False, res: dict | None = None,
            min_rounds: int | None = None) -> dict:
    """Rounds until ``seconds`` of measuring and ``min_rounds`` (default:
    the workload's) are both reached, counting the rounds already in
    ``res``, which this extends and returns."""
    if res is None:
        res = {"ops": [], "lineage": [], "checks": [], "rounds": 0,
               "round_walls": [], "round_ingest": [], "round_steal": []}
    ops = res["ops"]
    min_rounds = w.min_rounds if min_rounds is None else min_rounds
    while res["rounds"] < min_rounds or sum(res["round_walls"]) < seconds:
        rdir = os.path.join(work, f"round{res['rounds']}")
        first, steal0 = len(ops), host_cpu()[1]
        t = time.perf_counter()
        out = run_round(w, ds, seed, rdir, ops, res["lineage"] if tracing else None)
        res["round_walls"].append(time.perf_counter() - t)
        res["round_steal"].append(host_cpu()[1] - steal0)
        res["round_ingest"].append(
            sum(o.dur for o in ops[first:] if o.kind in ("tick", "compact")))
        for o in ops[first:]:
            o.round = res["rounds"]
        res["checks"].extend(check_round(out, ds, reference))
        shutil.rmtree(rdir, ignore_errors=True)
        res["rounds"] += 1
        if sum(res["round_walls"]) > MAX_MEASURE_S:
            break
    return res


def load_reference(ds: dict) -> pa.Table:
    return pq.read_table(ds["reference"]).cast(data.BASE_SCHEMA).sort_by("doc_id")
