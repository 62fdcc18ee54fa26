"""Sustained ticked-replay demonstration — the 10^10-event regime in
miniature: many commits against one lake, steady-state rate, and the
COW-vs-delta write-amplification comparison the merge-on-read mode
exists for.

    python tools/sustained_replay.py [--events 16000000] [--docs 1000000]
        [--partitions 64] [--tick 2000000] [--mode cow|delta]
        [--compact-every 4] [--work DIR]

Prints one JSON line per tick (wall, events/s, bytes written,
``files_written``: the distinct data files the tick wrote, and
``lookup_s``: the wall time of one 64-id ``lookup`` of the same
evenly spread base ids after the tick, which traces point-read cost
against delta depth) and a summary line with apply and compaction
bytes per event and the final ``verify()`` result; results recorded
in BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--events", type=int, default=16_000_000)
    p.add_argument("--docs", type=int, default=1_000_000)
    p.add_argument("--partitions", type=int, default=64)
    p.add_argument("--tick", type=int, default=2_000_000)
    p.add_argument("--mode", choices=["cow", "delta"], default="cow")
    p.add_argument("--compact-every", type=int, default=0)
    p.add_argument(
        "--retain",
        type=int,
        default=0,
        help="keep only the newest N manifest versions: after every tick "
        "run expire_versions(keep_last=N) + gc_orphans, recording GC'd "
        "file counts/bytes and manifest-chain size — the long-horizon "
        "(thousands-of-commits) regime evidence",
    )
    p.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    p.add_argument("--keep", action="store_true", help="keep the lake dir")
    p.add_argument(
        "--work", default=None,
        help="directory for generated inputs and the lake "
        "(default /tmp/nifi_ray_sustained_<docs>_<events>)",
    )
    p.add_argument(
        "--maintain",
        action="store_true",
        help="also maintain a materialized GROUP BY view and a MinHash/"
        "LSH near-dup index, refreshing both after every tick — records"
        " per-tick refresh cost (the O(delta) maintenance claim)",
    )
    args = p.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import numpy as np

    from bench import gen_bench_data, warm_workers
    from nifi_ray.gen import GenConfig, _doc_ids_from_index
    from nifi_ray.pipelines.cdc import CDCLake

    cfg = GenConfig(seed=42, n_docs=args.docs, n_events=args.events)
    work = args.work or f"/tmp/nifi_ray_sustained_{args.docs}_{args.events}"
    base_dir, ev_dir = f"{work}/base", f"{work}/events"
    warm_workers(args.num_cpus)
    gen_bench_data(cfg, base_dir, ev_dir, shards=64)

    lake_dir = f"{work}/lake_{args.mode}"
    shutil.rmtree(lake_dir, ignore_errors=True)
    lake = CDCLake(lake_dir)
    t0 = time.perf_counter()
    lake.init_from(base_dir, num_partitions=args.partitions)
    print(json.dumps({"event": "INIT", "wall_sec": round(time.perf_counter() - t0, 2)}))
    if args.maintain:
        t0 = time.perf_counter()
        lake.create_aggregate(
            "by_source", ["source"], ["n_tok", "token_sum"],
            [["token_sum", "list_sum", "tokens"]],
        )
        agg_create = time.perf_counter() - t0
        t0 = time.perf_counter()
        lake.create_dedup_index("nd", num_hashes=64, bands=16, num_buckets=256)
        index_create = time.perf_counter() - t0
        t0 = time.perf_counter()
        lake.create_ann_index("ann", dim=16, n_cells=64, seed=7, sample=512)
        print(json.dumps({
            "event": "MAINTAIN_CREATE",
            "agg_create_sec": round(agg_create, 2),
            "index_create_sec": round(index_create, 2),
            "ann_create_sec": round(time.perf_counter() - t0, 2),
        }))

    lookup_ids = _doc_ids_from_index(
        np.linspace(0, args.docs - 1, 64).astype(np.int64)
    ).to_pylist()
    ticks = []
    tick_no = 0
    while True:
        lo = lake.manifest().applied_through
        if lo >= args.events:
            break
        hi = min(lo + args.tick, args.events)
        t0 = time.perf_counter()
        st = lake.replay(ev_dir, lsn_hi=hi, mode=args.mode)
        wall = time.perf_counter() - t0
        tick_no += 1
        rec = {
            "event": "TICK",
            "n": tick_no,
            "events": st.events_applied if st else 0,
            "wall_sec": round(wall, 2),
            "events_per_sec": round((st.events_applied if st else 0) / wall, 1),
            "bytes_written": lake.manifest().lineage[-1].get("bytes_written", 0),
            "files_written": len(set(lake.manifest().lineage[-1].get("files_out", []))),
        }
        t0 = time.perf_counter()
        lake.lookup(lookup_ids)
        rec["lookup_s"] = round(time.perf_counter() - t0, 4)
        if args.maintain:
            t0 = time.perf_counter()
            lake.refresh_aggregate("by_source")
            rec["agg_refresh_sec"] = round(time.perf_counter() - t0, 2)
            t0 = time.perf_counter()
            lake.refresh_dedup_index("nd")
            rec["index_refresh_sec"] = round(time.perf_counter() - t0, 2)
            t0 = time.perf_counter()
            lake.refresh_ann_index("ann")
            rec["ann_refresh_sec"] = round(time.perf_counter() - t0, 2)
        if args.mode == "delta" and args.compact_every and tick_no % args.compact_every == 0:
            t0 = time.perf_counter()
            m = lake.compact()
            rec["compact_sec"] = round(time.perf_counter() - t0, 2)
            rec["compact_bytes"] = m.lineage[-1]["bytes_written"] if m else 0
        if args.retain:
            from nifi_ray.state.manifest import (
                expire_versions,
                gc_orphans,
                manifest_path,
                retained_versions,
            )

            t0 = time.perf_counter()
            expired = expire_versions(lake_dir, keep_last=args.retain)
            orphans = gc_orphans(lake_dir)
            rec["gc_sec"] = round(time.perf_counter() - t0, 3)
            rec["gc_expired_manifests"] = len(expired)
            rec["gc_removed_files"] = len(orphans)
            retained = retained_versions(lake_dir)
            rec["retained_versions"] = len(retained)
            rec["manifest_bytes"] = sum(
                os.path.getsize(manifest_path(lake_dir, v)) for v in retained
            )
            rec["lake_files"] = sum(len(fs) for _, _, fs in os.walk(lake_dir))
            rec["lake_bytes"] = sum(
                os.path.getsize(os.path.join(r, f))
                for r, _, fs in os.walk(lake_dir)
                for f in fs
            )
        ticks.append(rec)
        print(json.dumps(rec))

    t0 = time.perf_counter()
    rows = lake.read().count()
    scan_s = time.perf_counter() - t0
    # integrity (after N expire+GC cycles with --retain): every file the
    # final manifest references must exist and match its recorded checksum
    v = lake.verify()
    if not v["ok"]:
        print(json.dumps({"event": "VERIFY_FAILED", **v}), file=sys.stderr)
        raise SystemExit(2)
    walls = [t["wall_sec"] for t in ticks]
    extra = {}
    if args.retain:
        # first-quartile vs last-quartile medians: flat curves = no
        # manifest-chain / file-count creep over the horizon
        q = max(len(ticks) // 4, 1)
        med = lambda xs: sorted(xs)[len(xs) // 2]  # noqa: E731
        extra = {
            "tick_sec_first_quartile": med([t["wall_sec"] for t in ticks[:q]]),
            "tick_sec_last_quartile": med([t["wall_sec"] for t in ticks[-q:]]),
            "gc_sec_last_quartile": med([t["gc_sec"] for t in ticks[-q:]]),
            "lake_files_final": ticks[-1]["lake_files"],
            "lake_bytes_final": ticks[-1]["lake_bytes"],
            "manifest_bytes_final": ticks[-1]["manifest_bytes"],
            "retained_versions_final": ticks[-1]["retained_versions"],
        }
    print(json.dumps({
        "event": "SUMMARY",
        "mode": args.mode,
        "ticks": len(ticks),
        **extra,
        "total_events": args.events,
        "rows_final": rows,
        "scan_s": round(scan_s, 3),
        "steady_tick_sec": round(sorted(walls)[len(walls) // 2], 2),
        "steady_events_per_sec": round(args.tick / sorted(walls)[len(walls) // 2], 1),
        "sum_apply_bytes": sum(t["bytes_written"] for t in ticks),
        "apply_bytes_per_event": round(
            sum(t["bytes_written"] for t in ticks) / args.events, 2
        ),
        "compact_bytes_per_event": round(
            sum(t.get("compact_bytes", 0) for t in ticks) / args.events, 2
        ),
        "verify_ok": v["ok"],
        "watermark": lake.manifest().applied_through,
        **(
            {
                "steady_agg_refresh_sec": round(
                    sorted(t["agg_refresh_sec"] for t in ticks)[len(ticks) // 2], 2
                ),
                "steady_index_refresh_sec": round(
                    sorted(t["index_refresh_sec"] for t in ticks)[len(ticks) // 2], 2
                ),
                "steady_ann_refresh_sec": round(
                    sorted(t["ann_refresh_sec"] for t in ticks)[len(ticks) // 2], 2
                ),
            }
            if args.maintain
            else {}
        ),
    }))
    if not args.keep:
        shutil.rmtree(lake_dir, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
