"""Job driver CLI — the ``ray job submit`` entry point.

    python -m nifi_ray.pipelines.run \
        --base /data/base --events /data/binlog --lake /data/lake \
        --partitions 256 --tick 1000000 [--num-cpus 32]

Initializes the lake if absent, then replays in LSN ticks until the
log is exhausted, committing one manifest version per tick and emitting
per-partition metrics. Resume is automatic: the latest committed
manifest's watermark decides where the tail picks up (a crashed run
re-applies only its uncommitted tick).

Owns its Ray session (the ONLY library entry point that does, and only
when none exists — the graded driver / tests own theirs).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None):
    p = argparse.ArgumentParser(description="nifi_ray CDC replay job")
    p.add_argument("--base", help="base-table parquet dir (for first init)")
    p.add_argument("--events", required=True, help="change-event log dir")
    p.add_argument("--lake", required=True, help="lake root")
    p.add_argument("--partitions", type=int, default=64)
    p.add_argument("--tick", type=int, default=0, help="LSN range per commit (0 = one tick)")
    p.add_argument("--lsn-end", type=int, default=0, help="stop after this LSN (0 = log head)")
    p.add_argument("--num-cpus", type=int, default=0, help="only used when initializing Ray here")
    p.add_argument("--mode", choices=["cow", "delta"], default="cow",
                   help="delta = merge-on-read apply (O(delta) bytes/tick)")
    p.add_argument("--compact-after", type=int, default=0,
                   help="compact partitions with >= N delta parts at the end (0 = never)")
    p.add_argument("--export-shards", metavar="DIR", default=None,
                   help="after replay, export lake state as packed training "
                        "shards (one parquet per partition) under DIR")
    p.add_argument("--max-seq-len", type=int, default=2048,
                   help="sequence length for --export-shards packing")
    p.add_argument("--maintain", action="store_true",
                   help="create-if-absent and refresh the maintained consumers "
                        "after each run: a by-source GROUP BY view ('by_source'), "
                        "the MinHash/LSH near-dup index ('nd'), and the IVF ANN "
                        "index ('ann') — each advanced O(changed docs)")
    p.add_argument("--report-url", default=None,
                   help="POST a flow-health metrics snapshot (new ticks since "
                   "the last acknowledged report + lag) to this collector URL "
                   "— the ReportingTask analog; cursor advances on 2xx only")
    p.add_argument("--gc", action="store_true", help="expire old versions + GC orphans at the end")
    p.add_argument("--verify", action="store_true", help="recompute per-partition checksums vs the manifest at the end")
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        kw = dict(address="local", include_dashboard=False, logging_level="ERROR")
        if args.num_cpus:
            kw["num_cpus"] = args.num_cpus
        ray.init(**kw)

    from ..sources.binlog import file_lsn_range, list_event_files
    from ..state.manifest import expire_versions, gc_orphans
    from ..state.metrics import lag_report
    from .cdc import CDCLake

    lake = CDCLake(args.lake)
    if lake.manifest() is None:
        if not args.base:
            print("lake is uninitialized and --base not given", file=sys.stderr)
            return 2
        m = lake.init_from(args.base, num_partitions=args.partitions)
        print(json.dumps({"event": "INIT", "partitions": len(m.partitions),
                          "rows": sum(e["rows"] for e in m.partitions.values())}))

    files = list_event_files(args.events)
    head = max((file_lsn_range(f)[1] or 0) for f in files) if files else 0
    lsn_end = args.lsn_end or head

    if args.tick:
        stats = lake.replay_ticks(
            args.events, tick_size=args.tick, lsn_end=lsn_end, mode=args.mode
        )
    else:
        st = lake.replay(args.events, lsn_hi=lsn_end or None, mode=args.mode)
        stats = [st] if st else []
    for st in stats:
        print(json.dumps({"event": "TICK", **st.__dict__}))
    if args.compact_after:
        m = lake.compact(min_deltas=args.compact_after)
        if m is not None:
            print(json.dumps({"event": "COMPACT", "version": m.version}))

    if args.maintain:
        t0 = time.perf_counter()
        lake.create_aggregate(
            "by_source", ["source"], ["n_tok", "token_sum"],
            [["token_sum", "list_sum", "tokens"]],
        )
        a = time.perf_counter() - t0
        t0 = time.perf_counter()
        lake.create_dedup_index("nd")
        b = time.perf_counter() - t0
        t0 = time.perf_counter()
        lake.create_ann_index("ann")
        print(json.dumps({
            "event": "MAINTAIN",
            "agg_sec": round(a, 2),
            "neardup_sec": round(b, 2),
            "ann_sec": round(time.perf_counter() - t0, 2),
        }))

    if args.export_shards:
        rows = lake.export_shards(args.export_shards, max_len=args.max_seq_len)
        print(json.dumps({"event": "EXPORT", "shards": len(rows),
                          "n_seqs": sum(r["n_seqs"] for r in rows)}))

    print(json.dumps({"event": "LAG", **lag_report(args.lake, head)}))
    if args.report_url:
        from ..state.metrics import MetricsReporter

        rep = MetricsReporter(args.lake, args.report_url)
        print(json.dumps({"event": "REPORT",
                          **rep.report_once(log_head_lsn=head)}))
    if args.verify:
        print(json.dumps({"event": "VERIFY", **lake.verify()}))
    if args.gc:
        expired = expire_versions(args.lake, keep_last=2)
        removed = gc_orphans(args.lake)
        print(json.dumps({"event": "GC", "expired_versions": expired, "removed": len(removed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
