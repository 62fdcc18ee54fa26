"""Hot-key skew experiment (SURVEY §7.5: 'salted pre-merge is
load-bearing, must be benchmarked').

Variants over the same 4M-event stream (sf0.1 shape, 32 CPUs):
  baseline  — the generator's log-uniform doc mix (top doc ≈5% of events)
  hot50     — 50% of ALL events rewritten onto ONE doc_id
If the batch-local LWW collapse does its job, hot50 ≈ baseline: each
batch forwards ≤1 row for the hot doc regardless of how many events hit
it, so the exchange and the apply see balanced partitions either way.

Prints one JSON line per variant. Run:  python tools/skew_experiment.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_DOCS, N_EVENTS, PARTS = 400_000, 4_000_000, 32
ITERS = 2


def make_hot(src_dir: str, dst_dir: str, frac: float, hot_doc: str):
    """Rewrite doc_id to `hot_doc` for a deterministic `frac` of rows."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    os.makedirs(dst_dir, exist_ok=True)
    for f in sorted(os.listdir(src_dir)):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(src_dir, f))
        lsn = t["lsn"].to_numpy()
        mask = (lsn % 1000) < int(frac * 1000)  # deterministic, even spread
        doc = pc.if_else(
            pa.array(mask), pa.scalar(hot_doc), t["doc_id"]
        )
        # keep op=U for hot rows so the doc never tombstones away
        op = pc.if_else(pa.array(mask), pa.scalar("U"), t["op"])
        t = t.set_column(t.schema.get_field_index("doc_id"), "doc_id", doc)
        t = t.set_column(t.schema.get_field_index("op"), "op", op)
        pq.write_table(t, os.path.join(dst_dir, f))


def run_variant(name: str, base_dir: str, ev_dir: str, work: str) -> dict:
    from nifi_ray.pipelines.cdc import CDCLake

    best = float("inf")
    for it in range(ITERS):
        lake_dir = f"{work}/lake_{name}_{it}"
        shutil.rmtree(lake_dir, ignore_errors=True)
        lake = CDCLake(lake_dir)
        lake.init_from(base_dir, num_partitions=PARTS)
        t0 = time.perf_counter()
        st = lake.replay(ev_dir)
        dt = time.perf_counter() - t0
        assert st is not None and st.events_applied == N_EVENTS
        best = min(best, dt)
        shutil.rmtree(lake_dir, ignore_errors=True)
    return {
        "variant": name,
        "replay_sec": round(best, 3),
        "events_per_sec": round(N_EVENTS / best, 1),
    }


def main():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from bench import gen_bench_data, warm_workers
    from nifi_ray.gen import GenConfig

    cfg = GenConfig(seed=42, n_docs=N_DOCS, n_events=N_EVENTS)
    work = "/tmp/nifi_ray_skew"
    base_dir, ev_dir = f"{work}/base", f"{work}/events"
    warm_workers(int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    gen_bench_data(cfg, base_dir, ev_dir)
    hot_dir = f"{work}/events_hot50"
    if not os.path.exists(os.path.join(hot_dir, "_DONE")):
        make_hot(ev_dir, hot_dir, 0.5, "doc-hot-0000")
        open(os.path.join(hot_dir, "_DONE"), "w").write("ok")

    out = [
        run_variant("baseline", base_dir, ev_dir, work),
        run_variant("hot50", base_dir, hot_dir, work),
    ]
    ratio = out[1]["replay_sec"] / out[0]["replay_sec"]
    print(json.dumps({"results": out, "hot50_vs_baseline_time_ratio": round(ratio, 3)}))
    ray.shutdown()


if __name__ == "__main__":
    main()
