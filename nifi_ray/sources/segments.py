"""Partitioned log-segment consumer — ConsumeKafka semantics without a
broker (reference nifi-nar-bundles/nifi-kafka-bundle/nifi-kafka-processors/
.../ConsumeKafka.java: poll → process inside a session → commit offsets
ONLY after session commit, at-least-once; GetKafka.java:311-345 for the
commit-after-transfer ordering).

Topic layout (what a log-shipper or connector would produce):

    topic_dir/partition=P/segment-*.parquet

Each topic partition carries its own monotonically increasing ``offset``
column (Kafka's per-partition offset); there is NO global order across
partitions — exactly Kafka's contract. Keys (doc_id) are partition-
sticky, so per-key order is preserved, which is all CDC needs.

Consumer-group state is one JSON file of committed offsets per
partition, written atomically AFTER the caller has durably applied the
polled batch (commit-after-session). The crash matrix:

    crash after apply, before commit  → re-poll re-reads the records and
                                        re-applies them; LWW apply of
                                        identical images is idempotent ⇒
                                        at-least-once delivery,
                                        effectively-once STATE
    crash before apply                → nothing committed, clean retry

``consume_into_lake`` wires the consumer to CDCLake.replay: per-
partition offsets are mapped to a global LSN by the deterministic
interleave ``lsn = offset * n_partitions + partition`` (order-preserving
per partition, collision-free across partitions), so the lake's
watermark math applies unchanged.

Scale notes: poll() lists files on the driver (metadata only, same role
as NiFi's primary-node consumer coordination) but READS them as one
``ray.data.read_parquet`` over only the segments whose footer max
offset exceeds the committed offset — fetch is distributed, listing is
not. Segment files should be sized like Kafka segments (100 MB-1 GB).
"""

from __future__ import annotations

import glob
import json
import os
import re

import pyarrow.compute as pc
import pyarrow.parquet as pq

from .binlog import file_lsn_range

_PART_RE = re.compile(r"partition=(\d+)$")


class SegmentConsumer:
    """Offset-tracking consumer over a partitioned segment directory."""

    def __init__(self, topic_dir: str, group_path: str):
        self.topic_dir = topic_dir
        self.group_path = group_path

    # ------------------------------------------------------------ state
    def committed(self) -> dict[int, int]:
        """Per-partition committed offsets (−1 = never committed)."""
        if not os.path.exists(self.group_path):
            return {}
        with open(self.group_path) as f:
            return {int(k): int(v) for k, v in json.load(f).items()}

    def commit(self, offsets: dict[int, int]) -> None:
        """Atomically record offsets as consumed. Call ONLY after the
        polled records are durably applied (commit-after-session)."""
        merged = self.committed()
        for p, o in offsets.items():
            merged[p] = max(int(o), merged.get(int(p), -1))
        os.makedirs(os.path.dirname(self.group_path) or ".", exist_ok=True)
        tmp = self.group_path + f".tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump({str(k): v for k, v in sorted(merged.items())}, f)
        os.replace(tmp, self.group_path)

    # ------------------------------------------------------------- poll
    def _partitions(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for d in sorted(glob.glob(os.path.join(self.topic_dir, "partition=*"))):
            m = _PART_RE.search(d)
            if m:
                out[int(m.group(1))] = sorted(
                    glob.glob(os.path.join(d, "segment-*.parquet"))
                )
        return out

    def poll_files(self) -> tuple[list[tuple[int, str]], dict[int, int], set[int]]:
        """New-data segments [(partition, file)], the per-partition high
        offsets known from footer stats, and the partitions whose high
        needs a data read (some kept segment lacks stats). A segment is
        skipped purely from footer stats when its max offset ≤ the
        committed offset."""
        committed = self.committed()
        files: list[tuple[int, str]] = []
        high: dict[int, int] = {}
        need_exact: set[int] = set()
        for part, segs in self._partitions().items():
            lo = committed.get(part, -1)
            for f in segs:
                seg_max = file_lsn_range(f, "offset")[1]
                if seg_max is not None and seg_max <= lo:
                    continue  # fully consumed — never opened
                files.append((part, f))
                if seg_max is None:
                    need_exact.add(part)
                else:
                    high[part] = max(high.get(part, lo), int(seg_max))
        return files, high, need_exact

    def poll(self):
        """Dataset of unconsumed records (offset > committed, per
        partition) with a ``partition`` column attached, plus the
        {partition: max offset} watermark to pass to commit() after the
        records are applied. Returns (None, {}) when fully caught up."""
        import ray.data as rd

        files, high, need_exact = self.poll_files()
        if not files:
            return None, {}
        committed = self.committed()
        datasets = []
        for part in sorted({p for p, _f in files}):
            segs = [f for p, f in files if p == part]
            lo = committed.get(part, -1)
            if part in need_exact:
                # stats-less segment: exact high from a column-pruned read
                mx = max(
                    pc.max(pq.read_table(f, columns=["offset"])["offset"]).as_py()
                    for f in segs
                )
                high[part] = max(int(mx), high.get(part, lo))
            # partitioning=None: the hive-style partition=N dirs must not
            # auto-inject their own 'partition' column (we stamp it)
            ds = rd.read_parquet(
                segs, filter=pc.field("offset") > lo, partitioning=None
            )
            datasets.append(
                ds.map_batches(_stamp_partition(part), batch_format="pyarrow")
            )
        ds = datasets[0]
        for other in datasets[1:]:
            ds = ds.union(other)
        return ds, high


def _stamp_partition(part: int):
    def fn(t):
        import pyarrow as pa

        return t.append_column("partition", pa.array([part] * t.num_rows, pa.int32()))

    return fn


def write_topic(
    events, topic_dir: str, n_partitions: int, segment_rows: int = 1000
) -> None:
    """Spread a (lsn-ordered) event table into a partitioned topic:
    key-sticky partition assignment (hash(doc_id) % P — per-key order
    preserved, Kafka's keyed-producer contract), per-partition dense
    offsets in lsn order, fixed-size segment files. Test/demo producer;
    a real deployment's log shipper writes this layout directly."""
    import numpy as np
    import pyarrow as pa

    from ..util.hashing import partition_of

    t = events.sort_by("lsn").drop_columns(["lsn"])
    parts = partition_of(events.sort_by("lsn")["doc_id"], n_partitions)
    for p in range(n_partitions):
        rows = t.filter(pa.array(parts == p))
        rows = rows.append_column(
            "offset", pa.array(np.arange(rows.num_rows, dtype=np.int64))
        )
        d = os.path.join(topic_dir, f"partition={p}")
        os.makedirs(d, exist_ok=True)
        for si, start in enumerate(range(0, max(rows.num_rows, 1), segment_rows)):
            seg = rows.slice(start, segment_rows)
            if seg.num_rows == 0 and si > 0:
                break
            pq.write_table(seg, os.path.join(d, f"segment-{si:05d}.parquet"))


def offsets_to_lsn(offset_col, partition_col, n_partitions: int):
    """Per-partition offsets → one collision-free global LSN column:
    lsn = offset * n_partitions + partition + 1. Order-preserving within
    a partition (all per-key ordering Kafka guarantees); the +1 keeps
    lsn ≥ 1 so a fresh lake's watermark 0 never swallows (offset 0,
    partition 0)."""
    import pyarrow as pa

    off = pc.cast(offset_col, pa.int64())
    part = pc.cast(partition_col, pa.int64())
    return pc.add(
        pc.add(pc.multiply(off, pa.scalar(n_partitions, pa.int64())), part),
        pa.scalar(1, pa.int64()),
    )


def consume_into_lake(consumer: SegmentConsumer, lake, tmp_spool: str, **replay_kw):
    """One poll→apply→commit cycle: poll new records, synthesize the
    global LSN, spool as parquet (the replay input contract), replay
    into the lake with ``from_lsn=0``, and ONLY THEN commit offsets
    (ConsumeKafka's commit-after-session). Returns the TickStats
    (None = caught up).

    ``from_lsn=0`` because exactly-once filtering belongs to the
    consumer's PER-PARTITION offsets here — a lagging topic partition's
    new records can map below the lake's single scalar watermark, so
    the watermark must not filter them. Crash-safety: offsets commit
    strictly after the manifest commit; a crash in between re-polls and
    re-applies the same records next cycle — identical images under LWW,
    so state is unchanged (at-least-once delivery, effectively-once
    state)."""
    import pyarrow as pa

    ds, high = consumer.poll()
    if ds is None:
        return None
    n_parts = max(len(consumer._partitions()), 1)

    def to_events(t: pa.Table) -> pa.Table:
        lsn = offsets_to_lsn(t["offset"], t["partition"], n_parts)
        t = t.append_column("lsn", lsn)
        return t.drop_columns(["offset", "partition"])

    ev = ds.map_batches(to_events, batch_format="pyarrow")
    # one spool dir per poll cycle (keyed by the offsets it advances
    # to): a crash mid-spool restarts the same cycle into a clean dir;
    # committed cycles are removed after the offset commit
    import hashlib
    import shutil

    tag = hashlib.md5(json.dumps(sorted(high.items())).encode()).hexdigest()[:10]
    cycle_dir = os.path.join(tmp_spool, f"cycle-{tag}")
    shutil.rmtree(cycle_dir, ignore_errors=True)
    os.makedirs(cycle_dir)
    ev.write_parquet(cycle_dir)
    stats = lake.replay(cycle_dir, from_lsn=0, **replay_kw)
    consumer.commit(high)  # commit-after-session
    shutil.rmtree(cycle_dir, ignore_errors=True)
    return stats
