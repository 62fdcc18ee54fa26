"""Lake-to-lake replication: the site-to-site transfer protocol analog.

NiFi moves flowfiles between clusters with a transactional exchange:
the sender streams data, both sides compute a CRC32, the receiver
CONFIRMs the checksum, and only then does either side commit
(reference nifi-commons/nifi-site-to-site-client/.../remote/protocol/
AbstractTransaction.java:177-210; the port receives into a session and
commits after confirmation). Here the "transaction" replicates one
committed version span of a source ``CDCLake`` into a destination lake:

1. **bootstrap** — dst uninitialized: ship the source's full committed
   snapshot (``cdc._scan_map``'s scan tasks pinned at a version) into
   the init exchange (distributed hash exchange, never a driver
   collect, no Dataset); ``rows_shipped`` is the dst manifest's row
   count.
2. **incremental** — the change feed of (cursor, v_to] (O(changed
   docs), partition-pruned at the manifest) mapped to change events:
   ``lsn`` = the source watermark at ``v_to``, 'D' rows ship null
   payloads. ``cdc._diff_map``'s dealt diff tasks STAGE it as parquet
   under ``dst/_replication/`` (no feed row passes through the
   driver) with a per-file CRC32 (the sender checksum), re-read and
   CONFIRMED before apply (the receiver's CONFIRM_TRANSACTION), then
   applied as one dst tick (``replay`` — LWW watermark dedup makes
   re-application a no-op). No Ray Data executor starts in either.
3. **ack ordering** — the replication cursor (last shipped source
   version) is advanced ONLY after the destination manifest is
   durable, the same commit-after-session ordering as the segment
   consumer (sources/segments.py). Crash windows:

       staged, not applied      → staging is content-addressed and
                                  sealed; the next trigger reuses it
       applied, cursor stale    → the span is re-shipped; replay's
                                  watermark dedup no-ops (exactly-once)

Retention contract: the cursor version must stay retained in the
source manifest chain (``expire_versions`` keep window ≥ replication
cadence) — the standard change-data-feed constraint; an expired cursor
raises ``ReplicationCursorExpired`` rather than silently resyncing.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zlib
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..util.hashing import row_image_hash
from .cdc import CDCLake, _diff_map, _diff_snapshots, _scan_map, _version_diff_plan


class ReplicationChecksumError(RuntimeError):
    """Staged feed bytes failed CRC confirmation (sender/receiver
    checksum mismatch — the site-to-site BAD_CHECKSUM response)."""


class ReplicationCursorExpired(RuntimeError):
    """The destination's cursor version is no longer retained in the
    source manifest chain; re-bootstrap into a fresh directory or widen
    ``expire_versions(keep_last=...)`` to cover the replication cadence."""


def _cursor_path(dst_lake_dir: str) -> str:
    return os.path.join(dst_lake_dir, "_replication", "cursor.json")


def _read_cursor(dst_lake_dir: str) -> dict | None:
    p = _cursor_path(dst_lake_dir)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def _write_cursor(dst_lake_dir: str, cursor: dict) -> None:
    """Atomic cursor advance — call ONLY after the dst manifest commit
    is durable (commit-after-session)."""
    p = _cursor_path(dst_lake_dir)
    os.makedirs(os.path.dirname(p), exist_ok=True)
    tmp = p + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(cursor, f, indent=1)
    os.replace(tmp, p)


def _feed_to_events(t: pa.Table, lsn: int) -> pa.Table:
    """Map change-feed rows (change_op + row image) to event rows the
    replay kernel applies: op column, constant lsn (= the source
    watermark this span replicates up to; one net row per doc so
    within-tick LWW never ties), null payloads on deletes (the feed
    carries the PREIMAGE on 'D', which must not be applied)."""
    ops = pc.cast(t["change_op"], pa.string())
    keep = pc.invert(pc.equal(ops, "D"))
    n = t.num_rows
    cols: dict[str, pa.Array | pa.ChunkedArray] = {
        "lsn": pa.array(np.full(n, lsn, np.int64)),
        "op": ops,
    }
    for name in t.schema.names:
        if name == "change_op":
            continue
        col = t[name]
        if name == "doc_id":
            cols[name] = col
        else:
            col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            cols[name] = pc.if_else(keep, col, pa.nulls(n, col.type))
    return pa.table(cols)


def _crc32_of_file(path: str, chunk: int = 1 << 20) -> int:
    c = 0
    with open(path, "rb") as f:
        while True:
            b = f.read(chunk)
            if not b:
                return c
            c = zlib.crc32(b, c)


_STAGED = pa.schema([pa.field("file", pa.string()), pa.field("crc32", pa.int64())])


def _stage_events(out_dir: str, events: pa.Table) -> pa.Table:
    """Write one staged feed file into the unsealed staging dir
    ``out_dir``, named by the md5 of its bytes, and return its (file,
    crc32) row; no rows, no file."""
    if events.num_rows == 0:
        return _STAGED.empty_table()
    sink = io.BytesIO()
    pq.write_table(events, sink)
    data = sink.getvalue()
    name = f"feed-{hashlib.md5(data).hexdigest()[:16]}.parquet"
    Path(out_dir, name).write_bytes(data)
    return pa.table({"file": [name], "crc32": [zlib.crc32(data)]}, schema=_STAGED)


def _stage_feed(
    src: CDCLake, dst_lake_dir: str, v_from: int, v_to: int, lsn: int
) -> tuple[str, dict[str, int]]:
    """Write the change feed for (v_from, v_to] as sealed parquet under
    the destination's ``_replication/`` dir, with a checksum sidecar.
    The diff tasks (``cdc._diff_map``) write each changed partition's
    events straight into the staging dir and return only the file's
    name and CRC32, so no feed row passes through the driver.
    Content-addressed by the span, atomic (tmp dir + rename), reused if
    already sealed — an interrupted earlier stage never half-applies."""
    name = f"feed-v{v_from}-to-v{v_to}"
    final = os.path.join(dst_lake_dir, "_replication", name)
    sidecar = os.path.join(final, "_checksums.json")
    if os.path.exists(sidecar):  # sealed by an earlier (possibly crashed) trigger
        with open(sidecar) as f:
            return final, json.load(f)
    m_new = src._snapshot(v_to)
    items, same_p = _version_diff_plan(src._snapshot(v_from), m_new)
    tmp = final + f".tmp.{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)

    def stage(old: pa.Table, new: pa.Table) -> pa.Table:
        return _stage_events(tmp, _feed_to_events(_diff_snapshots(old, new), lsn))

    staged = pa.concat_tables(
        [_STAGED.empty_table(), *ray.get(_diff_map(src.lake_dir, m_new, items, same_p, stage))]
    )
    crcs = dict(sorted(zip(staged["file"].to_pylist(), staged["crc32"].to_pylist())))
    with open(os.path.join(tmp, "_checksums.json"), "w") as f:
        json.dump(crcs, f, indent=1)  # seal marker written LAST
    if os.path.exists(final):  # lost a race to a concurrent trigger
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
        with open(sidecar) as f:
            return final, json.load(f)
    os.rename(tmp, final)
    return final, crcs


def _confirm_feed(staging: str, crcs: dict[str, int]) -> None:
    """Receiver-side CRC confirmation before apply
    (AbstractTransaction.java:177-210 CONFIRM_TRANSACTION)."""
    for f, want in crcs.items():
        got = _crc32_of_file(os.path.join(staging, f))
        if got != want:
            raise ReplicationChecksumError(
                f"{staging}/{f}: crc32 {got:#010x} != confirmed {want:#010x}"
            )


def replicate(
    src: CDCLake, dst_lake_dir: str, num_partitions: int | None = None
) -> dict:
    """Replicate the source lake's latest committed version into
    ``dst_lake_dir``. Idempotent per span; safe to re-trigger after any
    crash. Returns a report dict (what a provenance/SEND event records)."""
    src_m = src.manifest()
    if src_m is None:
        raise FileNotFoundError(f"source lake not initialized: {src.lake_dir}")
    dst = CDCLake(dst_lake_dir)
    cursor = _read_cursor(dst_lake_dir)

    if dst.manifest() is None:
        # bootstrap: full snapshot at the pinned source version, its
        # scan tasks' blocks fed straight into the init exchange
        p = num_partitions or src_m.num_partitions
        dst._init(_scan_map(src.lake_dir, src_m), src_m.schema, p)
        _write_cursor(
            dst_lake_dir,
            {
                "src_lake_dir": os.path.abspath(src.lake_dir),
                "src_version": src_m.version,
                "src_watermark": src_m.applied_through,
            },
        )
        return {
            "mode": "bootstrap",
            "src_version": src_m.version,
            "dst_version": dst.manifest().version,
            "rows_shipped": sum(e["rows"] for e in dst.manifest().partitions.values()),
        }

    if cursor is None:
        raise FileNotFoundError(
            f"destination {dst_lake_dir} exists but has no replication "
            "cursor — it was not created by replicate(); refusing to guess"
        )
    v_from = int(cursor["src_version"])
    v_to = src_m.version
    if v_to == v_from:
        return {"mode": "noop", "src_version": v_to, "rows_shipped": 0}
    try:
        staging, crcs = _stage_feed(
            src, dst_lake_dir, v_from, v_to, lsn=src_m.applied_through
        )
    except FileNotFoundError as e:
        raise ReplicationCursorExpired(
            f"source version {v_from} no longer retained in {src.lake_dir}: {e}"
        ) from e
    _confirm_feed(staging, crcs)
    files = [os.path.join(staging, f) for f in crcs]
    st = dst.replay(files) if files else None
    # commit-after-session: cursor advances only now, with the dst
    # manifest durable; a crash above re-ships the span and the replay
    # watermark dedup makes re-application a no-op
    _write_cursor(
        dst_lake_dir,
        {
            "src_lake_dir": os.path.abspath(src.lake_dir),
            "src_version": v_to,
            "src_watermark": src_m.applied_through,
        },
    )
    return {
        "mode": "incremental",
        "src_version": v_to,
        "span": [v_from, v_to],
        "rows_shipped": sum(pq.read_metadata(f).num_rows for f in files),
        "dst_version": dst.manifest().version,
        "applied": st is not None,
        "feed_crc32": {f: c for f, c in crcs.items()},
    }


def verify_replica(src: CDCLake, dst: CDCLake) -> dict:
    """Cross-lake state verification: distributed, order- and
    partitioning-insensitive fingerprint of each lake's committed state
    (XOR of per-row image hashes + row count), compared. O(data) read
    in ``cdc._scan_map``'s dealt scan tasks, but only one tiny row per
    partition travels — works across different partition counts and
    merge-on-read overlays. This is the transaction-confirmation step
    promoted to a whole-lake invariant (the same role CDCLake.verify
    plays within one lake)."""

    def part_fp(t: pa.Table) -> pa.Table:
        h = row_image_hash(t, t.schema.names) if t.num_rows else [0]
        return pa.table({
            "rows": pa.array([t.num_rows], pa.int64()),
            "xor": pa.array([int(np.bitwise_xor.reduce(h))], pa.uint64()),
        })

    def fingerprint(lake: CDCLake) -> tuple[int, int]:
        parts = pa.concat_tables(ray.get(_scan_map(lake.lake_dir, lake.manifest(), fn=part_fp)))
        return sum(parts["rows"].to_pylist()), int(np.bitwise_xor.reduce(parts["xor"].to_numpy()))

    (src_rows, src_fp), (dst_rows, dst_fp) = fingerprint(src), fingerprint(dst)
    return {
        "match": src_rows == dst_rows and src_fp == dst_fp,
        "src_rows": src_rows,
        "dst_rows": dst_rows,
        "src_fingerprint": src_fp,
        "dst_fingerprint": dst_fp,
    }
