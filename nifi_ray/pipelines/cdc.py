"""The flagship pipeline: CDC replay into a versioned Parquet lake.

Dataflow per tick:

    read events (fully-applied files skipped via footer stats —
                 sources/binlog.py; a file whose footer proves every
                 lsn lies in the tick's range with no nulls is read
                 plainly, the rest push the lsn filter to row groups)
      → premerge        stateless zero-copy Arrow: validate/quarantine,
                        drop applied lsns, batch-local LWW collapse
                        (the skew absorber), then stamp partition_id
                        (vectorized CRC32) on the survivors only
      → ONE all-to-all exchange, raw Ray tasks (``_exchange``): ≤ CPUs
              map tasks each scatter G = min(P, CPUs) grouped partition
              shards (num_returns=G); G apply tasks consume exactly
              their group's shards and split the pids locally; one
              object-store write + read per byte. Init and rescale run
              the same ``_exchange`` with a stamp-only map side and a
              write-every-pid apply side
      → apply, two modes (one vectorized prologue per group,
        ``_collapse_group``: guard, collapse, conform, sort by pid):
          cow (default): read base partition, vectorized LWW merge,
              rewrite the partition part file (deterministic name →
              idempotent retries; every part goes through _write_part)
          delta: write ONLY the collapsed events (incl. tombstones) of
              the task's whole pid group as ONE tick file, rows in pid
              order — O(delta) bytes and one file per task, not per
              partition; each partition's manifest entry names its
              (offset, rows) range of the file, readers open each tick
              file once per task, overlay their own ranges by LWW
              (merge-on-read) and compact() folds them
    driver merges per-partition stats into the manifest and commits
    atomically (phase 2 of the two-phase commit); every commit after
    init is ``Manifest.advance`` of the one it read.

Exactly-once: part files are phase 1; the manifest rename is phase 2.
A retried task overwrites its own deterministic file; a crash before
commit leaves orphans readers never see and gc_orphans removes
(SURVEY.md §7.5). verify() recomputes per-partition checksums against
the manifest (site-to-site CRC confirmation analog). NiFi analogs
cited in state/manifest.py and stages/lww.py.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from ..stages.evolve import conform, unify
from ..stages.lww import collapse_last_writer, merge_into_base
from ..state.manifest import (
    CommitConflict,
    Manifest,
    commit_manifest,
    delta_file,
    load_manifest,
    part_file,
    publish_part,
)
from ..util.hashing import (
    HASH_REV,
    add_partition_column,
    partition_of,
    state_checksum,
    state_checksums,
)
from ..util.scale import cluster_cpus

_EVENT_META_COLS = ("lsn", "op", "doc_id")


def _limit_arrow_threads(n: int = 1, io: int = 2) -> None:
    """Cap pyarrow's per-process thread pools inside Ray workers.

    pyarrow sizes its compute/IO pools to the HOST's cores, ignoring
    Ray's num_cpus — so 32 one-CPU tasks each spawn 32 Arrow threads
    (1024 threads thrashing one box), and a "4 CPU" session silently
    borrows the whole machine, corrupting any scaling measurement.
    One compute thread per 1-CPU task is the honest (and faster —
    no oversubscription) configuration. Idempotent per worker."""
    import pyarrow as _pa

    if _pa.cpu_count() != n:
        _pa.set_cpu_count(n)
    if _pa.io_thread_count() != io:
        _pa.set_io_thread_count(io)


_VALID_OPS = pa.array(["I", "U", "D"])


def _validate_events(t: pa.Table) -> tuple[pa.Table, pa.Table]:
    """Split an event batch into (valid, quarantined): an event is
    quarantined when it cannot be applied AT ALL — null doc_id (no key),
    null lsn (no position in the log), or an op outside I/U/D. The NiFi
    'failure' relationship: malformed records are routed, counted, and
    kept inspectable — never silently dropped, never poisoning the tick
    (reference nifi-api/.../Relationship.java + every standard
    processor's REL_FAILURE)."""
    bad = pc.is_null(t["doc_id"])
    bad = pc.or_(bad, pc.is_null(t["lsn"]))
    bad = pc.or_(
        bad, pc.invert(pc.is_in(t["op"].combine_chunks(), value_set=_VALID_OPS))
    )
    if not pc.any(bad).as_py():
        return t, t.schema.empty_table()
    return t.filter(pc.invert(bad)), t.filter(bad)


def _write_quarantine(
    quarantine_dir: str, bad: pa.Table, source: str | None = None
) -> str:
    """Write quarantined rows as a CONTENT-addressed parquet part —
    q-{md5([source] + rows)}.parquet — so a retried task (or a re-replay
    of a not-yet-watermarked file) rewrites the same file instead of
    duplicating rows. ``source`` is the event file of null-LSN rows:
    such a row has no log position, so its file is its only identity,
    and the same malformed row re-sent in another file is kept again.
    Atomic rename, same protocol as data parts."""
    import io as _io

    sink = _io.BytesIO()
    pq.write_table(bad.replace_schema_metadata(None), sink)
    h = hashlib.md5(source.encode() + b"\0" if source is not None else b"")
    h.update(sink.getvalue())
    name = f"q-{h.hexdigest()[:16]}.parquet"
    os.makedirs(quarantine_dir, exist_ok=True)
    out = os.path.join(quarantine_dir, name)
    tmp = out + f".tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(sink.getvalue())
    os.replace(tmp, out)
    return out


def _write_part(lake_dir: str, rel: str, table: pa.Table) -> int:
    """Write one lake part (zstd) and publish it at ``rel``; returns its
    size in bytes. Only non-list columns are dictionary-encoded: a
    ``tokens`` list over a large vocabulary gains nothing from a
    dictionary page and pays for building it on every write."""
    out = os.path.join(lake_dir, rel)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    tmp = out + f".tmp.{os.getpid()}"
    dict_cols = [
        f.name for f in table.schema
        if not (pa.types.is_list(f.type) or pa.types.is_large_list(f.type))
    ]
    pq.write_table(table, tmp, compression="zstd", use_dictionary=dict_cols)
    publish_part(tmp, out)
    return os.path.getsize(out)


def _part_stats(k: int, rel: str, t: pa.Table, **extra) -> dict:
    """Stats row of full part ``rel`` (table ``t``) of partition ``k``."""
    return {
        "partition_id": k,
        "file": rel,
        "rows": t.num_rows,
        "token_hash": state_checksum(t),
        **extra,
    }


def _full_entry(row: dict, max_lsn: int) -> dict:
    """Manifest entry of the full part a ``_part_stats`` row describes."""
    return {
        "file": row["file"],
        "rows": int(row["rows"]),
        "max_lsn": int(max_lsn),
        "token_hash": int(row["token_hash"]),
        "hash_rev": HASH_REV,
    }


def _quarantine_files(quarantine_dir: str) -> list[str]:
    """Sorted names of the quarantine parts written so far."""
    if not os.path.isdir(quarantine_dir):
        return []
    return sorted(f for f in os.listdir(quarantine_dir) if f.endswith(".parquet"))


def _drop_applied(t: pa.Table, applied_through: int) -> pa.Table:
    """Rows with ``lsn > applied_through``. The guard copies the whole
    table, so it runs only when the minimum LSN says it can drop a row."""
    if t.num_rows and pc.min(t["lsn"]).as_py() <= applied_through:
        return t.filter(pc.greater(t["lsn"], applied_through))
    return t


def _premerge(
    batch: pa.Table, num_partitions: int, applied_through: int,
    quarantine_dir: str | None = None,
) -> pa.Table:
    """Map side of the replay exchange: validate → LSN guard → LWW
    collapse → partition stamp. The stamp hashes only the collapse
    survivors; it is a function of doc_id alone, so the rows match
    stamp-then-collapse (only ``partition_id`` and ``ev_count`` swap
    column order)."""
    batch, bad = _validate_events(batch)
    if bad.num_rows and quarantine_dir:
        _write_quarantine(quarantine_dir, bad)
    batch = _drop_applied(batch, applied_through)
    # file-level schema metadata (e.g. pandas dicts) carries nothing the
    # apply side uses
    batch = batch.replace_schema_metadata(None)
    batch = collapse_last_writer(batch, count_col="ev_count")
    return add_partition_column(batch, num_partitions)


def _collapse_group(shards, lo: int, schema: pa.Schema):
    """Apply-side prologue shared by the COW and delta apply tasks:
    yields ``(stats, events)`` per pid in the group's premerged shards,
    in pid order, from one vectorized pass over them.

    One LSN guard drops rows at or below the watermark ``lo`` (counted
    as ``dups_dropped``), one LWW collapse keeps each doc's winner
    (partitions hold disjoint doc_ids, so it is every pid's own
    collapse), one conform casts to the event schema, and the per-pid
    stats (without the write columns) come from ``np.bincount``. One
    stable sort by pid slices each pid's rows, in shard order, out of
    one index array; they are gathered only when the pid is reached,
    so a task holds one pid's copy at a time."""
    parts = [s for s in shards if s.num_rows]
    if not parts:
        return
    block = pa.concat_tables(parts, promote_options="permissive")
    pids, code = np.unique(block["partition_id"].to_numpy(), return_inverse=True)
    n = len(pids)
    events_in = np.bincount(code, weights=block["ev_count"].to_numpy(), minlength=n)
    t = collapse_last_writer(_drop_applied(block, lo), count_col="ev_count")
    code = np.searchsorted(pids, t["partition_id"].to_numpy())
    live = np.bincount(code, weights=t["ev_count"].to_numpy(), minlength=n)
    deletes = np.bincount(
        code, weights=pc.equal(t["op"], "D").to_numpy(), minlength=n
    )
    max_lsn = np.zeros(n, np.int64)
    np.maximum.at(max_lsn, code, t["lsn"].to_numpy())
    t = conform(t, _event_target(schema))
    order = np.argsort(code, kind="stable")
    bounds = np.searchsorted(code[order], np.arange(n + 1))
    for j in range(n):
        yield {
            "partition_id": int(pids[j]),
            "max_lsn": int(max_lsn[j]),
            "events_applied": int(live[j]),
            "events_in": int(events_in[j]),
            "dups_dropped": int(events_in[j] - live[j]),
            "deletes": int(deletes[j]),
        }, t.take(pa.array(order[bounds[j]:bounds[j + 1]]))


def _lsn_footer(md: pq.FileMetaData, lo: int, lsn_hi: int | None) -> tuple[bool, bool]:
    """(proven, has_nulls) for an event file's ``lsn`` column, from its
    footer alone. ``proven``: every row group has lsn stats with
    ``null_count == 0``, ``min > lo`` and ``max <= lsn_hi``, so the LSN
    read filter would drop nothing. ``has_nulls``: some row group
    reports lsn nulls, or has no stats to rule them out."""
    ci = md.schema.to_arrow_schema().get_field_index("lsn")
    if ci < 0:
        return False, False
    proven, has_nulls = True, False
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(ci).statistics
        if st is None or (st.null_count or 0) > 0:
            has_nulls = True
            proven = False
        elif not (
            st.has_null_count
            and st.has_min_max
            and st.min > lo
            and (lsn_hi is None or st.max <= lsn_hi)
        ):
            proven = False
    return proven, has_nulls


@ray.remote
def _cdc_map_task(
    files: list[str],
    P: int,
    lo: int,
    lsn_hi: int | None,
    G: int,
    quarantine_dir: str | None = None,
) -> tuple:
    """Replay map side: read events, premerge (validate and
    quarantine → LSN guard → LWW collapse → partition stamp on the
    survivors), split into G grouped shards returned as separate
    objects. Pure → retryable (quarantine parts are
    content-addressed, so a retry rewrites rather than duplicates).

    Each file is opened once and its footer parsed once
    (``_lsn_footer``). When the footer proves the whole file lies in
    (lo, lsn_hi] with no null LSNs, the same ``ParquetFile`` reads it
    plainly; otherwise the LSN range filter is pushed down to the row
    groups. That filter silently drops NULL-lsn rows, so
    files whose footer reports lsn nulls get a second is_null-filtered
    read routed straight to quarantine, one part per file."""
    import pyarrow.dataset as pads

    _limit_arrow_threads()
    filters = [("lsn", ">", lo)]
    if lsn_hi is not None:
        filters.append(("lsn", "<=", lsn_hi))
    tables = []
    for f in files:
        with pq.ParquetFile(f) as pf:
            proven, has_nulls = _lsn_footer(pf.metadata, lo, lsn_hi)
            tables.append(pf.read() if proven else pq.read_table(f, filters=filters))
        if has_nulls and quarantine_dir:
            bad = pads.dataset(f).to_table(filter=pc.field("lsn").is_null())
            if bad.num_rows:
                _write_quarantine(quarantine_dir, bad, source=f)
    t = pa.concat_tables(tables, promote_options="permissive")
    t = _premerge(t, P, lo, quarantine_dir)
    return _scatter_by_partition(t, P, G)


def _fan_out(n: int) -> int:
    """Ray tasks for ``n`` work items: one per item, at most one per
    cluster CPU. More tasks than CPUs only queue, and on a small tick
    each extra task costs more in scheduling and object transfer than
    the partition's work inside it."""
    return min(n, cluster_cpus())


def _deal(items: list) -> list[list]:
    """Split work items into ``_fan_out(len(items))`` contiguous runs,
    one Ray task each — the exchange's split (``_group_bounds``), so a
    task given all partitions in pid order reads one tick delta file
    per tick, not one per exchange group."""
    n = _fan_out(len(items))
    b = _group_bounds(len(items), n)
    return [items[b[i]:b[i + 1]] for i in range(n)]


def _group_bounds(P: int, G: int) -> np.ndarray:
    """Pid range of exchange group g: [bounds[g], bounds[g + 1])."""
    return np.linspace(0, P, G + 1).astype(np.int64)


def _exchange(inputs: list, P: int, map_task, map_kw: dict, apply_call):
    """The one map/apply exchange behind init, replay and rescale.

    ``inputs`` are dealt into ≤ CPUs map tasks, each
    ``map_task(chunk, P=P, G=G, **map_kw)`` returning G = ``_fan_out(P)``
    grouped shards as separate objects (``num_returns=G``). Then one
    ``apply_call(pid_lo, pid_hi, shards)`` per group submits its apply
    task: [pid_lo, pid_hi) is the group's pid range (``_group_bounds``)
    and ``shards`` its shard from every map task. Returns the apply
    tasks' stats rows and the task plan."""
    chunks = _deal(inputs)
    G = _fan_out(P)
    map_refs = [
        map_task.options(num_returns=G).remote(chunk, P=P, G=G, **map_kw)
        for chunk in chunks
    ]
    if G == 1:  # num_returns=1 returns a bare ref, normalize
        map_refs = [[r] for r in map_refs]
    bounds = _group_bounds(P, G)
    apply_refs = [
        apply_call(int(bounds[g]), int(bounds[g + 1]), [refs[g] for refs in map_refs])
        for g in range(G)
    ]
    stats = [row for rows in ray.get(apply_refs) for row in rows]
    return stats, {"map_tasks": len(chunks), "apply_tasks": G}


def _scatter_by_partition(t: pa.Table, P: int, G: int):
    """Sort by partition code and slice into G shard tables; shard g
    holds group g's contiguous pid range (``_group_bounds``) and its
    apply/write task splits the pids locally. G = ``_fan_out(P)``, so a
    map task returns at most one object per CPU whatever P is. With
    num_returns=1 Ray hands the WHOLE return value to the single ref,
    so G==1 returns the bare table (not a 1-tuple)."""
    if G == 1:
        return t
    codes = t["partition_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(codes, kind="stable")
    s = t.take(pa.array(order))
    bounds = np.searchsorted(codes[order], _group_bounds(P, G))
    return tuple(
        s.slice(int(bounds[g]), int(bounds[g + 1] - bounds[g])) for g in range(G)
    )


@ray.remote
def _rescale_map_task(inputs: list, P: int, G: int) -> tuple:
    """Init and rescale map side: read whole-row inputs (parquet paths,
    or object refs of Arrow tables), stamp partition ids and scatter
    into G grouped shards."""
    _limit_arrow_threads()
    tables = [_read_part(f) if isinstance(f, str) else ray.get(f) for f in inputs]
    t = pa.concat_tables(tables, promote_options="permissive").combine_chunks()
    t = add_partition_column(t, P)
    return _scatter_by_partition(t, P, G)


@ray.remote
def _rescale_write_task(
    lake_dir: str, schema: pa.Schema, version: int, pid_lo: int, pid_hi: int,
    tick_token: str | None, *shards: pa.Table
) -> list[dict]:
    """Write one full part per pid in [pid_lo, pid_hi) from this group's
    shards — an empty partition gets an empty part, so the manifest
    names every partition."""
    _limit_arrow_threads()
    parts = [s for s in shards if s.num_rows]
    block = pa.concat_tables(parts, promote_options="permissive") if parts else None
    out = []
    for k in range(pid_lo, pid_hi):
        t = schema.empty_table()
        if block is not None:
            t = block.filter(pc.equal(block["partition_id"], k))
            t = conform(t.drop_columns(["partition_id"]).sort_by("doc_id"), schema)
        rel = part_file(k, version, tick_token)
        _write_part(lake_dir, rel, t)
        out.append(_part_stats(k, rel, t))
    return out


@ray.remote
def _cdc_apply_task(
    lake_dir: str,
    base_files: dict,
    schema: pa.Schema,
    next_version: int,
    lo: int,
    tick_token: str | None,
    *shards: pa.Table,
) -> list[dict]:
    """COW apply side of the exchange: merge each of this group's
    partitions' events into its base and rewrite its part, even when
    the guard dropped every row. A COW tick on a merge-on-read lake
    folds the live delta parts into the base; otherwise the rewrite
    would revert every doc they updated to its last-compacted image.
    Deterministic names → idempotent retries."""
    _limit_arrow_threads()
    read = _delta_reader(lake_dir)
    out = []
    for st, events in _collapse_group(shards, lo, schema):
        k = st["partition_id"]
        e = base_files.get(k, {})
        base = _read_partition(
            lake_dir, e.get("file"), e.get("deltas", []), schema, read=read
        )
        merged = conform(merge_into_base(base, events).sort_by("doc_id"), schema)
        rel = part_file(k, next_version, tick_token)
        nbytes = _write_part(lake_dir, rel, merged)
        out.append({**st, **_part_stats(k, rel, merged, bytes_written=nbytes)})
    return out


def _read_part(
    path: str,
    ids: pa.Array | pa.ChunkedArray | None = None,
    columns: list[str] | None = None,
) -> pa.Table:
    """One parquet part, decoded whole through its ``ParquetFile``. A
    lake part is a single row group, so a scanner with a key filter
    would prune nothing and only pay for its own set-up. ``ids``
    (Arrow strings) keeps the rows whose ``doc_id`` is among them, by a
    hash ``is_in`` probe of the decoded part. ``columns`` decodes only
    those of them the part has: a part written before a schema change
    lacks its columns."""
    with pq.ParquetFile(path) as pf:
        if columns is not None:
            columns = [c for c in columns if c in pf.schema_arrow.names]
        t = pf.read(columns=columns)
    return _probe(t, ids)


def _probe(t: pa.Table, ids: pa.Array | pa.ChunkedArray | None) -> pa.Table:
    """``t``'s rows whose ``doc_id`` is among ``ids`` (None: all)."""
    return t if ids is None else t.filter(pc.is_in(t["doc_id"], value_set=ids))


def _delta_refs(e: dict) -> list[dict]:
    """Each delta of manifest entry ``e`` as ``{file, offset, rows}``:
    the entry's row range of a tick file its task's partitions share.
    An entry without ``offset`` owns its whole file."""
    meta = e.get("delta_meta", {})
    return [
        {
            "file": d,
            "offset": meta.get(d, {}).get("offset"),
            "rows": meta.get(d, {}).get("rows"),
        }
        for d in e.get("deltas", [])
    ]


def _delta_reader(lake_dir: str):
    """A task's delta reader: ``read(refs)`` returns each ``_delta_refs``
    ref's rows. Each tick file is decoded once per reader, however many
    of the task's partitions name it, and every ref gets only its own
    range: a file also holds the rows of partitions whose entries moved
    on (a compacted partition's older images)."""
    files: dict[str, pa.Table] = {}

    def read(refs: list[dict]) -> list[pa.Table]:
        out = []
        for r in refs:
            t = files.get(r["file"])
            if t is None:
                t = files[r["file"]] = _read_part(os.path.join(lake_dir, r["file"]))
            out.append(t if r["offset"] is None else t.slice(r["offset"], r["rows"]))
        return out

    return read


def _read_partition(
    lake_dir: str, file: str | None, deltas: list[dict], schema: pa.Schema,
    ids: pa.Array | pa.ChunkedArray | None = None, read=None,
) -> pa.Table:
    """One partition's state: its base part (none: empty) overlaid with
    its ``_delta_refs`` ranges, read through ``read`` (the task's
    ``_delta_reader``; default a fresh one). ``ids`` restricts every
    part to those doc_ids before the overlay; only a key filter is
    sound here, because a row predicate would drop the delta image that
    overrides a base row and resurrect the base row."""
    base = (
        _read_part(os.path.join(lake_dir, file), ids) if file else schema.empty_table()
    )
    read = read or _delta_reader(lake_dir)
    return _merge_partition(base, [_probe(t, ids) for t in read(deltas)], schema)


def _merge_partition(
    base: pa.Table, deltas: list[pa.Table], schema: pa.Schema
) -> pa.Table:
    """Merge-on-read kernel: overlay delta parts (collapsed events incl.
    tombstones, disjoint ascending LSN ranges) onto a base partition by
    LWW. Same math as the apply path, so compaction and read agree."""
    if not deltas:
        return conform(base, schema) if not base.schema.equals(schema) else base
    ev = pa.concat_tables(deltas, promote_options="permissive")
    ev = collapse_last_writer(ev)
    if not base.schema.equals(schema):
        base = conform(base, schema)
    ev = conform(ev, _event_target(schema))
    return conform(merge_into_base(base, ev).sort_by("doc_id"), schema)


def _diff_snapshots(old: pa.Table, new: pa.Table, key: str = "doc_id") -> pa.Table:
    """Snapshot-diff kernel for the change feed: two ≤1-row-per-key
    state tables (same schema) → one row per CHANGED key:

        change_op 'I'  key in new only          (new image)
        change_op 'U'  key in both, image differs (new image)
        change_op 'D'  key in old only          (old image — Delta-CDF
                                                 style delete preimage)

    No-op writes (identical image) are excluded by construction — image
    equality is the vectorized order-sensitive row_image_hash over every
    non-key column. All Arrow/numpy kernels; no Python row loop."""
    from ..util.hashing import row_image_hash

    payload_cols = [n for n in new.schema.names if n != key]
    old_ids = old[key].combine_chunks()
    new_ids = new[key].combine_chunks()
    in_old = pc.is_in(new_ids, value_set=old_ids)
    in_new = pc.is_in(old_ids, value_set=new_ids)
    inserts = new.filter(pc.invert(in_old))
    deletes = old.filter(pc.invert(in_new))
    new_c = new.filter(in_old).sort_by(key)
    old_c = old.filter(in_new).sort_by(key)
    if new_c.num_rows:
        differs = row_image_hash(new_c, payload_cols) != row_image_hash(
            old_c, payload_cols
        )
        updates = new_c.filter(pa.array(differs))
    else:
        updates = new_c
    parts = []
    for op, t in (("I", inserts), ("U", updates), ("D", deletes)):
        if t.num_rows:
            parts.append(
                t.add_column(0, "change_op", pa.array([op] * t.num_rows, pa.string()))
            )
    if not parts:
        empty = new.schema.empty_table()
        return empty.add_column(0, "change_op", pa.array([], pa.string()))
    return pa.concat_tables(parts)


def _changed_only(old: pa.Table, new: pa.Table) -> tuple[pa.Table, pa.Table]:
    """``old`` and ``new`` restricted to the docs ``_diff_snapshots``
    names as changed: derived-state work is then O(changed docs), and a
    no-op write (identical image) drops out before any of it."""
    ids = _diff_snapshots(old, new)["doc_id"].combine_chunks()
    return (
        old.filter(pc.is_in(old["doc_id"], value_set=ids)),
        new.filter(pc.is_in(new["doc_id"], value_set=ids)),
    )


@ray.remote
def _cdc_delta_task(
    lake_dir: str,
    schema: pa.Schema,
    next_version: int,
    lo: int,
    tick_token: str | None,
    pid_lo: int,
    pid_hi: int,
    *shards: pa.Table,
) -> list[dict]:
    """Delta-mode apply side: write the collapsed events (incl. D
    tombstones) of this group's pids [pid_lo, pid_hi) as ONE tick file
    in pid order — O(delta) bytes, one file per task. Each pid left with
    rows gets a stats row naming its range of the file (``delta_offset``,
    ``delta_rows``) and that range's checksum; ``bytes_written`` splits
    the file's bytes by rows, so the rows sum to the bytes on disk. The
    name is deterministic in (version, pid range, tick token), so a
    retry re-publishes identical bytes."""
    _limit_arrow_threads()
    parts = [(st, ev) for st, ev in _collapse_group(shards, lo, schema) if ev.num_rows]
    if not parts:
        return []
    events = pa.concat_tables([ev for _, ev in parts])
    bounds = np.cumsum([0] + [ev.num_rows for _, ev in parts])
    rel = delta_file(pid_lo, pid_hi, next_version, tick_token)
    nbytes = _write_part(lake_dir, rel, events)
    hashes = state_checksums(events, bounds)
    split = np.diff(nbytes * bounds // events.num_rows)
    return [
        {
            **st,
            "delta_file": rel,
            "delta_offset": int(bounds[j]),
            "delta_rows": int(bounds[j + 1] - bounds[j]),
            "delta_hash": int(hashes[j]),
            "bytes_written": int(split[j]),
        }
        for j, (st, _) in enumerate(parts)
    ]


@ray.remote
def _compact_task(
    lake_dir: str,
    items: list[tuple],
    schema: pa.Schema,
    next_version: int,
    tick_token: str | None = None,
) -> list[dict]:
    """Fold each ``(k, base_rel, delta_refs)`` partition's delta ranges
    into a fresh COW base part; each tick file is decoded once."""
    _limit_arrow_threads()
    read = _delta_reader(lake_dir)
    out = []
    for k, base_rel, refs in items:
        merged = _read_partition(lake_dir, base_rel, refs, schema, read=read)
        rel = part_file(k, next_version, tick_token)
        nbytes = _write_part(lake_dir, rel, merged)
        out.append(_part_stats(k, rel, merged, bytes_written=nbytes))
    return out


@ray.remote(num_cpus=1)
def _lookup_task(lake_dir: str, schema: pa.Schema, items: list[tuple]) -> pa.Table:
    """Point reads of a group of ``(file, delta_refs, want)`` partitions
    for ``CDCLake.lookup``. Every base part and delta range is probed
    with the task's whole id set (each tick file decoded once), and one
    LWW overlay runs over them all: the partitions hold disjoint
    doc_ids, and the collapse keeps each doc's max-LSN row whatever the
    input order. Bases written before a schema change lack its columns,
    so they concatenate permissively."""
    _limit_arrow_threads()
    ids = pa.array([i for _, _, want in items for i in want], pa.string())
    bases = [_read_part(os.path.join(lake_dir, f), ids) for f, _, _ in items if f]
    deltas = _delta_reader(lake_dir)([d for _, ds, _ in items for d in ds])
    if deltas:
        deltas = [_probe(pa.concat_tables(deltas, promote_options="permissive"), ids)]
    base = (
        pa.concat_tables(bases, promote_options="permissive")
        if bases
        else schema.empty_table()
    )
    return _merge_partition(base, deltas, schema)


@ray.remote
def _read_task(
    lake_dir: str, schema: pa.Schema, items: list[tuple],
    columns: list[str] | None, filters: list | None,
) -> pa.Table:
    """Scan a group of ``(file, delta_refs)`` partitions for ``CDCLake.read``
    into one table of the manifest schema, projected to ``columns``.
    Under a predicate the base part goes through a scanner given the
    manifest schema, so footer stats can skip it and a column added
    after it was written reads as null; otherwise a partition without
    deltas decodes only the projected columns. The predicate re-applies
    after the LWW overlay: a delta image can move a doc across it."""
    _limit_arrow_threads()
    expr = pq.filters_to_expression(filters) if filters else None
    read = _delta_reader(lake_dir)
    tables = []
    for file, refs in items:
        path = os.path.join(lake_dir, file)
        if expr is not None:
            base = pq.read_table(path, filters=expr, schema=schema)
        else:
            base = _read_part(path, columns=None if refs else columns)
        t = _merge_partition(base, read(refs), schema)
        t = t if expr is None else t.filter(expr)
        tables.append(t.select(columns) if columns else t)
    return pa.concat_tables(tables)


@ray.remote
def _verify_task(lake_dir: str, items: list[tuple]) -> list[dict]:
    """Recompute the row count and checksum of each ``(k, rel, ref)``
    item for ``verify``: base part ``rel`` (``ref`` None), or partition
    ``k``'s ``_delta_refs`` range of tick file ``rel``."""
    _limit_arrow_threads()
    read = _delta_reader(lake_dir)
    return [
        _part_stats(
            k, rel, read([ref])[0] if ref else _read_part(os.path.join(lake_dir, rel))
        )
        for k, rel, ref in items
    ]


def _event_target(target_schema: pa.Schema) -> pa.Schema:
    """Event-side target schema: CDC bookkeeping + evolved payload."""
    fields = [pa.field("lsn", pa.int64()), pa.field("op", pa.string())]
    fields.extend(f for f in target_schema)
    return pa.schema(fields)


@dataclass
class TickStats:
    version: int
    lo: int
    hi: int
    partitions_touched: int
    events_applied: int
    dups_dropped: int
    rows_total: int
    wall_sec: float
    quarantined: int = 0


def _version_diff_plan(m_old, m_new) -> tuple[list[dict], bool]:
    """Partition-level diff plan between two retained manifests: one
    work item per NEW partition whose manifest entry (base file + delta
    chain) changed — the shared pruning front-end of every incremental
    consumer (``CDCLake.changes``, ``matview.refresh_aggregate``,
    ``dedup_index.refresh_dedup_index``, ``ann_index.refresh_ann_index``),
    each of which runs the items through ``_diff_map``.

    Same-P: partitions with byte-identical entries are pruned with ZERO
    file I/O, so a tick that touched 10 of 4096 partitions yields 10
    items. Cross-P (a rescale happened between the versions): entries
    aren't comparable, so every new partition gets an item whose
    ``old_files`` are the congruent old partitions that can hold its
    docs (hash partitioning is stable → doc→partition is congruence-
    structured mod gcd); ``_diff_images`` filters their rows to the
    keys the new partition owns (``partition_of(ids, p_new) == k``).
    Delta chains are ``_delta_refs`` lists.
    """
    import math

    p_old, p_new = m_old.num_partitions, m_new.num_partitions
    g = math.gcd(p_old, p_new) or 1
    same_p = p_old == p_new
    items = []
    for k in range(p_new):
        e_new = m_new.partitions.get(k)
        nf = e_new["file"] if e_new else None
        nd = _delta_refs(e_new) if e_new else []
        suffix = None
        if same_p:
            e_old = m_old.partitions.get(k)
            of_ = [e_old["file"]] if e_old else []
            od = [_delta_refs(e_old)] if e_old else [[]]
            # manifest-level pruning: identical entry → no diff I/O
            if e_old and e_new and e_old["file"] == nf and od[0] == nd:
                continue
            # delta-append fast path: the new entry is the old entry
            # plus appended delta files (a pure merge-on-read tick run).
            # The docs whose image changed are EXACTLY the docs in the
            # suffix deltas — ``_diff_images`` reads O(delta) bytes
            # (suffix + doc_id-IN-filtered old images) instead of
            # diffing two full snapshots. Compaction/COW change the base
            # file and fall back to the full diff.
            if (
                e_old is not None
                and e_new is not None
                and e_old["file"] == nf
                and len(nd) > len(od[0])
                and nd[: len(od[0])] == od[0]
            ):
                suffix = nd[len(od[0]):]
        else:
            js = [j for j in range(p_old) if j % g == k % g and j in m_old.partitions]
            of_ = [m_old.partitions[j]["file"] for j in js]
            od = [_delta_refs(m_old.partitions[j]) for j in js]
        items.append(
            {
                "k": k,
                "new_file": nf,
                "new_deltas": nd,
                "old_files": of_,
                "old_deltas": od,
                "suffix_deltas": suffix,
            }
        )
    return items, same_p


def _diff_images(
    lake_dir: str, row: dict, schema: pa.Schema, own_p: int | None
) -> tuple[pa.Table, pa.Table]:
    """(old, new) state images of one ``_version_diff_plan`` item.

    A suffix-shaped item reads O(delta) bytes: the appended delta ranges
    name exactly the changed docs, so ``new`` is their collapsed live
    images and ``old`` the old snapshot probed for those doc_ids (a
    hash ``is_in`` over each decoded part, the same shape as
    ``CDCLake.lookup``), never two full snapshots. Insert → absent from
    ``old``; delete → absent from ``new``; a no-op write appears with
    identical images in both (``_changed_only`` drops it).

    Any other item reads the new partition and its congruent old
    partitions. ``own_p`` (set when P changed) filters the old rows to
    the docs new partition ``k`` owns: an old partition feeds
    ``p_new/gcd`` new ones."""
    read = _delta_reader(lake_dir)
    if row.get("suffix_deltas") is not None:
        suffix = read(row["suffix_deltas"])
        ev = collapse_last_writer(pa.concat_tables(suffix, promote_options="permissive"))
        old = _read_partition(
            lake_dir,
            row["old_files"][0] if row["old_files"] else None,
            row["old_deltas"][0] if row["old_deltas"] else [],
            schema,
            ev["doc_id"],
            read,
        )
        return old, conform(ev.filter(pc.not_equal(ev["op"], "D")), schema)
    new = _read_partition(
        lake_dir, row["new_file"], row["new_deltas"], schema, read=read
    )
    olds = [
        _read_partition(lake_dir, f, d, schema, read=read)
        for f, d in zip(row["old_files"], row["old_deltas"])
    ]
    old = (
        pa.concat_tables(olds, promote_options="permissive")
        if olds
        else schema.empty_table()
    )
    if own_p is not None and old.num_rows:
        old = old.filter(pa.array(partition_of(old["doc_id"], own_p) == int(row["k"])))
    return old, new


def _diff_map(lake_dir: str, m_new, items: list[dict], same_p: bool, fn):
    """The one diff driver of every incremental consumer: a Ray Dataset
    with one block per ``_version_diff_plan`` item, holding
    ``fn(old, new)`` of that item's ``_diff_images``. ``fn`` must return
    Arrow tables of one schema."""
    import ray.data as rd

    schema = m_new.schema
    own_p = None if same_p else m_new.num_partitions

    def per_block(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([
            fn(*_diff_images(lake_dir, row, schema, own_p))
            for row in batch.to_pylist()
        ])

    return rd.from_items(items, override_num_blocks=len(items)).map_batches(
        per_block, batch_format="pyarrow"
    )


class CDCLake:
    """A hash-partitioned, manifest-committed, copy-on-write Parquet lake."""

    def __init__(self, lake_dir: str):
        self.lake_dir = lake_dir

    @property
    def _qdir(self) -> str:
        """Where replay routes quarantined events."""
        return os.path.join(self.lake_dir, "_quarantine")

    # ------------------------------------------------------------- init
    def init_from(
        self,
        base: pa.Table | str | list[str] | "ray.data.Dataset",
        num_partitions: int = 16,
    ) -> Manifest:
        """Bootstrap the lake (manifest v1) from a base table: parquet
        files (a path or list of paths), a ``pa.Table`` or a
        ``ray.data.Dataset``. Every kind runs ``_exchange`` with the
        init/rescale tasks (stamp and scatter, then write every pid); a
        Table or Dataset feeds it as object refs of its Arrow blocks.
        Every partition gets a part, empty ones included."""
        if self.manifest() is not None:
            raise ValueError(
                f"lake already initialized at {self.lake_dir}; use replay() "
                "or point at a fresh directory"
            )
        if isinstance(base, (str, list)):
            from ..sources.binlog import list_event_files

            inputs = list_event_files(base)
            schemas = [pq.read_schema(f) for f in inputs]
        elif isinstance(base, pa.Table):
            inputs, schemas = [ray.put(base)], [base.schema]
        else:  # ray.data.Dataset
            ds = base.materialize()
            inputs, schemas = ds.to_arrow_refs(), [ds.schema().base_schema]
        target = None
        for s in schemas:
            s = pa.schema([f for f in s if f.name not in ("lsn", "op")])
            target = s if target is None else unify(target, s)
        if target is None:
            raise FileNotFoundError("no base files to initialize from")
        target = target.remove_metadata()
        os.makedirs(self.lake_dir, exist_ok=True)
        stats, plan = _exchange(
            inputs, num_partitions, _rescale_map_task, {},
            lambda pid_lo, pid_hi, shards: _rescale_write_task.remote(
                self.lake_dir, target, 1, pid_lo, pid_hi, None, *shards
            ),
        )
        partitions = {int(r["partition_id"]): _full_entry(r, 0) for r in stats}
        m = Manifest(
            version=1,
            num_partitions=num_partitions,
            schema_version=1,
            schema=target,
            applied_through=0,
            partitions=partitions,
            lineage=[
                {
                    "kind": "INIT",
                    "rows": sum(p["rows"] for p in partitions.values()),
                    "partitions": len(partitions),
                    "plan": plan,
                }
            ],
        )
        commit_manifest(self.lake_dir, m)
        return m

    # ------------------------------------------------------------ read
    def manifest(self, version: int | None = None) -> Manifest | None:
        return load_manifest(self.lake_dir, version)

    def read(
        self,
        columns: list[str] | None = None,
        version: int | None = None,
        filters: list[tuple] | None = None,
    ) -> "ray.data.Dataset":
        """Dataset over the lake's committed state, one block per scan
        task. Eager: the call takes the manifest snapshot and deals its
        partitions into ≤ CPUs ``_read_task`` Ray tasks, copy-on-write
        and merge-on-read lakes alike; the blocks hold the projected
        lake in the object store (Ray spills what does not fit) and
        carry the manifest schema, whatever schema a part was written
        with.

        ``version``: time travel to an older committed manifest (kept
        until ``expire_versions`` drops it) — the COW layout makes every
        retained version fully readable (Delta-Lake-style snapshot
        isolation; the manifest IS the snapshot).

        ``filters``: parquet-style predicate (tuple DNF, the
        ``pyarrow.parquet`` filters vocabulary) pushed into each base
        part's scan, so a part whose footer stats exclude it is
        skipped. On a merge-on-read lake the pushdown stays correct
        under updates that move a doc across the predicate boundary:
        delta rows carry full images and LWW-override base rows, so
        deltas scan in full (they are tick-sized) and the predicate
        re-applies after the overlay (a base row whose doc was updated
        to a non-matching image is dropped; a doc updated INTO the
        predicate appears via its delta image)."""
        import ray.data as rd

        m = self.manifest(version)
        if m is None or not m.partitions:
            raise FileNotFoundError(f"no committed manifest in {self.lake_dir}")
        items = [(e["file"], _delta_refs(e)) for _, e in sorted(m.partitions.items())]
        return rd.from_arrow_refs([
            _read_task.remote(self.lake_dir, m.schema, group, columns, filters)
            for group in _deal(items)
        ])

    def quarantine(self) -> pa.Table:
        """All quarantined (malformed, never-applied) event rows — the
        inspectable NiFi 'failure' relationship. Small by construction
        (bad records, not data); driver-side read is fine."""
        files = _quarantine_files(self._qdir)
        if not files:
            return pa.table({})
        return pa.concat_tables(
            [_read_part(os.path.join(self._qdir, f)) for f in files],
            promote_options="permissive",
        )

    def export_shards(
        self,
        out_dir: str,
        max_len: int = 2048,
        version: int | None = None,
    ) -> list[dict]:
        """Export the lake's committed state as packed training shards:
        one parquet per lake partition under ``out_dir/shard=<k>/``,
        each row a fixed-length training sequence (concat-and-chunk of
        the partition's docs in doc_id order — stages/packing.pack_group,
        columns shard/seq_idx/tokens/n_tok/tok_sum).

        Shape: one Ray task per partition, ZERO shuffle — the lake's
        hash partitioning is reused as the shard key, so export
        parallelism equals partition count and each task touches one
        partition's files. Merge-on-read deltas are overlaid with the
        same LWW kernel as read(). Resumable AND incrementally
        refreshable: each shard file records the manifest entry (base
        file + delta chain) it was packed from in its parquet footer;
        a re-export skips shards whose entry is unchanged and rewrites
        exactly the partitions later ticks touched (O(delta-partitions)
        work, atomic supersede) — existence alone is NOT trusted, so a
        stale shard from an earlier lake version can never survive a
        refresh. Per-shard layout is a pure function of (partition
        contents, max_len) — retries produce identical bytes. Shard
        dirs for partitions that no longer exist (rescale shrink) are
        removed. Returns per-shard stats rows (``written`` marks the
        shards this call actually packed)."""
        import ray.data as rd

        from ..stages.packing import pack_group

        m = self.manifest(version)
        if m is None or not m.partitions:
            raise FileNotFoundError(f"no committed manifest in {self.lake_dir}")
        lake_dir, schema = self.lake_dir, m.schema
        items = [
            {"k": k, "file": e["file"], "deltas": _delta_refs(e)}
            for k, e in sorted(m.partitions.items())
        ]
        os.makedirs(out_dir, exist_ok=True)
        pack = pack_group(max_len, order_key="doc_id", keep=())

        _EH_KEY = b"nifi_ray.export.entry_hash"

        def export_item(batch: pa.Table) -> pa.Table:
            rows = []
            for row in batch.to_pylist():
                k = int(row["k"])
                rel = os.path.join(f"shard={k:05d}", f"pack-{max_len}.parquet")
                outp = os.path.join(out_dir, rel)
                # content key: manifest entries reference IMMUTABLE
                # files, so (base file, delta chain, max_len) fully
                # identifies this shard's bytes
                chain = [d["file"] for d in row["deltas"]]
                eh = hashlib.md5(
                    json.dumps([row["file"], chain, max_len]).encode()
                ).hexdigest()
                fresh = False
                if os.path.exists(outp):
                    md = pq.read_metadata(outp).metadata or {}
                    fresh = md.get(_EH_KEY, b"").decode() == eh
                if not fresh:
                    packed = pack(
                        _read_partition(lake_dir, row["file"], row["deltas"], schema)
                    )
                    packed = packed.add_column(
                        0, "shard", pa.array([k] * packed.num_rows, pa.int32())
                    )
                    packed = packed.replace_schema_metadata(
                        {_EH_KEY.decode(): eh}
                    )
                    os.makedirs(os.path.dirname(outp), exist_ok=True)
                    tmp = outp + f".tmp.{os.getpid()}"
                    pq.write_table(packed, tmp, compression="zstd")
                    os.replace(tmp, outp)
                rows.append(
                    {
                        "shard": k,
                        "file": rel,
                        "n_seqs": pq.read_metadata(outp).num_rows,
                        "written": not fresh,
                    }
                )
            return pa.Table.from_pylist(
                rows,
                schema=pa.schema(
                    [
                        pa.field("shard", pa.int32()),
                        pa.field("file", pa.string()),
                        pa.field("n_seqs", pa.int64()),
                        pa.field("written", pa.bool_()),
                    ]
                ),
            )

        stats = (
            rd.from_items(items, override_num_blocks=len(items))
            .map_batches(export_item, batch_format="pyarrow")
            .take_all()
        )
        # rescale shrink leaves shard dirs for partitions that no
        # longer exist — a reader globbing out_dir would double-count
        live = {f"shard={int(r['k']):05d}" for r in items}
        for d in os.listdir(out_dir):
            if d.startswith("shard=") and d not in live:
                import shutil

                shutil.rmtree(os.path.join(out_dir, d), ignore_errors=True)
        return stats

    def lookup(
        self,
        doc_ids: list[str],
        columns: list[str] | None = None,
        version: int | None = None,
    ) -> pa.Table:
        """Point reads (the GetHBase/FetchHBaseRow random-read shape):
        fetch exactly these doc_ids from the committed state.

        Scale path: the requested ids hash to their partitions
        (util/hashing.partition_of — the SAME function the write
        exchange uses), so only touched partitions are read; they are
        dealt into ≤ CPUs tasks. Each task decodes every base and delta
        part of its partitions once, keeps the wanted rows by a hash
        ``is_in`` probe, and runs one LWW overlay over the survivors
        (``_lookup_task``). A part is one row group, so footer stats
        could skip no I/O within it. A k-id lookup on a P-partition
        lake costs ≤ min(k, P, CPUs) tasks and reads only the touched
        partitions' parts, never a lake scan."""
        m = self.manifest(version)
        if m is None or not m.partitions:
            raise FileNotFoundError(f"no committed manifest in {self.lake_dir}")
        ids = sorted(set(doc_ids))
        pids = partition_of(pa.array(ids, pa.string()), m.num_partitions)
        by_part: dict[int, list[str]] = {}
        for i, p in zip(ids, pids):
            by_part.setdefault(int(p), []).append(i)

        items = []
        for p, want in sorted(by_part.items()):
            e = m.partitions.get(p)
            if e is not None:
                items.append((e["file"], _delta_refs(e), want))
        parts = ray.get(
            [
                _lookup_task.remote(self.lake_dir, m.schema, group)
                for group in _deal(items)
            ]
        )
        # sort before projecting: ``columns`` need not include doc_id
        t = pa.concat_tables(parts).sort_by("doc_id") if parts else m.schema.empty_table()
        return t.select(columns) if columns else t

    def doc_history(self, doc_id: str) -> pa.Table:
        """Provenance drill-down for ONE doc: its committed change
        events (I/U/D + image) across every retained lake version —
        the per-record answer NiFi's provenance repository serves
        (reference PersistentProvenanceRepository, nifi-in-depth.adoc:94:
        every FlowFile's lineage queryable after the fact; here lineage
        IS the manifest chain).

        Cost: one partition-pruned point read per retained version
        (``lookup`` — the id hashes to its partition, whose parts are
        probed for it), never a lake scan; the scan unit is
        the retention window, exactly like the reference's provenance
        index. Columns: version, watermark, change_op, then the row
        image (the pre-delete image for 'D', Delta-CDF style)."""
        from ..state.manifest import retained_versions
        from ..util.hashing import row_image_hash

        versions = retained_versions(self.lake_dir)
        if not versions:
            raise FileNotFoundError(f"no committed manifest in {self.lake_dir}")
        events: list[tuple[int, int, str, pa.Table]] = []
        prev: pa.Table | None = None  # 1-row image or None
        schema = None
        for v in versions:
            m = self.manifest(v)
            schema = m.schema
            t = self.lookup([doc_id], version=v)
            cur = t if t.num_rows else None
            if prev is None and cur is not None:
                events.append((v, m.applied_through, "I", cur))
            elif prev is not None and cur is None:
                events.append((v, m.applied_through, "D", prev))
            elif prev is not None and cur is not None:
                # schema may have evolved between retained versions:
                # conform BOTH images to this version's (unified-latest)
                # schema — prev gains null-filled added columns, so an
                # added column with a value in cur reads as 'U', while
                # selecting cur's names out of prev would KeyError
                payload = [n for n in m.schema.names if n != "doc_id"]
                if list(row_image_hash(conform(cur, m.schema), payload)) != list(
                    row_image_hash(conform(prev, m.schema), payload)
                ):
                    events.append((v, m.applied_through, "U", cur))
            prev = cur
        if not events:
            empty = schema.empty_table()
            for i, (name, t) in enumerate(
                (("version", pa.int64()), ("watermark", pa.int64()), ("change_op", pa.string()))
            ):
                empty = empty.add_column(i, name, pa.array([], t))
            return empty
        # conform every image to the LATEST manifest schema (not the last
        # event's image schema — a trailing 'D' stores a pre-delete image
        # that may predate later column adds)
        rows = pa.concat_tables(
            [conform(img, schema) for _, _, _, img in events]
        )
        out = rows
        out = out.add_column(0, "change_op", pa.array([e[2] for e in events], pa.string()))
        out = out.add_column(0, "watermark", pa.array([e[1] for e in events], pa.int64()))
        out = out.add_column(0, "version", pa.array([e[0] for e in events], pa.int64()))
        return out

    def read_table(self) -> pa.Table:
        """``read()`` gathered on the driver and sorted by doc_id —
        TESTS ONLY (small lakes)."""
        return pa.concat_tables(ray.get(self.read().to_arrow_refs())).sort_by("doc_id")

    def changes(
        self,
        since_version: int,
        version: int | None = None,
        columns: list[str] | None = None,
    ) -> "ray.data.Dataset":
        """Change feed: Dataset of per-doc net changes between two
        retained committed versions (snapshot diff, Delta-Lake-CDF
        analog; NiFi analog: QueryDatabaseTable's watermark-bounded
        incremental fetch pointed at our own lake).

        One row per doc whose committed image changed from
        ``since_version`` to ``version`` (default latest):
        ``change_op`` 'I' new doc (new image) / 'U' image changed (new
        image) / 'D' doc removed (old image). No-op writes are excluded
        — consumers see exactly the docs they must re-process, which is
        the point of a change feed at 100 TB: downstream reads O(changed
        docs), never O(lake).

        Scale shape: ``_version_diff_plan`` prunes partitions whose
        manifest entry (base file + delta list) is identical in both
        versions WITHOUT any file I/O, and ``_diff_map`` runs one diff
        block per remaining item — a tick that touched 10 of 4096
        partitions yields 10 diff blocks. Across a rescale (P changed)
        entries aren't comparable; each new-partition block then reads
        the P_old/gcd(P_old,P_new) old partitions that can hold its docs
        (hash partitioning is stable, so doc→partition is
        congruence-structured) and filters to its own key range — worst
        case (coprime P) degrades to a full cross-read, so rescale by
        multiples.
        """
        import ray.data as rd

        m_old = self.manifest(since_version)
        m_new = self.manifest(version)
        if m_old is None or m_new is None:
            raise FileNotFoundError(
                f"changes({since_version}, {version}): version not retained "
                f"in {self.lake_dir} (expired or never committed)"
            )
        items, same_p = _version_diff_plan(m_old, m_new)
        if not items:
            empty = m_new.schema.empty_table().add_column(
                0, "change_op", pa.array([], pa.string())
            )
            return rd.from_arrow(empty.select(columns) if columns else empty)

        def diff(old: pa.Table, new: pa.Table) -> pa.Table:
            out = _diff_snapshots(old, new)
            return out.select(columns) if columns else out

        return _diff_map(self.lake_dir, m_new, items, same_p, diff)

    # ------------------------------------------- materialized aggregates
    def create_aggregate(
        self,
        name: str,
        group_by: list[str],
        sums: list[str],
        derive: list[list[str]] | None = None,
    ) -> pa.Table:
        """Create an incrementally-maintained GROUP BY view (matview.py):
        one full scan now, O(delta) refreshes forever after."""
        from .matview import create_aggregate

        return create_aggregate(self, name, group_by, sums, derive)

    def refresh_aggregate(self, name: str) -> pa.Table:
        """Advance a maintained view to the latest lake version reading
        only partitions the manifest says changed (matview.py)."""
        from .matview import refresh_aggregate

        return refresh_aggregate(self, name)

    def read_aggregate(self, name: str, version: int | None = None) -> pa.Table:
        """A maintained view's published snapshot (matview.py)."""
        from .matview import read_aggregate

        return read_aggregate(self, name, version)

    # ------------------------------------------------ near-dup index
    def create_dedup_index(self, name: str = "neardup", **kw) -> dict:
        """Build an incrementally-maintained MinHash/LSH band index over
        the lake's tokens (pipelines/dedup_index.py)."""
        from .dedup_index import create_dedup_index

        return create_dedup_index(self, name, **kw)

    def refresh_dedup_index(self, name: str = "neardup", **kw) -> dict:
        """Advance the near-dup index to the latest lake version reading
        only manifest-changed partitions (pipelines/dedup_index.py)."""
        from .dedup_index import refresh_dedup_index

        return refresh_dedup_index(self, name, **kw)

    def create_ann_index(self, name: str = "ann", **kw) -> dict:
        """Create an incrementally-maintained IVF ANN index over the
        lake's token embeddings (pipelines/ann_index.py)."""
        from .ann_index import create_ann_index

        return create_ann_index(self, name, **kw)

    def refresh_ann_index(self, name: str = "ann", **kw) -> dict:
        """Advance the ANN index to the latest lake version — O(changed
        docs) cell patches, dense ticks rebuild (pipelines/ann_index.py)."""
        from .ann_index import refresh_ann_index

        return refresh_ann_index(self, name, **kw)

    def ann_search(self, query_doc_ids: list[str], name: str = "ann", **kw):
        """Top-k cosine neighbors of these docs' current images against
        the maintained index — point-read queries, nprobe cell reads,
        never a scan (pipelines/ann_index.py)."""
        from .ann_index import ann_search

        return ann_search(self, name, query_doc_ids, **kw)

    def near_dup_candidates(
        self, since_version: int, name: str = "neardup", **kw
    ) -> pa.Table:
        """Near-dup pairs for docs changed since a version vs the whole
        indexed corpus (pipelines/dedup_index.py)."""
        from .dedup_index import candidate_pairs_for

        return candidate_pairs_for(self, name, since_version, **kw)

    # ----------------------------------------------------------- apply
    def replay(
        self,
        event_paths: str | list[str],
        lsn_hi: int | None = None,
        mode: str = "cow",
        from_lsn: int | None = None,
        max_conflict_retries: int = 3,
    ) -> TickStats | None:
        """Apply all events with ``applied_through < lsn <= lsn_hi``;
        optimistic concurrency against other writers on the same lake.
        Each attempt is one tick (``_replay_once``): one ``_exchange``
        and one ``Manifest.advance`` commit.

        A concurrent writer racing the same manifest version surfaces
        as ``CommitConflict`` — either at a data-part publish (exclusive
        link sees foreign bytes at a deterministic part path, phase 1)
        or at the manifest link (phase 2). Both mean the OTHER tick
        committed; this one re-reads the now-advanced manifest and
        re-runs, and the watermark dedup drops whatever the winner
        already applied (exactly-once preserved — possibly a no-op
        retry). Orphan parts from the losing attempt are invisible and
        reclaimed by ``gc_orphans``. After ``max_conflict_retries``
        losses the conflict propagates."""
        def is_conflict(e: BaseException | None) -> bool:
            # Ray (and Ray Data) may wrap worker exceptions; walk the
            # cause chain for the publish_part conflicts raised inside
            # apply tasks
            while e is not None:
                if isinstance(e, CommitConflict):
                    return True
                e = e.__cause__
            return False

        last: Exception | None = None
        for _ in range(max_conflict_retries + 1):
            try:
                return self._replay_once(event_paths, lsn_hi, mode, from_lsn)
            except Exception as e:
                if not is_conflict(e):
                    raise
                last = e
        raise last

    def _replay_once(
        self,
        event_paths: str | list[str],
        lsn_hi: int | None = None,
        mode: str = "cow",
        from_lsn: int | None = None,
    ) -> TickStats | None:
        """Apply all events with ``applied_through < lsn <= lsn_hi``.

        One tick = one manifest version. Returns None if there was
        nothing to apply (watermark already covers the range).

        ``from_lsn``: override the dedup low bound (default: the
        manifest watermark). Sources that track their own delivery
        cursor — e.g. the segment consumer's per-partition offsets,
        which a single scalar watermark cannot represent — pass 0 so
        every spooled event applies; re-application of identical images
        in the crash window is LWW-idempotent on state.

        mode="cow" (default): each touched partition's file is fully
        rewritten (reads see one file per partition; per-tick write cost
        is O(partition)). mode="delta": the tick writes only the
        collapsed events, one tick file per apply task holding its
        touched partitions' rows — O(delta) bytes per tick, the scale
        answer to one-hot-doc-per-partition write amplification;
        readers overlay deltas by LWW (merge-on-read) and ``compact()``
        folds them back into base parts. Final state is identical in
        both modes (same LWW kernel).

        The tick runs ``_exchange``, two stages of raw Ray tasks:
        min(files, CPUs) map tasks read+premerge their files and return
        one shard object per partition group (``num_returns=G``, G =
        min(P, CPUs)); G apply tasks consume exactly their group's
        shards and apply each partition locally, so a tick costs no task
        per partition. One object-store write and one read per byte,
        with no aggregator actor between the stages. Lineage ``plan``
        records the task counts.
        """
        import time as _time

        from ..sources.binlog import list_event_files, prune_event_files

        t0 = _time.perf_counter()
        m = self.manifest()
        if m is None:
            raise FileNotFoundError("lake not initialized (no manifest)")
        lo = m.applied_through if from_lsn is None else from_lsn

        # binlog-tail: footer-stat prune → whole already-applied files
        # are never opened (sources/binlog.py)
        files = list_event_files(event_paths)
        files, prune_stats = prune_event_files(files, lo, lsn_hi)
        if not files:
            return None

        # Schema evolution check happens BEFORE the exchange: unify the
        # lake schema with every kept file's FOOTER schema (metadata
        # only — handles mid-stream evolution), bump on change.
        ev_fields = [
            pa.schema(
                [f for f in pq.read_schema(f_) if f.name not in ("lsn", "op")]
            )
            for f_ in files
        ]
        target = m.schema
        for s in ev_fields:
            target = unify(target, s)
        schema_version = m.schema_version + (0 if target.equals(m.schema) else 1)

        next_version = m.version + 1
        q_before = set(_quarantine_files(self._qdir))

        # tick token: deterministic in the tick's INPUTS — an identical
        # retry (Ray task retry, crash re-run of the same tick)
        # regenerates the same part names and bytes (publish_part
        # dedups), while any different attempt at this version (resumed
        # tick with other bounds, concurrent writer with other events)
        # writes under fresh names and can never clobber files another
        # writer's manifest might reference
        tick_token = hashlib.md5(
            json.dumps([m.version, lo, lsn_hi, mode, sorted(files)]).encode()
        ).hexdigest()[:8]
        if mode == "delta":
            def apply_call(pid_lo, pid_hi, shards):
                return _cdc_delta_task.remote(
                    self.lake_dir, target, next_version, lo, tick_token,
                    pid_lo, pid_hi, *shards,
                )
        else:
            # the COW apply task also takes every partition's base entry
            base_files = {
                k: {"file": e["file"], "deltas": _delta_refs(e)}
                for k, e in m.partitions.items()
            }

            def apply_call(pid_lo, pid_hi, shards):
                return _cdc_apply_task.remote(
                    self.lake_dir, base_files, target, next_version, lo,
                    tick_token, *shards,
                )
        stats_rows, plan = _exchange(
            files, m.num_partitions, _cdc_map_task,
            {"lo": lo, "lsn_hi": lsn_hi, "quarantine_dir": self._qdir},
            apply_call,
        )

        if not stats_rows:
            return None

        max_lsn_seen = max(int(r["max_lsn"]) for r in stats_rows)
        hi = lsn_hi if lsn_hi is not None else max_lsn_seen
        # a from_lsn override may apply events below the committed
        # watermark — the watermark itself never regresses
        hi = max(hi, m.applied_through)

        partitions = dict(m.partitions)
        for r in stats_rows:
            k = int(r["partition_id"])
            if mode == "delta":
                e = dict(partitions[k])
                e["deltas"] = list(e.get("deltas", [])) + [r["delta_file"]]
                # this partition's range of the tick file and its
                # integrity record, so readers slice it and verify()
                # covers merge-on-read lakes without compacting first
                dm = dict(e.get("delta_meta", {}))
                dm[r["delta_file"]] = {
                    "rows": int(r["delta_rows"]),
                    "hash": int(r["delta_hash"]),
                    "hash_rev": HASH_REV,
                    "offset": int(r["delta_offset"]),
                }
                e["delta_meta"] = dm
                e["max_lsn"] = int(r["max_lsn"])
                partitions[k] = e
            else:
                partitions[k] = _full_entry(r, r["max_lsn"])
        events_applied = sum(int(r["events_applied"]) for r in stats_rows)
        dups = sum(int(r["dups_dropped"]) for r in stats_rows)
        # quarantine parts are content-addressed: only new names add rows
        quarantined = sum(
            pq.read_metadata(os.path.join(self._qdir, f)).num_rows
            for f in _quarantine_files(self._qdir)
            if f not in q_before
        )
        wall = _time.perf_counter() - t0
        lineage = {
            "kind": "APPLY" if mode == "cow" else "APPLY_DELTA",
            "lsn_range": [lo, hi],
            "events_applied": events_applied,
            "dups_dropped": dups,
            "files_in": prune_stats.kept,
            "files_skipped_by_footer": prune_stats.skipped_by_footer,
            "partitions_touched": len(stats_rows),
            "quarantined": quarantined,
            "deletes": sum(int(r["deletes"]) for r in stats_rows),
            "bytes_written": sum(int(r["bytes_written"]) for r in stats_rows),
            "wall_sec": round(wall, 3),
            # a tick file is shared by its task's partitions: list it once
            "files_out": list(
                dict.fromkeys(r.get("file") or r.get("delta_file") for r in stats_rows)
            ),
            "plan": plan,
        }
        commit_manifest(self.lake_dir, m.advance(
            lineage, schema_version=schema_version, schema=target,
            applied_through=hi, partitions=partitions,
        ))
        from ..state.metrics import append_tick_metrics

        append_tick_metrics(self.lake_dir, next_version, (lo, hi), wall, stats_rows)
        return TickStats(
            version=next_version,
            lo=lo,
            hi=hi,
            partitions_touched=len(stats_rows),
            events_applied=events_applied,
            dups_dropped=dups,
            rows_total=sum(p["rows"] for p in partitions.values()),
            wall_sec=wall,
            quarantined=quarantined,
        )

    def rescale(self, new_num_partitions: int) -> Manifest:
        """Repartition the lake to a new partition count (one manifest
        version; the watermark is unchanged). The growth operation at
        scale: double P when partitions outgrow a task's memory. Runs
        ``_exchange`` with the same tasks as init."""
        m = self.manifest()
        if m is None:
            raise FileNotFoundError("lake not initialized")
        if m.has_deltas():
            # rescale reads base part files only — fold deltas first so
            # merge-on-read state is never silently dropped
            self.compact()
            m = self.manifest()
        P = new_num_partitions
        tick_token = hashlib.md5(
            json.dumps([m.version, "rescale", P]).encode()
        ).hexdigest()[:8]
        stats, plan = _exchange(
            m.data_files(self.lake_dir), P, _rescale_map_task, {},
            lambda pid_lo, pid_hi, shards: _rescale_write_task.remote(
                self.lake_dir, m.schema, m.version + 1, pid_lo, pid_hi,
                tick_token, *shards,
            ),
        )
        partitions = {
            row["partition_id"]: _full_entry(row, m.applied_through) for row in stats
        }
        m2 = m.advance(
            {
                "kind": "RESCALE",
                "from_partitions": m.num_partitions,
                "to_partitions": P,
                "rows": sum(p["rows"] for p in partitions.values()),
                "plan": plan,
            },
            num_partitions=P, partitions=partitions,
        )
        commit_manifest(self.lake_dir, m2)
        return m2

    def restore(self, version: int) -> Manifest:
        """Roll the lake back to an earlier RETAINED version as a NEW
        commit (the Delta Lake RESTORE shape): the new manifest copies
        the target's partitions / schema / watermark under
        ``latest + 1``, so history stays linear and a later
        ``replay`` resumes from the restored watermark (re-ingesting
        the rolled-back LSN range idempotently). Zero data movement —
        part files are shared by reference; ``gc_orphans`` keeps them
        live because the restored manifest references them. Lineage
        gains a RESTORE record on top of the CURRENT history (roll
        forward, not erase)."""
        cur = self.manifest()
        if cur is None:
            raise FileNotFoundError("lake not initialized")
        tgt = self.manifest(version)
        if tgt is None:
            raise FileNotFoundError(f"version {version} is not retained")
        m2 = cur.advance(
            {
                "kind": "RESTORE",
                "to_version": version,
                "applied_through": tgt.applied_through,
            },
            num_partitions=tgt.num_partitions,
            schema_version=tgt.schema_version,
            schema=tgt.schema,
            applied_through=tgt.applied_through,
            partitions=tgt.partitions,
        )
        commit_manifest(self.lake_dir, m2)
        return m2

    # ----------------------------------------------------- verification
    def verify(self, version: int | None = None) -> dict:
        """Recompute every partition's content checksum and row count
        from its data files and compare to the committed manifest — the
        executable form of NiFi's site-to-site CRC32 transaction
        confirmation (reference nifi-commons/nifi-site-to-site-client/
        .../remote/AbstractTransaction.java:177-210: sender and receiver
        agree on a running checksum before COMPLETE). The files are dealt
        into ≤ CPUs Ray tasks; returns {ok, partitions_checked,
        mismatches}.

        Merge-on-read partitions are covered too: the base file checks
        against the entry's (compacted-state) hash and the partition's
        range of every tick file against its ``delta_meta`` record
        written at apply time, so a MOR lake needs no compaction for
        full verification.
        Delta files predating ``delta_meta`` (legacy manifests) are the
        only skip, reported in ``skipped_deltas``.

        Hash-algorithm versioning: every entry carries the
        ``hash_rev`` of the ``state_checksum`` that produced it
        (missing = rev 1, the pre-r4 clip-reduceat kernel). A file
        recorded under a DIFFERENT rev than this process computes is
        row-count-checked only — never reported as corruption — and
        counted in ``skipped_hash_rev``. Rewriting (apply / compact /
        rescale) re-stamps entries at the current rev, so a lake
        upgrades organically."""
        m = self.manifest(version)
        if m is None:
            raise FileNotFoundError("lake not initialized")
        items, want = [], {}
        skipped = 0
        for k, e in sorted(m.partitions.items()):
            meta = e.get("delta_meta", {})
            deltas = e.get("deltas", [])
            if any(d not in meta for d in deltas):
                skipped += 1  # legacy manifest without per-delta records
                continue
            items.append((k, e["file"], None))
            want[(k, e["file"])] = {
                "rows": e["rows"],
                "hash": int(e["token_hash"]),
                "rev": int(e.get("hash_rev", 1)),
            }
            for ref in _delta_refs(e):
                d = ref["file"]
                items.append((k, d, ref))
                want[(k, d)] = {
                    "rows": meta[d]["rows"],
                    "hash": int(meta[d]["hash"]),
                    "rev": int(meta[d].get("hash_rev", 1)),
                }
        mismatches = []
        checked_parts = set()
        skipped_hash_rev = 0
        refs = [_verify_task.remote(self.lake_dir, group) for group in _deal(items)]
        for r in (r for rows in ray.get(refs) for r in rows):
            exp = want[(r["partition_id"], r["file"])]
            checked_parts.add(r["partition_id"])
            hash_comparable = exp["rev"] == HASH_REV
            if not hash_comparable:
                skipped_hash_rev += 1
            if r["rows"] != exp["rows"] or (
                hash_comparable and int(r["token_hash"]) != exp["hash"]
            ):
                mismatches.append(
                    {
                        "partition_id": r["partition_id"],
                        "file": r["file"],
                        "rows": [exp["rows"], r["rows"]],
                        "token_hash": [exp["hash"], int(r["token_hash"])],
                    }
                )
        return {
            "ok": not mismatches,
            "partitions_checked": len(checked_parts),
            "files_checked": len(want),
            "skipped_deltas": skipped,
            "skipped_hash_rev": skipped_hash_rev,
            "mismatches": mismatches,
        }

    # ------------------------------------------------------- compaction
    def compact(self, min_deltas: int = 1) -> Manifest | None:
        """Fold delta parts back into COW base parts (one manifest
        version). Only partitions with ≥ ``min_deltas`` deltas are
        rewritten; a periodic compactor would call this with a higher
        threshold so per-tick cost stays O(delta) and read amplification
        stays bounded. Returns None if nothing to compact."""
        m = self.manifest()
        if m is None:
            raise FileNotFoundError("lake not initialized")
        todo = {
            k: e for k, e in m.partitions.items()
            if len(e.get("deltas", [])) >= max(min_deltas, 1)
        }
        if not todo:
            return None
        tick_token = hashlib.md5(
            json.dumps([m.version, "compact"]).encode()
        ).hexdigest()[:8]
        groups = _deal(
            [(k, e.get("file"), _delta_refs(e)) for k, e in sorted(todo.items())]
        )
        refs = [
            _compact_task.remote(
                self.lake_dir, group, m.schema, m.version + 1, tick_token
            )
            for group in groups
        ]
        partitions = dict(m.partitions)
        bytes_written = 0
        for r in (r for rows in ray.get(refs) for r in rows):
            k = int(r["partition_id"])
            partitions[k] = _full_entry(r, m.partitions[k]["max_lsn"])
            bytes_written += int(r["bytes_written"])
        m2 = m.advance(
            {
                "kind": "COMPACT",
                "partitions": sorted(todo),
                "deltas_folded": sum(len(e["deltas"]) for e in todo.values()),
                "bytes_written": bytes_written,
                "plan": {"map_tasks": 0, "apply_tasks": len(groups)},
            },
            partitions=partitions,
        )
        commit_manifest(self.lake_dir, m2)
        return m2

    def replay_ticks(
        self, event_paths: str | list[str], tick_size: int, lsn_end: int,
        mode: str = "cow",
    ) -> list[TickStats]:
        """Batch-replay loop: chunks of LSN ranges as ticks, one commit
        each — the 'continuous' mode (SURVEY.md §7.3 step 8)."""
        out = []
        while True:
            m = self.manifest()
            lo = m.applied_through
            if lo >= lsn_end:
                break
            hi = min(lo + tick_size, lsn_end)
            st = self.replay(event_paths, lsn_hi=hi, mode=mode)
            if st is not None:
                out.append(st)
            elif hi >= lsn_end:
                break
            else:
                # empty range: advance watermark with a metadata-only commit
                commit_manifest(self.lake_dir, m.advance(
                    {"kind": "APPLY", "lsn_range": [lo, hi], "events_applied": 0,
                     "plan": {"map_tasks": 0, "apply_tasks": 0}},
                    applied_through=hi,
                ))
        return out
