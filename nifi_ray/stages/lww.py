"""Last-writer-wins kernels — the heart of the upsert/merge apply.

All vectorized Arrow/numpy; no Python row loops. Two layers:

- ``collapse_last_writer``: within one table, keep only the highest-LSN
  row per key (tombstone ``D`` rows survive as full rows). This is
  ASSOCIATIVE — collapsing per batch and then collapsing the collapsed
  rows gives the same result as one global collapse — which is what
  makes the batch-local pre-merge before the shuffle correct. That
  pre-merge is this engine's answer to hot-key skew (SURVEY.md §7.5):
  a doc_id carrying 10% of the stream is reduced to ≤1 row per batch
  BEFORE the all-to-all exchange, so the keyed apply never sees the
  skew. (NiFi analog: MergeContent bin-packing as local fan-in before
  the transactional sink, reference
  nifi-standard-processors/.../standard/MergeContent.java:140-147.)

- ``merge_into_base``: outer-merge a collapsed event set into a base
  partition table — deletes drop base rows, upserts replace/insert
  full-row images. NiFi 1.1.2 has no join operator (SURVEY.md §2.7);
  this is the explicit key-partitioned merge the reference delegates
  to external databases via PutSQL (reference
  nifi-standard-processors/.../standard/PutSQL.java:294-371).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


_FILTER_ROWS_PER_CHUNK = 4096


def collapse_last_writer(
    table: pa.Table,
    key: str = "doc_id",
    order: str = "lsn",
    count_col: str | None = None,
) -> pa.Table:
    """Keep only each key's highest-``order`` row. Stable for duplicate
    (key, order) pairs (replayed event files carry identical images, so
    either copy is correct).

    ``count_col``: when set, the output carries how many ORIGINAL rows
    each surviving row absorbed (created as ones if absent, summed per
    run if present) — this keeps raw-event accounting exact across the
    associative two-level collapse (lineage needs true event counts,
    not post-merge row counts).
    """
    if count_col is not None and count_col not in table.schema.names:
        table = table.append_column(
            count_col, pa.array(np.ones(table.num_rows, dtype=np.int64))
        )
    if table.num_rows <= 1:
        return table
    # O(n) last-writer selection without sorting the (string) key or
    # gathering the full payload: dictionary-encode the key (Arrow C++
    # hash), argsort the ORDER column only (cheap int sort), then a
    # vectorized scatter — for rows visited in ascending order, the last
    # write into winner[code] is the highest-order row per key. Only the
    # surviving rows' payloads are gathered. ~5x faster than
    # sort_by+take on token-list payloads.
    keys = table[key]
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    enc = pc.dictionary_encode(keys)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n_uniq = len(enc.dictionary)
    if n_uniq == table.num_rows:  # every row is its key's winner: no copy
        return table
    order_vals = table[order].to_numpy(zero_copy_only=False)
    pos = np.argsort(order_vals, kind="stable")
    winner = np.empty(n_uniq, dtype=np.int64)
    winner[codes[pos]] = pos
    # Gather the winners in row order. Table.take concatenates every
    # chunk first (pyarrow 16), a full payload copy of a map task's
    # many-file table for ~10% survivors, so large chunks are filtered
    # chunk by chunk; small ones (delta overlays) take: crossover ~4k
    # rows per chunk, below it the per-chunk kernel calls cost more.
    sel = np.sort(winner)
    if table.num_rows >= _FILTER_ROWS_PER_CHUNK * table[key].num_chunks:
        keep = np.zeros(table.num_rows, dtype=bool)
        keep[sel] = True
        out = table.filter(pa.array(keep))
    else:
        out = table.take(pa.array(sel))
    if count_col is not None:
        counts = table[count_col].to_numpy(zero_copy_only=False)
        sums = np.bincount(codes, weights=counts, minlength=n_uniq).astype(np.int64)
        # row i of `out` is row sel[i] of the input, the winner of
        # code codes[sel[i]]; its absorbed count is that code's sum
        out = out.set_column(
            out.schema.get_field_index(count_col), count_col, pa.array(sums[codes[sel]])
        )
    return out


def lww_latest(
    ds,
    key: str,
    order: str,
    payload_cols: list[str] | None = None,
    num_partitions: int = 16,
):
    """Dataset-level last-writer-wins: latest row per key by ``order``.

    Two-level: batch-local collapse (map_batches, cuts the shuffle and
    absorbs hot keys) then per-key collapse (groupby.map_groups). The
    shuffle carries ≤ one row per (key, batch), not the full stream.

    Exchange choice, MEASURED: round 2 swapped the sort-based groupby
    for a keyed hash ``repartition(16)`` expecting to skip the sort —
    and regressed the driver bench 1.8→2.5 s. A same-session A/B at
    sf0.1/32 CPUs (3 interleaved runs each, min-of-3): hash exchange
    3.24/3.49 s vs groupby 1.50/1.59 s — the hash-shuffle aggregator
    actors cost more than sorting the already-collapsed (tiny) rows.
    So: sort-based groupby on the collapsed stream is the keeper;
    ``num_partitions`` is kept for API compatibility (the sort exchange
    picks its own partitioning).
    """

    def local(batch: pa.Table) -> pa.Table:
        return collapse_last_writer(
            batch.replace_schema_metadata(None), key=key, order=order
        )

    def final(group: pa.Table) -> pa.Table:
        out = collapse_last_writer(group, key=key, order=order)
        return out.select(payload_cols) if payload_cols else out

    return (
        ds.map_batches(local, batch_format="pyarrow")
        .groupby(key)
        .map_groups(final, batch_format="pyarrow")
    )


def merge_into_base(
    base: pa.Table, collapsed_events: pa.Table, key: str = "doc_id"
) -> pa.Table:
    """Apply a collapsed (≤1 row per key) event set to a base table.

    Returns the new base rows (unsorted): base rows untouched by any
    event + full-row images of I/U events. ``D`` events remove; a delete
    of an absent key is a no-op (but its LSN still advances the
    watermark — the caller tracks that).
    """
    if collapsed_events.num_rows == 0:
        return base
    base_cols = base.schema.names
    ev_keys = collapsed_events[key]
    if base.num_rows:
        untouched = base.filter(
            pc.invert(pc.is_in(base[key], value_set=ev_keys.combine_chunks()))
        )
    else:
        untouched = base
    upserts = collapsed_events.filter(pc.not_equal(collapsed_events["op"], "D"))
    upserts = upserts.select(base_cols)
    return pa.concat_tables([untouched, upserts], promote_options="permissive")
