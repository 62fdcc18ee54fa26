"""Incrementally-maintained materialized aggregates over a CDCLake.

Classic incremental view maintenance (IVM) for distributive aggregates
(COUNT / SUM — the self-maintainable class from the materialized-view
literature): the delta of a GROUP BY between two lake versions is

    agg(new snapshot) − agg(old snapshot)

summed over TOUCHED partitions only. Untouched partitions contribute
identical rows to both sides and cancel exactly, so they are pruned at
the manifest with ZERO file I/O (the same partition-diff plan as
``CDCLake.changes`` — ``cdc._version_diff_plan``). Refresh cost is
O(changed-partition bytes) per tick, never O(lake): the property that
makes a maintained GROUP BY viable at 100 TB where a rescan per tick is
not. NiFi expresses this pattern externally (QueryDatabaseTable →
aggregate → PutSQL into a summary table, reference
nifi-standard-processors/.../standard/QueryDatabaseTable.java watermark
loop); here the lake maintains its own summary atomically.

Semantics / invariants:
- Groups whose maintained COUNT reaches 0 are dropped from the view
  (no empty-group residue).
- A compaction between refreshes changes manifest entries without
  changing state: the diff plan re-reads those partitions and their
  delta is exactly zero — wasteful I/O at worst, never wrong.
- A rescale between refreshes is handled by the congruence cross-read
  in the diff plan (old rows filtered to the keys the new partition
  owns) — same math as the change feed.
- If the view's last-reflected lake version has been expired
  (``expire_versions``), refresh falls back to one full recompute.
- Publishing is exclusive (``os.link`` — EEXIST on a concurrent
  refresher, mirroring the manifest commit): the view directory holds
  one parquet per reflected lake version, so reads are versioned the
  same way the lake is.

Derived columns: a sum target may be a column derived from the row
image at scan time; the vocabulary is intentionally tiny and
JSON-serializable (``["out_name", "list_sum", "src_col"]`` — sum of a
list<int> column's elements, vectorized reduceat). This is how a
tokens-axis deployment maintains a per-source token budget: group_by
["source"], sums over n_tok / list_sum(tokens), refreshed O(delta)
after every ingest tick.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state.manifest import publish_once

_AGG_DIR = "_aggregates"
_AGG_RE = re.compile(r"^agg_v(\d{6})\.parquet$")


def _view_dir(lake_dir: str, name: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9_\-]+", name):
        raise ValueError(f"aggregate name {name!r}: use [A-Za-z0-9_-]")
    return os.path.join(lake_dir, _AGG_DIR, name)


def _spec_path(lake_dir: str, name: str) -> str:
    return os.path.join(_view_dir(lake_dir, name), "spec.json")


def agg_versions(lake_dir: str, name: str) -> list[int]:
    """Sorted lake versions this view has a published snapshot for."""
    d = _view_dir(lake_dir, name)
    if not os.path.isdir(d):
        return []
    out = []
    for f in os.listdir(d):
        m = _AGG_RE.match(f)
        if m:
            out.append(int(m.group(1)))
    return sorted(out)


def _load_spec(lake_dir: str, name: str) -> dict:
    with open(_spec_path(lake_dir, name)) as f:
        return json.load(f)


def _derive_cols(t: pa.Table, derive: list[list[str]]) -> pa.Table:
    """Append derived sum targets. Vocabulary: ["out","list_sum","col"]
    = elementwise sum of a list<int*> column (int64), vectorized."""
    for out, kind, col in derive or []:
        if kind != "list_sum":
            raise ValueError(f"unknown derive kind {kind!r}")
        lst = t[col].combine_chunks()
        flat = lst.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        lens = pc.list_value_length(lst).to_numpy(zero_copy_only=False)
        lens = np.nan_to_num(lens.astype(np.float64)).astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        # reduceat only over NON-EMPTY segments: an empty trailing list has
        # start == flat.size, and clipping it backward would truncate the
        # previous segment (reduceat treats a non-increasing index pair as a
        # single-element segment). Scatter results into a zero vector instead.
        sums = np.zeros(len(lens), np.int64)
        nz = lens > 0
        if flat.size and nz.any():
            sums[nz] = np.add.reduceat(flat, starts[nz])
        t = t.append_column(out, pa.array(sums, pa.int64()))
    return t


def _sum_type(schema: pa.Schema, col: str, derive: list[list[str]]) -> pa.DataType:
    for out, _kind, _src in derive or []:
        if out == col:
            return pa.int64()
    f = schema.field(col)
    return pa.int64() if pa.types.is_integer(f.type) else pa.float64()


def _partial_schema(schema: pa.Schema, group_by: list[str], sums: list[str],
                    derive: list[list[str]]) -> pa.Schema:
    fields = [schema.field(g) for g in group_by]
    fields.append(pa.field("n_docs", pa.int64()))
    fields += [pa.field(f"sum_{c}", _sum_type(schema, c, derive)) for c in sums]
    return pa.schema(fields)


def _signed_partial(
    t: pa.Table,
    group_by: list[str],
    sums: list[str],
    derive: list[list[str]],
    target: pa.Schema,
    sign: int,
) -> pa.Table:
    """Per-snapshot grouped partial: (group keys, ±count, ±sums)."""
    if t.num_rows == 0:
        return target.empty_table()
    t = _derive_cols(t, derive)
    aggs = [(c, "sum") for c in sums] + [([], "count_all")]
    g = t.select(group_by + sums).group_by(group_by).aggregate(aggs)
    cols = {k: g[k] for k in group_by}
    s = pa.scalar(sign, pa.int64())
    cols["n_docs"] = pc.multiply(pc.cast(g["count_all"], pa.int64()), s)
    for c in sums:
        tt = target.field(f"sum_{c}").type
        v = pc.cast(pc.coalesce(g[f"{c}_sum"], pa.scalar(0, tt)), tt)
        cols[f"sum_{c}"] = pc.multiply(v, pc.cast(s, tt))
    return pa.table(cols, schema=target)


def _combine(partials: pa.Table, group_by: list[str], sums: list[str]) -> pa.Table:
    """Sum partials per group, drop zero-count groups, deterministic
    (group-sorted) output — the published view snapshot."""
    target = partials.schema
    aggs = [("n_docs", "sum")] + [(f"sum_{c}", "sum") for c in sums]
    g = partials.group_by(group_by).aggregate(aggs)
    cols = {k: g[k] for k in group_by}
    cols["n_docs"] = pc.cast(g["n_docs_sum"], pa.int64())
    for c in sums:
        tt = target.field(f"sum_{c}").type
        cols[f"sum_{c}"] = pc.cast(g[f"sum_{c}_sum"], tt)
    out = pa.table(cols, schema=target)
    out = out.filter(pc.not_equal(out["n_docs"], 0))
    return out.sort_by([(k, "ascending") for k in group_by])


def _publish(lake_dir: str, name: str, version: int, t: pa.Table) -> None:
    """Exclusive snapshot publish (``publish_once``: a concurrent
    refresher that published this version first wins)."""
    d = _view_dir(lake_dir, name)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"agg_v{version:06d}.parquet")
    publish_once(path, lambda tmp: pq.write_table(t, tmp))


def read_aggregate(lake, name: str, version: int | None = None) -> pa.Table:
    """The published view snapshot at a reflected lake ``version``
    (default: the view's latest)."""
    vs = agg_versions(lake.lake_dir, name)
    if not vs:
        raise FileNotFoundError(f"aggregate {name!r}: not created")
    if version is None:
        version = vs[-1]
    if version not in vs:
        raise FileNotFoundError(
            f"aggregate {name!r}: no snapshot at lake version {version} "
            f"(have {vs})"
        )
    d = _view_dir(lake.lake_dir, name)
    return pq.read_table(os.path.join(d, f"agg_v{version:06d}.parquet"))


def _full_partials(lake, spec: dict, tgt: pa.Schema, m):
    """Distributed full-scan partials of manifest ``m`` (creation /
    expired-base rebuild): ``cdc._scan_map``'s dealt scan tasks reduce
    each partition to its grouped partial, so only (groups × partitions)
    tiny rows ever leave the workers."""
    import ray

    from .cdc import _scan_map

    group_by, sums, derive = spec["group_by"], spec["sums"], spec["derive"]
    cols = sorted(
        set(group_by)
        | {c for c in sums if c not in {o for o, _, _ in derive}}
        | {src for _, _, src in derive}
    )
    def part(t: pa.Table) -> pa.Table:
        return _signed_partial(t, group_by, sums, derive, tgt, 1)

    tables = [t for t in ray.get(_scan_map(lake.lake_dir, m, cols, part)) if t.num_rows]
    return pa.concat_tables(tables or [tgt.empty_table()])


def create_aggregate(
    lake,
    name: str,
    group_by: list[str],
    sums: list[str],
    derive: list[list[str]] | None = None,
) -> pa.Table:
    """Create + publish the view at the lake's current version with one
    distributed full scan (the only O(lake) step in the view's life).
    Idempotent: re-creating with the same spec refreshes instead."""
    m = lake._snapshot()
    derive = [list(d) for d in (derive or [])]
    spec = {"group_by": list(group_by), "sums": list(sums), "derive": derive}
    sp = _spec_path(lake.lake_dir, name)
    if os.path.exists(sp):
        if _load_spec(lake.lake_dir, name) != spec:
            raise FileExistsError(f"aggregate {name!r} exists with a different spec")
        return refresh_aggregate(lake, name)
    schema = m.schema
    for c in group_by + [c for c in sums if c not in {o for o, _, _ in derive}]:
        if schema.get_field_index(c) < 0:
            raise KeyError(f"aggregate {name!r}: column {c!r} not in lake schema")
    target = _partial_schema(schema, group_by, sums, derive)
    partials = _full_partials(lake, spec, target, m)
    out = _combine(partials, group_by, sums)
    os.makedirs(_view_dir(lake.lake_dir, name), exist_ok=True)
    publish_once(sp, lambda tmp: Path(tmp).write_text(json.dumps(spec)))
    _publish(lake.lake_dir, name, m.version, out)
    return read_aggregate(lake, name)


def refresh_aggregate(lake, name: str) -> pa.Table:
    """Advance the view to the lake's latest version incrementally:
    diff-plan the two manifests (untouched partitions pruned, zero I/O),
    compute agg(new)−agg(old) per touched partition in ``cdc._diff_map``'s
    dealt diff tasks (no Dataset: the driver gathers their tables), merge
    the tiny grouped delta into the previous snapshot, publish. Falls
    back to one full recompute when the previous reflected version has
    been expired from the manifest chain."""
    import ray

    from .cdc import _diff_map, _version_diff_plan

    m_new = lake._snapshot()
    vs = agg_versions(lake.lake_dir, name)
    if not vs:
        raise FileNotFoundError(f"aggregate {name!r}: not created")
    v_from = vs[-1]
    if v_from >= m_new.version:
        return read_aggregate(lake, name)
    spec = _load_spec(lake.lake_dir, name)
    group_by, sums, derive = spec["group_by"], spec["sums"], spec["derive"]
    prev = read_aggregate(lake, name, v_from)
    target = _partial_schema(m_new.schema, group_by, sums, derive)

    try:
        m_old = lake.manifest(v_from)
    except FileNotFoundError:
        m_old = None
    if m_old is None:
        # reflected version expired → rebuild from a full scan
        partials = _full_partials(lake, spec, target, m_new)
        out = _combine(partials, group_by, sums)
        _publish(lake.lake_dir, name, m_new.version, out)
        return read_aggregate(lake, name)

    items, same_p = _version_diff_plan(m_old, m_new)
    if not items:
        _publish(lake.lake_dir, name, m_new.version, prev)
        return read_aggregate(lake, name)

    def delta(old: pa.Table, new: pa.Table) -> pa.Table:
        # agg(new) − agg(old); a suffix item's images are only the
        # changed docs, whose unchanged neighbours would cancel anyway
        return pa.concat_tables([
            _signed_partial(new, group_by, sums, derive, target, 1),
            _signed_partial(old, group_by, sums, derive, target, -1),
        ])

    deltas = ray.get(_diff_map(lake.lake_dir, m_new, items, same_p, delta))
    out = _combine(pa.concat_tables([prev.cast(target), *deltas]), group_by, sums)
    _publish(lake.lake_dir, name, m_new.version, out)
    return read_aggregate(lake, name)
