"""Incrementally-maintained MinHash/LSH near-dup index over a CDCLake.

The batch near-dup pipeline (stages/dedup.py → ☆minhash_pairs) answers
"which docs in this corpus are near-duplicates" with a full-corpus
signature pass per run. At 100 TB with a CDC stream on top, the
question becomes "which of the docs THIS TICK touched are near-dups of
anything already in the corpus" — and recomputing the corpus is the
wrong cost class. This module maintains the LSH band index as lake
state, updated O(delta) per tick, so streaming near-dup detection costs

    refresh:    O(changed-partition bytes)   (manifest-diff pruning,
                                              same plan as changes())
    candidates: O(changed docs × bands)      (probe only the buckets
                                              the changed docs hash to)

Index layout (under the lake root — versioned like everything else):

    _indexes/{name}/spec.json                     hasher parameters
    _indexes/{name}/idx_v{V:06d}.json             manifest per reflected
                                                  lake version V
    _indexes/{name}/b={B:04d}/{part,delta}-v{V:06d}[-from{F:06d}].parquet
        bucket files of (doc_id, band_id, band_hash, sign) rows, bucket
        B = band_hash mod Q. A build writes ``part-v{V}`` bases; a
        refresh from index version F writes ``delta-v{V}-fromF``
        patches and, once a chain grows past ``max_deltas``, folds it
        into a ``part-v{V}-fromF`` base.

Maintenance math: per touched lake partition, band rows of the old and
new snapshots carry signs −/+; rows of unchanged docs cancel exactly in
a local group-sum, so only genuinely changed docs' rows ship to their
buckets (deletes arrive as bare − rows and are removed from the bucket
file; updates as −old/+new). A refresh whose surviving delta exceeds
``max_delta_rows`` falls back to a full rebuild — the honest answer
when a tick rewrote most of the lake.

The refresh protocol over signed buckets (``_refresh_signed``) is
shared with the IVF ANN index (ann_index.py): each index supplies only
its kernels — patch rows from a diff item's (old, new) images, the
bucket of a row, the merge, the file writer and the rebuild.

Signatures use TokenMinHasher (stages/dedup.py): shingle units are the
lake's token ids directly — no text, no string hashing; the scalar
oracle (oracle_expected.expected_streaming_neardup) replays the same
arithmetic with python ints.
"""

from __future__ import annotations

import functools
import json
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..stages.dedup import TokenMinHasher
from ..state.manifest import publish_part

_IDX_DIR = "_indexes"
_IDX_RE = re.compile(r"^idx_v(\d{6})\.json$")

ROWS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("band_id", pa.int32()),
        pa.field("band_hash", pa.uint64()),
    ]
)


def _dir(lake_dir: str, name: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9_\-]+", name):
        raise ValueError(f"index name {name!r}: use [A-Za-z0-9_-]")
    return os.path.join(lake_dir, _IDX_DIR, name)


def index_versions(lake_dir: str, name: str) -> list[int]:
    d = _dir(lake_dir, name)
    if not os.path.isdir(d):
        return []
    return sorted(
        int(m.group(1)) for f in os.listdir(d) if (m := _IDX_RE.match(f))
    )


def _load_spec(lake_dir: str, name: str) -> dict:
    with open(os.path.join(_dir(lake_dir, name), "spec.json")) as f:
        return json.load(f)


def load_index_manifest(lake_dir: str, name: str, version: int | None = None) -> dict:
    """An index's manifest at a reflected lake ``version`` (default: its
    latest); raises when that version is not retained."""
    vs = index_versions(lake_dir, name)
    if not vs:
        raise FileNotFoundError(f"index {name!r}: not created")
    if version is None:
        version = vs[-1]
    if version not in vs:
        raise FileNotFoundError(
            f"index {name!r}: no snapshot at lake version {version} (have {vs})"
        )
    with open(os.path.join(_dir(lake_dir, name), f"idx_v{version:06d}.json")) as f:
        return json.load(f)


def _publish(lake_dir: str, name: str, version: int, buckets: dict) -> None:
    """Exclusive manifest publish (os.link — EEXIST = concurrent
    refresher already published an equivalent snapshot)."""
    d = _dir(lake_dir, name)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"idx_v{version:06d}.json")
    tmp = path + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({"version": version, "buckets": buckets}, f, sort_keys=True)
    try:
        os.link(tmp, path)
    except FileExistsError:
        pass
    finally:
        os.unlink(tmp)


def _hasher(spec: dict) -> TokenMinHasher:
    return TokenMinHasher(
        num_hashes=spec["num_hashes"], bands=spec["bands"], seed=spec["seed"]
    )


def _band_rows(t: pa.Table, hasher: TokenMinHasher) -> pa.Table:
    """(doc_id, band_id, band_hash) rows for a state slice."""
    if t.num_rows == 0:
        return ROWS_SCHEMA.empty_table()
    out = hasher(t.select(["doc_id", "tokens"]))
    return pa.table(
        {
            "doc_id": out["doc_id"],
            "band_id": out["band_id"],
            "band_hash": out["band_hash"],
        },
        schema=ROWS_SCHEMA,
    )


def _bucket_of(band_hash: pa.ChunkedArray | pa.Array, q: int) -> np.ndarray:
    h = (
        band_hash.combine_chunks()
        if isinstance(band_hash, pa.ChunkedArray)
        else band_hash
    )
    return (h.to_numpy(zero_copy_only=False).astype(np.uint64) % np.uint64(q)).astype(
        np.int32
    )


# on-disk bucket row: band row + sign. Base files hold +1 rows; delta
# patch files hold ±1 rows (−1 = remove this exact (doc, band, hash)
# row). Bucket state = group-by(doc,band,hash) sum(sign) > 0 — the
# alternating add/remove history of a row nets to its current presence,
# so patches need no ordering beyond set membership.
SIGNED_SCHEMA = ROWS_SCHEMA.append(pa.field("sign", pa.int8()))


def _write_bucket_file(
    lake_dir, name, bucket: int, version: int, rows: pa.Table, kind: str = "part",
    from_version: int | None = None,
) -> str:
    """Write one bucket base/delta file under a name that is unique per
    (bucket, target version, REFRESH ORIGIN). Refresh-written bytes are a
    function of the from-version too (which snapshot diff was computed),
    so two concurrent refreshers starting from different index versions
    but racing the same lake version must land on DIFFERENT paths — the
    exclusive idx_v{V}.json winner then references only its own bytes
    (the loser's files are unreferenced orphans). Publishing goes through
    ``publish_part`` (exclusive link, identical-bytes dedup) so a retried
    task is a no-op and any residual same-path/different-bytes race
    raises instead of silently cross-linking."""
    tag = f"{kind}-v{version:06d}" + (
        f"-from{from_version:06d}" if from_version is not None else ""
    )
    rel = os.path.join(_IDX_DIR, name, f"b={bucket:04d}", f"{tag}.parquet")
    path = os.path.join(lake_dir, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp-{os.getpid()}"
    pq.write_table(rows.sort_by([("band_hash", "ascending"), ("doc_id", "ascending"),
                                 ("band_id", "ascending")]), tmp)
    publish_part(tmp, path)
    return rel


def _signed(rows: pa.Table, sign: int) -> pa.Table:
    if "sign" in rows.schema.names:
        return rows.cast(SIGNED_SCHEMA)
    return rows.append_column(
        "sign", pa.array(np.full(rows.num_rows, sign, dtype=np.int8))
    )


def _merge_bucket(tables: list[pa.Table]) -> pa.Table:
    """Merge-on-read kernel for one bucket: base + delta patches →
    current (doc_id, band_id, band_hash) rows (net sign > 0)."""
    live = [t for t in tables if t is not None and t.num_rows]
    if not live:
        return ROWS_SCHEMA.empty_table()
    allr = pa.concat_tables([_signed(t, 1) for t in live])
    g = allr.group_by(["doc_id", "band_id", "band_hash"]).aggregate([("sign", "sum")])
    g = g.filter(pc.greater(g["sign_sum"], 0))
    return pa.table(
        {"doc_id": g["doc_id"], "band_id": g["band_id"], "band_hash": g["band_hash"]},
        schema=ROWS_SCHEMA,
    )


def _norm_entry(entry) -> dict | None:
    """Manifest-format evolution: v1 stored a bare file path per bucket
    (no delta chains); normalize to the {file, deltas} shape."""
    if entry is None or isinstance(entry, dict):
        return entry
    return {"file": entry, "deltas": []}


def _entry_parts(lake_dir: str, entry) -> list[pa.Table]:
    """The base and delta files of one bucket entry (either index)."""
    entry = _norm_entry(entry) or {}
    rels = ([entry["file"]] if entry.get("file") else []) + list(entry.get("deltas", []))
    return [pq.read_table(os.path.join(lake_dir, rel)) for rel in rels]


def _read_bucket(lake_dir: str, entry) -> pa.Table:
    return _merge_bucket(_entry_parts(lake_dir, entry))


@ray.remote(num_cpus=1)
def _patch_bucket(
    lake_dir: str, b: int, entry: dict | None, patch: pa.Table,
    write, merge, version: int, v_from: int, max_deltas: int,
) -> tuple:
    """Append one refresh's signed patch to bucket ``b`` as a DELTA file
    — O(patch) bytes, the bucket base is NOT rewritten (write
    amplification at uniform churn would otherwise equal a full index
    rewrite per tick). Fold base + deltas into a new base (``merge``)
    only when the chain grows past ``max_deltas`` — the lake's
    merge-on-read policy applied to its own index. Returns ``(b, entry)``;
    ``None`` drops a bucket left empty."""
    entry = _norm_entry(entry) or {}
    rel = write(b, version, patch, kind="delta", from_version=v_from)
    entry = {"file": entry.get("file"), "deltas": [*entry.get("deltas", []), rel]}
    if len(entry["deltas"]) <= max_deltas:
        return b, entry
    merged = merge(_entry_parts(lake_dir, entry))
    if merged.num_rows == 0:
        return b, None
    return b, {"file": write(b, version, merged, from_version=v_from), "deltas": []}


def _refresh_signed(
    lake, name: str, *, rows, bucket_of, merge, write, rebuild,
    rows_per_doc: int, max_delta_rows: int, max_deltas: int,
) -> dict:
    """Advance a signed-bucket index to the lake's latest version — the
    one refresh protocol of both maintained indexes:

    1. the index's lake version was expired → ``rebuild(version)``;
    2. no diff item → republish the buckets by reference;
    3. every item suffix-shaped and its appended delta ranges' row
       counts × ``rows_per_doc`` over ``max_delta_rows`` → rebuild,
       decided before any diff, hash or patch work (a dense tick's
       refresh was otherwise ~2× the rebuild it falls back to);
    4. ``rows(old, new)`` per item through ``cdc._diff_map`` — signed
       rows of the changed docs only; more than ``max_delta_rows`` →
       rebuild (never silent: the cost class changes);
    5. one stable sort by ``bucket_of(rows)`` and one ``_patch_bucket``
       task per touched bucket — contiguous slices, not a filter of the
       whole delta per bucket; untouched buckets carry their files
       forward by reference;
    6. publish."""
    from .cdc import _diff_map, _version_diff_plan

    lake_dir = lake.lake_dir
    m_new = lake.manifest()
    if m_new is None:
        raise FileNotFoundError(f"{lake_dir}: no committed manifest")
    idx = load_index_manifest(lake_dir, name)
    v_from = idx["version"]
    if v_from >= m_new.version:
        return idx

    def publish(buckets: dict) -> dict:
        _publish(lake_dir, name, m_new.version, buckets)
        return load_index_manifest(lake_dir, name)

    try:
        m_old = lake.manifest(v_from)
    except FileNotFoundError:
        m_old = None
    if m_old is None:
        return publish(rebuild(m_new.version))
    items, same_p = _version_diff_plan(m_old, m_new)
    if not items:
        return publish(dict(idx["buckets"]))
    if all(r["suffix_deltas"] is not None for r in items):
        # each partition's own rows of the shared tick files, from its
        # entry (a tick file's footer counts every partition's rows); an
        # entry from before delta_meta records none, and step 4 bounds it
        est = sum(d["rows"] or 0 for r in items for d in r["suffix_deltas"])
        if est * rows_per_doc > max_delta_rows:
            return publish(rebuild(m_new.version))

    ds = _diff_map(lake_dir, m_new, items, same_p, rows)
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if sum(t.num_rows for t in tables) > max_delta_rows:
        return publish(rebuild(m_new.version))
    buckets = {k: _norm_entry(v) for k, v in idx["buckets"].items()}
    if tables:
        delta = pa.concat_tables(tables)
        ids = bucket_of(delta)
        order = np.argsort(ids, kind="stable")
        delta, ids = delta.take(pa.array(order)), ids[order]
        uniq, starts = np.unique(ids, return_index=True)
        bounds = np.append(starts, len(ids))
        refs = [
            _patch_bucket.remote(
                lake_dir, int(b), buckets.get(str(int(b))),
                delta.slice(int(lo), int(hi - lo)),
                write, merge, m_new.version, v_from, max_deltas,
            )
            for b, lo, hi in zip(uniq, bounds[:-1], bounds[1:])
        ]
        for b, entry in ray.get(refs):
            if entry is None:
                buckets.pop(str(b), None)
            else:
                buckets[str(b)] = entry
    return publish(buckets)


def create_dedup_index(
    lake,
    name: str = "neardup",
    num_hashes: int = 64,
    bands: int = 16,
    num_buckets: int = 64,
    seed: int = 1234,
) -> dict:
    """Build + publish the index at the lake's current version with one
    distributed scan (band rows → one groupby-shuffle into bucket
    files). Idempotent: re-creating with the same spec refreshes."""
    m = lake.manifest()
    if m is None:
        raise FileNotFoundError(f"{lake.lake_dir}: no committed manifest")
    spec = {
        "num_hashes": num_hashes,
        "bands": bands,
        "num_buckets": num_buckets,
        "seed": seed,
    }
    d = _dir(lake.lake_dir, name)
    sp = os.path.join(d, "spec.json")
    if os.path.exists(sp):
        if _load_spec(lake.lake_dir, name) != spec:
            raise FileExistsError(f"dedup index {name!r} exists with a different spec")
        return refresh_dedup_index(lake, name)
    os.makedirs(d, exist_ok=True)
    buckets = _build_buckets(lake, name, spec, m.version)
    tmp = sp + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(spec, f)
    try:
        os.link(tmp, sp)
    except FileExistsError:
        pass
    finally:
        os.unlink(tmp)
    _publish(lake.lake_dir, name, m.version, buckets)
    return load_index_manifest(lake.lake_dir, name)


def _build_buckets(lake, name: str, spec: dict, version: int) -> dict:
    """Full-scan bucket build: the creation / rebuild path (the only
    O(lake) step in the index's life)."""
    hasher = _hasher(spec)
    q = spec["num_buckets"]
    lake_dir = lake.lake_dir

    def rows_with_bucket(t: pa.Table) -> pa.Table:
        rows = _band_rows(t, hasher)
        return rows.append_column("bucket", pa.array(_bucket_of(rows["band_hash"], q)))

    def write_group(g: pa.Table) -> pa.Table:
        b = int(g["bucket"][0].as_py())
        rel = _write_bucket_file(
            lake_dir, name, b, version,
            _signed(g.select(["doc_id", "band_id", "band_hash"]), 1),
        )
        return pa.table({"bucket": pa.array([b], pa.int32()),
                         "file": pa.array([rel]),
                         "rows": pa.array([g.num_rows], pa.int64())})

    from ..util.io import drop_schemaless_empties

    entries = drop_schemaless_empties(
        lake.read(columns=["doc_id", "tokens"])
        .map_batches(rows_with_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(write_group, batch_format="pyarrow")
    ).take_all()
    return {str(int(e["bucket"])): {"file": e["file"], "deltas": []} for e in entries}


def refresh_dedup_index(
    lake, name: str, max_delta_rows: int = 5_000_000, max_deltas: int = 8
) -> dict:
    """Advance the index to the lake's latest version (``_refresh_signed``):
    the changed docs' band rows carry signs −old/+new and cancel
    locally (a doc whose tokens did not change ships nothing), then
    patch exactly the buckets they hash to."""
    from .cdc import _changed_only

    spec = _load_spec(lake.lake_dir, name)
    hasher = _hasher(spec)
    q = spec["num_buckets"]

    def rows(old: pa.Table, new: pa.Table) -> pa.Table:
        old, new = _changed_only(old, new)
        allr = pa.concat_tables(
            [_signed(_band_rows(new, hasher), 1), _signed(_band_rows(old, hasher), -1)]
        )
        g = allr.group_by(["doc_id", "band_id", "band_hash"]).aggregate(
            [("sign", "sum")]
        )
        g = g.filter(pc.not_equal(g["sign_sum"], 0))
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "band_id": g["band_id"],
                "band_hash": g["band_hash"],
                "sign": pc.cast(g["sign_sum"], pa.int8()),
            },
            schema=SIGNED_SCHEMA,
        )

    return _refresh_signed(
        lake, name,
        rows=rows,
        bucket_of=lambda t: _bucket_of(t["band_hash"], q),
        merge=lambda parts: _signed(_merge_bucket(parts), 1),
        write=functools.partial(_write_bucket_file, lake.lake_dir, name),
        rebuild=lambda version: _build_buckets(lake, name, spec, version),
        rows_per_doc=2 * int(spec["bands"]),
        max_delta_rows=max_delta_rows,
        max_deltas=max_deltas,
    )


def read_index_rows(lake, name: str, version: int | None = None) -> pa.Table:
    """All current index rows at a version, deltas merged (tests /
    small indexes)."""
    idx = load_index_manifest(lake.lake_dir, name, version)
    parts = [
        _read_bucket(lake.lake_dir, entry)
        for _, entry in sorted(idx["buckets"].items())
    ]
    t = pa.concat_tables(parts) if parts else ROWS_SCHEMA.empty_table()
    return t.sort_by(
        [("doc_id", "ascending"), ("band_id", "ascending")]
    )


def candidate_pairs_for(
    lake,
    name: str,
    since_version: int,
    version: int | None = None,
    verify_threshold: float | None = None,
    max_per_key: int = 256,
) -> pa.Table:
    """Near-dup candidates for the docs CHANGED between two lake
    versions vs the whole indexed corpus: probe only the (band,
    band_hash) keys the changed docs produce — O(delta × bands) work,
    never a corpus scan. The index must be refreshed through
    ``version`` (the probe joins against its buckets at that version).

    Returns distinct (a, b), a < b. With ``verify_threshold``, pairs
    are verified by EXACT token-3-gram Jaccard (point ``lookup`` of
    just the pair docs — partition-pruned) and a ``jaccard`` column is
    added. Degenerate LSH keys with more than ``max_per_key`` index
    rows are dropped with a logged count (never silently O(n²))."""
    idx = load_index_manifest(lake.lake_dir, name, version)
    spec = _load_spec(lake.lake_dir, name)
    hasher = _hasher(spec)
    q = spec["num_buckets"]
    lake_dir = lake.lake_dir

    changed = lake.changes(
        since_version, version, columns=["change_op", "doc_id", "tokens"]
    )

    def probe_rows(t: pa.Table) -> pa.Table:
        live = t.filter(pc.not_equal(t["change_op"], "D"))
        return _band_rows(live, hasher)

    probes = [
        t
        for t in ray.get(
            changed.map_batches(probe_rows, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows
    ]
    probe = pa.concat_tables(probes) if probes else ROWS_SCHEMA.empty_table()
    pairs_schema = pa.schema([pa.field("a", pa.string()), pa.field("b", pa.string())])
    if probe.num_rows == 0:
        return (
            pairs_schema.append(pa.field("jaccard", pa.float64())).empty_table()
            if verify_threshold is not None
            else pairs_schema.empty_table()
        )

    bucket_ids = _bucket_of(probe["band_hash"], q)

    @ray.remote(num_cpus=1)
    def probe_bucket(entry: dict | None, pr: pa.Table) -> pa.Table:
        if not entry:
            return pairs_schema.empty_table()
        it = _read_bucket(lake_dir, entry)  # base + delta patches merged
        # degenerate-key guard: a band_hash shared by huge row counts
        # (e.g. a corpus of empty docs) would explode the join
        counts = it.group_by(["band_id", "band_hash"]).aggregate([([], "count_all")])
        hot = counts.filter(pc.greater(counts["count_all"], max_per_key))
        if hot.num_rows:
            import logging

            logging.getLogger(__name__).warning(
                "dedup index %s: dropped %d degenerate LSH keys (> %d rows)",
                name, hot.num_rows, max_per_key,
            )
            sep = pa.scalar("\x1f")
            def key(t):
                return pc.binary_join_element_wise(
                    pc.cast(t["band_id"], pa.string()),
                    pc.cast(t["band_hash"], pa.string()),
                    sep,
                )
            it = it.filter(
                pc.invert(pc.is_in(key(it), value_set=key(hot).combine_chunks()))
            )
        j = pr.join(
            it, keys=["band_id", "band_hash"], join_type="inner",
            right_suffix="_idx",
        )
        if j.num_rows == 0:
            return pairs_schema.empty_table()
        a = j["doc_id"].combine_chunks()
        b = j["doc_id_idx"].combine_chunks()
        ne = pc.invert(pc.equal(a, b))
        a, b = a.filter(ne), b.filter(ne)
        lo = pc.min_element_wise(a, b)
        hi = pc.max_element_wise(a, b)
        return pa.table({"a": lo, "b": hi}, schema=pairs_schema)

    refs = []
    for b in np.unique(bucket_ids):
        pr = probe.filter(pa.array(bucket_ids == b))
        refs.append(probe_bucket.remote(_norm_entry(idx["buckets"].get(str(int(b)))), pr))
    parts = [t for t in ray.get(refs) if t.num_rows]
    if not parts:
        return (
            pairs_schema.append(pa.field("jaccard", pa.float64())).empty_table()
            if verify_threshold is not None
            else pairs_schema.empty_table()
        )
    pairs = (
        pa.concat_tables(parts)
        .group_by(["a", "b"])
        .aggregate([])
        .sort_by([("a", "ascending"), ("b", "ascending")])
    )
    if verify_threshold is None:
        return pairs

    # exact verification on just the candidate docs (point lookups)
    ids = sorted(set(pairs["a"].to_pylist()) | set(pairs["b"].to_pylist()))
    docs = lake.lookup(ids, columns=["doc_id", "tokens"], version=version)
    toks = {
        docs["doc_id"][i].as_py(): docs["tokens"][i].as_py() or []
        for i in range(docs.num_rows)
    }

    def shingles(t: list) -> set:
        if not t:
            return set()
        if len(t) < 3:
            return {tuple(t)}
        return {tuple(t[i : i + 3]) for i in range(len(t) - 2)}

    keep_a, keep_b, jac = [], [], []
    for i in range(pairs.num_rows):
        x, y = pairs["a"][i].as_py(), pairs["b"][i].as_py()
        sa, sb = shingles(toks.get(x, [])), shingles(toks.get(y, []))
        if not sa and not sb:
            jv = 1.0
        else:
            u = len(sa | sb)
            jv = (len(sa & sb) / u) if u else 0.0
        if jv >= verify_threshold:
            keep_a.append(x)
            keep_b.append(y)
            jac.append(jv)
    return pa.table(
        {
            "a": pa.array(keep_a, pa.string()),
            "b": pa.array(keep_b, pa.string()),
            "jaccard": pa.array(jac, pa.float64()),
        }
    )
