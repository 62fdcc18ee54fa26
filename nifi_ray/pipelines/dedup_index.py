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

The build and refresh protocols over signed buckets (``_build_signed``,
``_refresh_signed``) are shared with the IVF ANN index (ann_index.py):
each index supplies only its kernels — rows of a state slice, the
bucket of a row, the row identity keys and the file writer. Both run
on the lake's own task shapes, with no Ray Data: a build is one
``cdc._exchange`` with buckets for partitions, a refresh reads the diff
in ``cdc._diff_map``'s dealt tasks and deals the touched buckets over
≤ CPUs patch tasks.

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

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..stages.dedup import TokenMinHasher
from ..state.manifest import publish_once, publish_part

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
    """Exclusive manifest publish (``publish_once``: a concurrent
    refresher that published an equivalent snapshot first wins)."""
    d = _dir(lake_dir, name)
    os.makedirs(d, exist_ok=True)
    doc = json.dumps({"version": version, "buckets": buckets}, sort_keys=True)
    publish_once(os.path.join(d, f"idx_v{version:06d}.json"), lambda tmp: Path(tmp).write_text(doc))


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
KEYS = ["doc_id", "band_id", "band_hash"]


def _write_index_file(
    cell_dir: str, order: list, compression: str, lake_dir: str, name: str,
    bucket: int, version: int, rows: pa.Table, kind: str = "part",
    from_version: int | None = None,
) -> str:
    """Write one bucket (or cell) base/delta file of either index, rows
    sorted by ``order`` so its bytes are a pure function of the rows,
    named per (bucket, target version, REFRESH ORIGIN): two refreshers
    racing one lake version from different index versions write
    different bytes to different paths, and the exclusive idx_v{V}.json
    winner names only its own. ``publish_part`` (exclusive link,
    identical-bytes dedup) makes a retried task a no-op and a
    same-path/different-bytes race loud."""
    tag = f"{kind}-v{version:06d}" + (
        f"-from{from_version:06d}" if from_version is not None else ""
    )
    rel = os.path.join(_IDX_DIR, name, f"{cell_dir}={bucket:04d}", f"{tag}.parquet")
    path = os.path.join(lake_dir, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp-{os.getpid()}"
    pq.write_table(rows.sort_by(order), tmp, compression=compression)
    publish_part(tmp, path)
    return rel


_write_bucket_file = functools.partial(
    _write_index_file, "b",
    [("band_hash", "ascending"), ("doc_id", "ascending"), ("band_id", "ascending")],
    "snappy",
)


def _signed(rows: pa.Table, sign: int) -> pa.Table:
    return rows.append_column(
        "sign", pa.array(np.full(rows.num_rows, sign, dtype=np.int8))
    )


def _key(t: pa.Table, keys: list[str]) -> pa.ChunkedArray:
    """The ``keys`` columns joined into one string: a row's identity."""
    return pc.binary_join_element_wise(*(pc.cast(t[k], pa.string()) for k in keys), "\x1f")


def _net(t: pa.Table, keys: list[str]) -> pa.Table:
    """The rows of signed table ``t`` whose key's sign sum is not zero,
    in input order: the −/+ pairs of a doc whose row did not change
    cancel. One hash group-by carries each key's row indices."""
    g = t.append_column("_i", pa.array(np.arange(t.num_rows))).group_by(keys).aggregate(
        [("sign", "sum"), ("_i", "list")]
    )
    g = g.filter(pc.not_equal(g["sign_sum"], 0))
    return t.take(np.sort(pc.list_flatten(g["_i_list"]).to_numpy()))


def _merge_signed(parts: list[pa.Table], keys: list[str]) -> pa.Table:
    """Merge-on-read kernel of both indexes: base + delta patches → the
    first +1 row of each key whose net sign is > 0, in input order (a v1
    base without signs reads as +1 rows)."""
    t = pa.concat_tables([p if "sign" in p.column_names else _signed(p, 1) for p in parts])
    n = t.num_rows
    first_plus = np.where(t["sign"].to_numpy() > 0, np.arange(n), n)
    g = t.append_column("_p", pa.array(first_plus)).group_by(keys).aggregate(
        [("sign", "sum"), ("_p", "min")]
    )
    return t.take(np.sort(g.filter(pc.greater(g["sign_sum"], 0))["_p_min"].to_numpy()))


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
    parts = _entry_parts(lake_dir, entry)
    if not parts:
        return ROWS_SCHEMA.empty_table()
    return _merge_signed(parts, KEYS).drop_columns(["sign"])


@ray.remote
def _patch_task(
    lake_dir: str, runs: list[tuple], patch: pa.Table,
    write, keys: list[str], version: int, v_from: int, max_deltas: int,
) -> list[tuple]:
    """Patch a dealt run of touched buckets, ``(b, entry, lo, hi)``
    each, bucket ``b``'s signed rows being ``patch[lo:hi]``: one DELTA
    file per bucket, O(patch) bytes, the base NOT rewritten (at uniform
    churn that would rewrite the whole index per tick). The chain folds
    into a new base (``_merge_signed``) only past ``max_deltas`` — the
    lake's merge-on-read policy. Returns ``(b, entry)`` per bucket;
    ``None`` drops a bucket left empty."""
    out = []
    for b, entry, lo, hi in runs:
        entry = _norm_entry(entry) or {}
        rel = write(b, version, patch.slice(lo, hi - lo), kind="delta", from_version=v_from)
        entry = {"file": entry.get("file"), "deltas": [*entry.get("deltas", []), rel]}
        if len(entry["deltas"]) > max_deltas:
            merged = _merge_signed(_entry_parts(lake_dir, entry), keys)
            entry = (
                {"file": write(b, version, merged, from_version=v_from), "deltas": []}
                if merged.num_rows
                else None
            )
        out.append((b, entry))
    return out


def _refresh_signed(
    lake, name: str, kernels: dict, *, keys: list[str],
    rows_per_doc: int, max_delta_rows: int, max_deltas: int,
) -> dict:
    """Advance a signed-bucket index to the lake's latest version — the
    one refresh protocol of both maintained indexes, given the index's
    ``_build_signed`` kernels and its row identity ``keys``. A
    changed doc's rows are ``rows(new)`` at +1 and ``rows(old)`` at −1,
    less the pairs whose key nets to zero (a doc whose rows did not
    change ships nothing); a rebuild is ``_build_signed``:

    1. the index's lake version was expired → rebuild;
    2. no diff item → republish the buckets by reference;
    3. every item suffix-shaped and its appended delta ranges' row
       counts × ``rows_per_doc`` over ``max_delta_rows`` → rebuild,
       decided before any diff, hash or patch work (a dense tick's
       refresh was otherwise ~2× the rebuild it falls back to);
    4. those signed rows per item in ``cdc._diff_map``'s dealt diff
       tasks, gathered with no Dataset — signed rows of the changed
       docs only; more than ``max_delta_rows`` →
       rebuild (never silent: the cost class changes);
    5. one ``cdc._deal_by_key`` by ``bucket_of``: the touched
       buckets, in contiguous runs, over ≤ CPUs ``_patch_task``s, each
       given its one slice of the bucket-sorted delta — one delta file
       per touched bucket, O(change) work, not one Ray task per bucket;
       untouched buckets carry their files forward by reference;
    6. publish."""
    from .cdc import _changed_only, _deal_by_key, _diff_map, _version_diff_plan

    lake_dir = lake.lake_dir
    rows, bucket_of, write = kernels["rows"], kernels["bucket_of"], kernels["write"]
    m_new = lake._snapshot()
    idx = load_index_manifest(lake_dir, name)
    v_from = idx["version"]
    if v_from >= m_new.version:
        return idx

    def publish(buckets: dict) -> dict:
        _publish(lake_dir, name, m_new.version, buckets)
        return load_index_manifest(lake_dir, name)

    def rebuild(version: int) -> dict:
        return _build_signed(lake, version, **kernels)

    def diff_rows(old: pa.Table, new: pa.Table) -> pa.Table:
        old, new = _changed_only(old, new)
        gone = rows(old)
        gone = gone.set_column(gone.schema.get_field_index("sign"), "sign", pc.negate(gone["sign"]))
        return _net(pa.concat_tables([rows(new), gone]), keys)

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

    delta = pa.concat_tables(ray.get(_diff_map(lake_dir, m_new, items, same_p, diff_rows)))
    if delta.num_rows > max_delta_rows:
        return publish(rebuild(m_new.version))
    buckets = {k: _norm_entry(v) for k, v in idx["buckets"].items()}
    if delta.num_rows:
        refs = [
            _patch_task.remote(
                lake_dir, [(b, buckets.get(str(b)), lo, hi) for b, lo, hi in runs],
                patch, write, keys, m_new.version, v_from, max_deltas,
            )
            for runs, patch in _deal_by_key(delta, bucket_of(delta))
        ]
        for b, entry in (x for out in ray.get(refs) for x in out):
            if entry is None:
                buckets.pop(str(b), None)
            else:
                buckets[str(b)] = entry
    return publish(buckets)


@ray.remote
def _build_map_task(
    items: list, P: int, G: int, lake_dir: str, schema: pa.Schema, rows, bucket_of
):
    """Map side of ``_build_signed``: scan the dealt partitions, compute
    each one's ``rows(t)``, key every row by its bucket (the exchange's
    ``partition_id``) and scatter into G bucket groups."""
    from .cdc import _scan, _scatter_by_partition

    def keyed(t: pa.Table) -> pa.Table:
        r = rows(t)
        return r.append_column("partition_id", pa.array(bucket_of(r), pa.int32()))

    return _scatter_by_partition(
        _scan(lake_dir, schema, items, ["doc_id", "tokens"], fn=keyed), P, G
    )


@ray.remote
def _build_write_task(version: int, write, *shards: pa.Table) -> list[dict]:
    """Apply side of ``_build_signed``: one base file per bucket present
    in this group's shards (``write(b, version, rows)``); an empty
    bucket gets none."""
    from .cdc import _limit_arrow_threads, _split_shards

    _limit_arrow_threads()
    return [
        {"bucket": b, "file": write(b, version, rows)}
        for b, rows in _split_shards(shards)
    ]


def _build_signed(lake, version: int, q: int, rows, bucket_of, write) -> dict:
    """Full-scan build of a signed-bucket index at lake ``version`` (the
    creation / rebuild path, the only O(lake) step in an index's life):
    one ``cdc._exchange`` over the lake's partitions with ``q`` buckets
    for pids. Each index passes only its kernels. Returns the index
    manifest's bucket map."""
    from .cdc import _exchange, _scan_items

    m = lake.manifest(version)
    stats, _ = _exchange(
        _scan_items(m), q, _build_map_task,
        dict(lake_dir=lake.lake_dir, schema=m.schema, rows=rows, bucket_of=bucket_of),
        lambda pid_lo, pid_hi, shards: _build_write_task.remote(version, write, *shards),
    )
    return {str(r["bucket"]): {"file": r["file"], "deltas": []} for r in stats}


def create_dedup_index(
    lake,
    name: str = "neardup",
    num_hashes: int = 64,
    bands: int = 16,
    num_buckets: int = 64,
    seed: int = 1234,
) -> dict:
    """Build + publish the index at the lake's current version with one
    distributed scan (``_build_signed``: band rows → the lake's one
    exchange → bucket files). Idempotent: re-creating with the same
    spec refreshes."""
    spec = {"num_hashes": num_hashes, "bands": bands, "num_buckets": num_buckets, "seed": seed}
    return _create_signed(
        lake, name, spec,
        lambda m: _build_signed(lake, m.version, **_kernels(lake, name, spec)),
        refresh_dedup_index,
    )


def _create_signed(lake, name: str, spec: dict, build, refresh) -> dict:
    """Create a signed-bucket index at the lake's current manifest
    ``m``: ``build(m)`` returns its bucket map, published with its
    spec. An index that exists with the same spec is refreshed."""
    m = lake._snapshot()
    d = _dir(lake.lake_dir, name)
    sp = os.path.join(d, "spec.json")
    if os.path.exists(sp):
        if _load_spec(lake.lake_dir, name) != spec:
            raise FileExistsError(f"index {name!r} exists with a different spec")
        return refresh(lake, name)
    os.makedirs(d, exist_ok=True)
    buckets = build(m)
    publish_once(sp, lambda tmp: Path(tmp).write_text(json.dumps(spec)))
    _publish(lake.lake_dir, name, m.version, buckets)
    return load_index_manifest(lake.lake_dir, name)


def _kernels(lake, name: str, spec: dict) -> dict:
    """The near-dup index's build kernels: band rows of a state slice,
    their bucket, the bucket file writer."""
    hasher, q = _hasher(spec), spec["num_buckets"]
    return dict(
        q=q,
        rows=lambda t: _signed(_band_rows(t, hasher), 1),
        bucket_of=lambda t: _bucket_of(t["band_hash"], q),
        write=functools.partial(_write_bucket_file, lake.lake_dir, name),
    )


def refresh_dedup_index(
    lake, name: str, max_delta_rows: int = 5_000_000, max_deltas: int = 8
) -> dict:
    """Advance the index to the lake's latest version (``_refresh_signed``):
    the changed docs' band rows carry signs −old/+new and cancel
    locally (a doc whose tokens did not change ships nothing), then
    patch exactly the buckets they hash to."""
    spec = _load_spec(lake.lake_dir, name)
    return _refresh_signed(
        lake, name, _kernels(lake, name, spec),
        keys=KEYS,
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


PAIRS_SCHEMA = pa.schema([pa.field("a", pa.string()), pa.field("b", pa.string())])


@ray.remote
def _probe_task(
    lake_dir: str, name: str, max_per_key: int, runs: list[tuple], probe: pa.Table
) -> pa.Table:
    """Candidate pairs (a, b), a < b, of a dealt run of buckets: each
    ``(entry, lo, hi)`` joins the probe rows ``probe[lo:hi]`` against
    that bucket's current rows (base + delta patches merged)."""
    out = [PAIRS_SCHEMA.empty_table()]
    for entry, lo, hi in runs:
        if not entry:
            continue
        it = _read_bucket(lake_dir, entry)
        # degenerate-key guard: a band_hash shared by huge row counts
        # (e.g. a corpus of empty docs) would explode the join
        band = ["band_id", "band_hash"]
        counts = it.group_by(band).aggregate([([], "count_all")])
        hot = counts.filter(pc.greater(counts["count_all"], max_per_key))
        if hot.num_rows:
            import logging

            logging.getLogger(__name__).warning(
                "dedup index %s: dropped %d degenerate LSH keys (> %d rows)",
                name, hot.num_rows, max_per_key,
            )
            it = it.filter(
                pc.invert(pc.is_in(_key(it, band), value_set=_key(hot, band).combine_chunks()))
            )
        j = probe.slice(lo, hi - lo).join(it, keys=band, join_type="inner", right_suffix="_idx")
        a, b = j["doc_id"].combine_chunks(), j["doc_id_idx"].combine_chunks()
        ne = pc.invert(pc.equal(a, b))
        a, b = a.filter(ne), b.filter(ne)
        out.append(pa.table(
            {"a": pc.min_element_wise(a, b), "b": pc.max_element_wise(a, b)},
            schema=PAIRS_SCHEMA,
        ))
    return pa.concat_tables(out)


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
    rows are dropped with a logged count (never silently O(n²)). The
    changed docs' probe rows come from ``cdc._diff_map``'s dealt diff
    tasks, with no Dataset; the buckets they hash to are dealt in
    contiguous runs over ≤ CPUs ``_probe_task``s."""
    from .cdc import _deal_by_key, _diff_map, _diff_snapshots, _version_diff_plan

    idx = load_index_manifest(lake.lake_dir, name, version)
    spec = _load_spec(lake.lake_dir, name)
    hasher = _hasher(spec)
    q = spec["num_buckets"]
    lake_dir = lake.lake_dir

    m_new = lake.manifest(version)
    items, same_p = _version_diff_plan(lake.manifest(since_version), m_new)

    def probe_rows(old: pa.Table, new: pa.Table) -> pa.Table:
        t = _diff_snapshots(old, new)
        return _band_rows(t.filter(pc.not_equal(t["change_op"], "D")), hasher)

    refs = _diff_map(lake_dir, m_new, items, same_p, probe_rows)
    probe = pa.concat_tables([ROWS_SCHEMA.empty_table(), *ray.get(refs)])
    out_schema = (
        PAIRS_SCHEMA.append(pa.field("jaccard", pa.float64()))
        if verify_threshold is not None
        else PAIRS_SCHEMA
    )
    if probe.num_rows == 0:
        return out_schema.empty_table()
    refs = [
        _probe_task.remote(
            lake_dir, name, max_per_key,
            [(_norm_entry(idx["buckets"].get(str(b))), lo, hi) for b, lo, hi in runs],
            rows,
        )
        for runs, rows in _deal_by_key(probe, _bucket_of(probe["band_hash"], q))
    ]
    parts = [t for t in ray.get(refs) if t.num_rows]
    if not parts:
        return out_schema.empty_table()
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
