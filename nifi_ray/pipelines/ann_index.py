"""Incrementally-maintained IVF ANN index over a CDCLake.

The batch ANN path (stages/similarity.py → ★knn_cosine, ☆knn_ivf)
answers "nearest neighbors in this corpus" with a full-corpus pass (or
a fresh IVF build) per run. With a CDC stream on top of the corpus the
right cost class is the dedup_index one: keep the IVF cell lists as
LAKE STATE and patch them O(changed docs) per tick, so similarity
search over a living corpus costs

    refresh:  O(changed docs)        (manifest-diff pruning; suffix-
                                      shaped spans read only appended
                                      delta files + point reads)
    search:   O(nprobe/n_cells of corpus)  (probe only the cells the
                                      query vector is closest to)

Embeddings are a deterministic seeded projection of the lake's token
ids (splitmix64 per (token, dim) → [-1, 1), summed over the doc in
token order, L2-normalized). That makes the WHOLE index a pure
function of lake state — no model weights, fully replayable by the
scalar oracle (oracle_expected.expected_ann_search re-derives the same
floats from python-int hashing + the same numpy float math).

Index layout (under the lake root, versioned like the dedup index):

    _indexes/{name}/spec.json                   dim / n_cells / seed
    _indexes/{name}/centroids.parquet           coarse quantizer — an
        input CONSTANT after creation (kmeans_lite over the creation
        version's lexicographically-first `sample` docs)
    _indexes/{name}/idx_v{V:06d}.json           manifest per reflected
                                                lake version V
    _indexes/{name}/c={C:04d}/{part,delta}-v{V:06d}[-from{F:06d}].parquet
        cell files of (doc_id, emb_hash, emb, sign) rows; cell C =
        argmax centroid · embedding. Base files hold +1 rows; delta
        patches hold ±1 (−1 removes that exact (doc, emb_hash) row).
        Cell state = rows whose net sign per (doc, emb_hash) is > 0 —
        an update's −old/+new pair replaces the embedding without
        rewriting the cell base (merge-on-read, compacted past
        ``max_deltas``, the same policy as the lake itself). A
        refresh from index version F tags what it writes ``-fromF``.

The build and refresh protocols are dedup_index's ``_build_signed`` and
``_refresh_signed``; this module supplies only the kernels (embedding
rows, cell assignment, row keys, writer).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state.manifest import publish_once
from .dedup_index import (
    _build_signed,
    _create_signed,
    _dir,
    _entry_parts,
    _load_spec,
    _merge_signed,
    _refresh_signed,
    _write_index_file,
)
from .dedup_index import load_index_manifest as _load_manifest

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_D1 = np.uint64(0xD6E8FEB86659FD93)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (same public construction as gen.mix64;
    duplicated here so the index does not import the test generator)."""
    x = x.astype(np.uint64, copy=True)
    x += _GOLD
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def token_embeddings(
    doc_ids: pa.Array, tokens: pa.ChunkedArray | pa.Array, dim: int, seed: int
) -> np.ndarray:
    """(n_docs, dim) float64 unit embeddings from token-id lists.

    For dim j and token t: h = mix64(t·GOLD ⊕ mix64(seed·D1 ⊕ j)),
    value = h/2^53 (top 53 bits) · 2 − 1 ∈ [−1, 1); doc vector = sum
    over its tokens IN ORDER (reduceat — sequential left-to-right, so
    the scalar oracle's running sum is bit-identical), then L2
    normalization. Empty docs embed to the zero vector."""
    toks = tokens.combine_chunks() if isinstance(tokens, pa.ChunkedArray) else tokens
    flat = toks.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
    # null token lists surface as NaN lengths — treat as empty docs
    lens = np.nan_to_num(
        pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.float64),
        nan=0.0,
    ).astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    n = len(lens)
    out = np.zeros((n, dim), dtype=np.float64)
    # reduceat only over NON-EMPTY segments: an empty list followed by no
    # further tokens has start == flat.size, and clipping it backward would
    # truncate the previous doc's segment, making embeddings depend on batch
    # composition (breaking the "index is a pure function of lake state"
    # invariant). Scatter per-segment sums into the zero matrix instead.
    nz = lens > 0
    for j in range(dim):
        # uint64 wraparound is the intended arithmetic (numpy warns on
        # scalar overflow only; the array ops below wrap silently)
        with np.errstate(over="ignore"):
            cj = _mix64(np.array([np.uint64(seed) * _D1 ^ np.uint64(j)], np.uint64))[0]
        h = _mix64(flat * _GOLD ^ cj)
        vals = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53) * 2.0 - 1.0
        if flat.size and nz.any():
            out[nz, j] = np.add.reduceat(vals, starts[nz])
    norms = np.linalg.norm(out, axis=1)
    nz = norms > 1e-12
    out[nz] = out[nz] / norms[nz, None]
    return out


def _emb_hash(emb: np.ndarray) -> np.ndarray:
    """uint64 content hash per row of a float64 matrix (bit pattern →
    mix64 → XOR-reduce) — the exact-removal key for patch rows."""
    bits = _mix64(emb.view(np.uint64).reshape(emb.shape))
    h = np.bitwise_xor.reduce(
        bits ^ (np.arange(emb.shape[1], dtype=np.uint64) * _D1), axis=1
    )
    return h


KEYS = ["doc_id", "emb_hash"]


def _rows_schema(dim: int) -> pa.Schema:
    return pa.schema(
        [
            pa.field("doc_id", pa.string()),
            pa.field("emb_hash", pa.uint64()),
            pa.field("emb", pa.list_(pa.float64(), dim)),
            pa.field("sign", pa.int8()),
        ]
    )


def _make_rows(t: pa.Table, spec: dict) -> pa.Table:
    """+1 index rows for a state slice."""
    dim = spec["dim"]
    if t.num_rows == 0:
        return _rows_schema(dim).empty_table()
    emb = token_embeddings(t["doc_id"], t["tokens"], dim, spec["seed"])
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "emb_hash": pa.array(_emb_hash(emb)),
            "emb": pa.FixedSizeListArray.from_arrays(
                pa.array(emb.reshape(-1)), dim
            ),
            "sign": pa.array(np.ones(t.num_rows, np.int8)),
        },
        schema=_rows_schema(dim),
    )


def _cells_of(emb_rows: pa.Table, centroids: np.ndarray) -> np.ndarray:
    dim = centroids.shape[1]
    M = np.asarray(emb_rows["emb"].combine_chunks().flatten()).reshape(-1, dim)
    return np.argmax(M @ centroids.T, axis=1).astype(np.int32)


_write_cell = functools.partial(
    _write_index_file, "c",
    [("doc_id", "ascending"), ("emb_hash", "ascending"), ("sign", "ascending")],
    "zstd",
)


def _read_cell(lake_dir: str, entry: dict | None, dim: int) -> pa.Table:
    """A cell's live rows: base + delta patches merged."""
    parts = _entry_parts(lake_dir, entry)
    return _merge_signed(parts, KEYS) if parts else _rows_schema(dim).empty_table()


def load_centroids(lake_dir: str, name: str) -> np.ndarray:
    t = pq.read_table(os.path.join(_dir(lake_dir, name), "centroids.parquet"))
    dim = _load_spec(lake_dir, name)["dim"]
    return np.asarray(t["c"].combine_chunks().flatten()).reshape(-1, dim)


def create_ann_index(
    lake,
    name: str = "ann",
    dim: int = 16,
    n_cells: int = 16,
    seed: int = 7,
    sample: int = 256,
) -> dict:
    """Train the coarse quantizer on the creation version's
    lexicographically-first ``sample`` docs (a deterministic input
    constant thereafter; each scan partition ships only its own first
    ``sample``), then build + publish the cell lists with one
    distributed scan (``_build_signed``)."""
    spec = {"dim": dim, "n_cells": n_cells, "seed": seed, "sample": sample}

    def build(m) -> dict:
        import ray

        from ..stages.similarity import kmeans_lite
        from .cdc import _scan_map

        def first(t: pa.Table) -> pa.Table:
            return t.sort_by("doc_id").slice(0, sample)

        heads = ray.get(_scan_map(lake.lake_dir, m, ["doc_id", "tokens"], first))
        head = first(pa.concat_tables(heads))
        emb = token_embeddings(head["doc_id"], head["tokens"], dim, seed)
        centroids = kmeans_lite(emb, n_cells=n_cells, seed=seed)
        c = pa.table({"c": pa.FixedSizeListArray.from_arrays(pa.array(centroids.reshape(-1)), dim)})
        cpath = os.path.join(_dir(lake.lake_dir, name), "centroids.parquet")
        publish_once(cpath, lambda tmp: pq.write_table(c, tmp))
        return _build_signed(lake, m.version, **_kernels(lake, name, spec, centroids))

    return _create_signed(lake, name, spec, build, refresh_ann_index)


def _kernels(lake, name: str, spec: dict, centroids: np.ndarray) -> dict:
    """The ANN index's build kernels: embedding rows of a state slice,
    their cell, the cell file writer."""
    return dict(
        q=spec["n_cells"],
        rows=lambda t: _make_rows(t, spec),
        bucket_of=lambda t: _cells_of(t, centroids),
        write=functools.partial(_write_cell, lake.lake_dir, name),
    )


def refresh_ann_index(
    lake, name: str = "ann", max_delta_rows: int = 2_000_000, max_deltas: int = 8
) -> dict:
    """Advance the index to the lake's latest version (dedup_index
    ``_refresh_signed``): the changed docs' −old/+new embedding rows,
    minus the pairs that cancel (same (doc, emb_hash)), patch the cells
    they fall in."""
    spec = _load_spec(lake.lake_dir, name)
    return _refresh_signed(
        lake, name, _kernels(lake, name, spec, load_centroids(lake.lake_dir, name)),
        keys=KEYS,
        rows_per_doc=2,
        max_delta_rows=max_delta_rows,
        max_deltas=max_deltas,
    )


def ann_search(
    lake,
    name: str,
    query_doc_ids: list[str],
    k: int = 5,
    nprobe: int = 4,
    version: int | None = None,
) -> pa.Table:
    """Top-k cosine neighbors of the given docs' CURRENT images against
    the maintained index: embed the queries from point reads (never a
    scan), probe each query's ``nprobe`` closest cells, exact cosine
    within, global top-k with (−sim, doc_id) tie order. Returns
    (query_doc, doc_id, rank, sim)."""
    import ray

    spec = _load_spec(lake.lake_dir, name)
    dim = spec["dim"]
    centroids = load_centroids(lake.lake_dir, name)
    idx = _load_manifest(lake.lake_dir, name, version)
    qt = lake.lookup(query_doc_ids, columns=["doc_id", "tokens"])
    if qt.num_rows == 0:
        return pa.table(
            {"query_doc": pa.array([], pa.string()),
             "doc_id": pa.array([], pa.string()),
             "rank": pa.array([], pa.int64()),
             "sim": pa.array([], pa.float64())}
        )
    qids = qt["doc_id"].to_pylist()
    Q = token_embeddings(qt["doc_id"], qt["tokens"], dim, spec["seed"])
    probe_cells = np.argsort(-(Q @ centroids.T), axis=1)[:, :nprobe]
    need = sorted({int(c) for row in probe_cells for c in row})
    by_cell: dict[int, list[int]] = {}
    for qi in range(len(qids)):
        for c in probe_cells[qi]:
            by_cell.setdefault(int(c), []).append(qi)
    lake_dir = lake.lake_dir
    q_ref = ray.put(Q)

    @ray.remote(num_cpus=1)
    def score_cell(c: int, entry, q_idx: list[int], Qm) -> list[tuple]:
        """Score this cell's members against the queries probing it and
        return ONLY their per-cell top-k — O(k·queries) rows leave the
        task, never the cell itself (a cell is corpus/n_cells sized;
        shipping it to the driver would not scale)."""
        t = _read_cell(lake_dir, entry, dim)
        if t.num_rows == 0:
            return []
        M = np.asarray(t["emb"].combine_chunks().flatten()).reshape(-1, dim)
        ids = t["doc_id"].to_pylist()
        out = []
        for qi in q_idx:
            sims = M @ Qm[qi]
            top = sorted(zip(sims.tolist(), ids), key=lambda x: (-x[0], x[1]))[:k]
            out.append((qi, top))
        return out

    partials = ray.get(
        [
            score_cell.remote(c, idx["buckets"].get(str(c)), by_cell[c], q_ref)
            for c in need
        ]
    )
    merged: dict[int, list[tuple]] = {}
    for part in partials:
        for qi, top in part:
            merged.setdefault(qi, []).extend(top)
    out_q, out_d, out_r, out_s = [], [], [], []
    for qi, qd in enumerate(qids):
        scored = sorted(merged.get(qi, []), key=lambda t: (-t[0], t[1]))
        for rank, (s, d) in enumerate(scored[:k], start=1):
            out_q.append(qd), out_d.append(d), out_r.append(rank), out_s.append(s)
    return pa.table(
        {
            "query_doc": pa.array(out_q, pa.string()),
            "doc_id": pa.array(out_d, pa.string()),
            "rank": pa.array(out_r, pa.int64()),
            "sim": pa.array(out_s, pa.float64()),
        }
    )
