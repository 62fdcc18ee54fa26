"""Deterministic benchmark inputs and their reference final state.

Inputs are a base table and a change-event log, both Parquet, made by
this module alone (not by the engine's own generator), so a change to
the engine cannot change what the benchmark feeds it. Every file is a
pure function of (seed, workload sizes): doc ids are drawn log-uniformly
over 1.25x the base doc count (Zipf-like: a few hot ids carry a large
share of events, and inserts create docs absent from the base), ops are
20% I / 70% U / 10% D, and I/U rows carry a fresh token list.

The reference final state is computed with DuckDB, independently of the
engine: the last row per doc_id by LSN over base (LSN 0) plus every
event, deletes dropped. It is cached next to the inputs.

A dataset directory is built under a temporary name and renamed into
place, so a cache entry is either complete or absent.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = 50257
MAX_TOKENS = 64
SOURCES = ("web", "books", "code", "wiki")
KEEP_CACHED = 12  # newest datasets kept per workload

BASE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)
EVENT_SCHEMA = pa.schema([("lsn", pa.int64()), ("op", pa.string()), *BASE_SCHEMA])


def doc_ids(idx: np.ndarray) -> pa.Array:
    return pa.array(np.char.add("doc", np.char.zfill(idx.astype("U9"), 9)))


def hot_doc_index(rng: np.random.Generator, n: int, space: int) -> np.ndarray:
    """Log-uniform doc index in [0, space): low ids are hot."""
    u = rng.random(n)
    return np.minimum((np.exp(u * np.log(space + 1.0)) - 1.0).astype(np.int64), space - 1)


def _payload(rng: np.random.Generator, n: int):
    lengths = rng.integers(0, MAX_TOKENS + 1, n)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    values = rng.integers(0, VOCAB, int(offsets[-1]), dtype=np.int32)
    tokens = pa.ListArray.from_arrays(pa.array(offsets), pa.array(values))
    source = pa.array(np.asarray(SOURCES)[rng.integers(0, len(SOURCES), n)])
    return tokens, pa.array(lengths.astype(np.int32)), source


def base_table(seed: int, n_docs: int) -> pa.Table:
    rng = np.random.default_rng([seed, 0])
    tokens, n_tok, source = _payload(rng, n_docs)
    ids = doc_ids(np.arange(n_docs))
    return pa.Table.from_arrays([ids, tokens, n_tok, source], schema=BASE_SCHEMA)


def events_table(seed: int, n_docs: int, stream: int, lsn0: int, n: int) -> pa.Table:
    """Events with LSNs lsn0+1 .. lsn0+n; ``stream`` picks the RNG stream."""
    rng = np.random.default_rng([seed, 1, stream])
    idx = hot_doc_index(rng, n, int(n_docs * 1.25))
    u = rng.random(n)
    ops = np.where(u < 0.2, "I", np.where(u < 0.9, "U", "D"))
    tokens, n_tok, source = _payload(rng, n)
    live = pa.array(ops != "D")
    null = lambda a: pa.compute.if_else(live, a, pa.nulls(n, a.type))  # noqa: E731
    return pa.Table.from_arrays(
        [
            pa.array(np.arange(lsn0 + 1, lsn0 + n + 1, dtype=np.int64)),
            pa.array(ops),
            doc_ids(idx),
            null(tokens),
            null(n_tok),
            null(source),
        ],
        schema=EVENT_SCHEMA,
    )


def lookup_ids(seed: int, n_docs: int, draw: int, k: int = 64) -> list[str]:
    """``k`` distinct hot doc ids for lookup number ``draw``."""
    rng = np.random.default_rng([seed, 2, draw])
    space = int(n_docs * 1.25)
    idx = np.unique(hot_doc_index(rng, 4 * k, space))
    while len(idx) < k:  # the hottest ids repeat; top up uniformly
        idx = np.unique(np.concatenate([idx, rng.integers(0, space, k)]))
    return doc_ids(rng.permutation(idx)[:k]).to_pylist()


def _write(table: pa.Table, path: str) -> None:
    pq.write_table(table, path, row_group_size=1 << 16)


def reference_state(base_files: list[str], event_files: list[str],
                    spill_dir: str) -> pa.Table:
    """Last writer per doc_id by LSN over base + events, deletes dropped.

    The window runs over the narrow (doc_id, lsn, op) log; token payloads
    join back only for the winners."""
    import duckdb

    log = f"""
        SELECT 0::BIGINT AS lsn, 'I' AS op, doc_id, tokens, n_tok, source
        FROM read_parquet({base_files!r})
        UNION ALL
        SELECT lsn, op, doc_id, tokens, n_tok, source FROM read_parquet({event_files!r})
    """
    q = f"""
        WITH log AS ({log}),
        winner AS (
            SELECT doc_id, lsn, op FROM (
                SELECT doc_id, lsn, op, row_number() OVER (
                    PARTITION BY doc_id ORDER BY lsn DESC) AS rn
                FROM log
            ) WHERE rn = 1
        )
        SELECT log.doc_id, log.tokens, log.n_tok, log.source
        FROM winner JOIN log USING (doc_id, lsn)
        WHERE winner.op <> 'D' ORDER BY log.doc_id
    """
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 1")
        con.execute(f"SET temp_directory = '{spill_dir}'")
        return con.execute(q).arrow().cast(BASE_SCHEMA)
    finally:
        con.close()


def ensure(cache_dir: str, name: str, seed: int, sizes: dict) -> dict:
    """Build (or reuse) one dataset; returns its file layout.

    ``sizes``: n_docs, base_files, event_files, events_per_file.
    Layout: base/*.parquet, events/*.parquet (one file per log segment,
    LSNs contiguous from 1), reference.parquet, meta.json.
    """
    key = hashlib.sha1(json.dumps([name, seed, sizes], sort_keys=True).encode())
    out = os.path.join(cache_dir, f"{name}-s{seed}-{key.hexdigest()[:10]}")
    if not os.path.exists(os.path.join(out, "meta.json")):
        tmp = f"{out}.tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(os.path.join(tmp, "base"))
        os.makedirs(os.path.join(tmp, "events"))
        n_docs = sizes["n_docs"]
        base = base_table(seed, n_docs)
        bounds = np.linspace(0, n_docs, sizes["base_files"] + 1).astype(int)
        for i in range(sizes["base_files"]):
            part = base.slice(bounds[i], bounds[i + 1] - bounds[i])
            _write(part, os.path.join(tmp, "base", f"base-{i:04d}.parquet"))
        per = sizes["events_per_file"]
        for i in range(sizes["event_files"]):
            ev = events_table(seed, n_docs, i, i * per, per)
            _write(ev, os.path.join(tmp, "events", f"seg-{i:05d}.parquet"))
        files = _layout(tmp)
        ref = reference_state(files["base"], files["events"], os.path.join(tmp, "spill"))
        _write(ref, files["reference"])
        meta = {"name": name, "seed": seed, "sizes": sizes,
                "last_lsn": sizes["event_files"] * per}
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f)
        try:
            os.rename(tmp, out)
        except OSError:  # another process finished the same dataset first
            shutil.rmtree(tmp, ignore_errors=True)
        _evict(cache_dir, keep=out)
    os.utime(out)
    files = _layout(out)
    with open(os.path.join(out, "meta.json")) as f:
        files["meta"] = json.load(f)
    return files


def _layout(d: str) -> dict:
    ls = lambda sub: sorted(  # noqa: E731
        os.path.join(d, sub, f) for f in os.listdir(os.path.join(d, sub))
    )
    return {"dir": d, "base": ls("base"), "events": ls("events"),
            "reference": os.path.join(d, "reference.parquet")}


def _evict(cache_dir: str, keep: str) -> None:
    """Drop all but the newest KEEP_CACHED complete datasets of a workload."""
    prefix = os.path.basename(keep).rsplit("-s", 1)[0] + "-s"
    entries = [
        os.path.join(cache_dir, e) for e in os.listdir(cache_dir)
        if e.startswith(prefix) and ".tmp." not in e
    ]
    entries.sort(key=os.path.getmtime, reverse=True)
    for e in entries[KEEP_CACHED:]:
        if e != keep:
            shutil.rmtree(e, ignore_errors=True)
