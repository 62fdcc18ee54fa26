"""The incremental consumers (change feed, maintained view, near-dup and
ANN indexes, candidate probe) and export run as dealt Ray tasks: no Ray
Data executor starts in them, and each task decodes every tick file it
needs once, however many of its partitions name the file."""

import os
import zlib
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from nifi_ray.gen import GenConfig, write_base, write_events
from nifi_ray.pipelines import cdc as cdcmod
from nifi_ray.pipelines.ann_index import (
    _load_manifest,
    _load_spec,
    _read_cell,
    create_ann_index,
    refresh_ann_index,
)
from nifi_ray.pipelines.cdc import CDCLake, _diff_snapshots, _version_diff_plan
from nifi_ray.pipelines.dedup_index import (
    candidate_pairs_for,
    create_dedup_index,
    read_index_rows,
    refresh_dedup_index,
)
from nifi_ray.schema import BASE_SCHEMA, EVENT_SCHEMA

IDX_KW = dict(num_hashes=32, bands=8, num_buckets=16, seed=7)
ANN_KW = dict(dim=8, n_cells=4, seed=7, sample=64)
AGG = ("by_source", ["source"], ["n_tok", "token_sum"], [["token_sum", "list_sum", "tokens"]])


def _write(d: str, t: pa.Table) -> str:
    os.makedirs(d)
    pq.write_table(t, os.path.join(d, "part.parquet"))
    return d


def _events(lsns, ops, ids, tokss, sources) -> pa.Table:
    return pa.table(
        {
            "lsn": lsns,
            "op": ops,
            "doc_id": ids,
            "tokens": tokss,
            "n_tok": [len(x) for x in tokss],
            "source": sources,
        },
        schema=EVENT_SCHEMA,
    )


def _index_rows(lake) -> set:
    t = read_index_rows(lake, "nd")
    return set(zip(*(t[c].to_pylist() for c in ("doc_id", "band_id", "band_hash"))))


def _ann_docs(lake) -> dict:
    idx = _load_manifest(lake.lake_dir, "ann")
    dim = _load_spec(lake.lake_dir, "ann")["dim"]
    out = {}
    for entry in idx["buckets"].values():
        t = _read_cell(lake.lake_dir, entry, dim)
        out.update(zip(t["doc_id"].to_pylist(), t["emb_hash"].to_pylist()))
    return out


def test_consumers_start_no_ray_data_executor(ray_session, tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    toks = [rng.integers(0, 5000, size=60).tolist() for _ in range(40)]
    ids = [f"d{i:03d}" for i in range(40)]
    base = pa.table(
        {
            "doc_id": ids,
            "tokens": toks,
            "n_tok": [len(t) for t in toks],
            "source": ["web", "news"] * 20,
        },
        schema=BASE_SCHEMA,
    )
    bd = _write(str(tmp_path / "b"), base)
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=4)
    lake.create_aggregate(*AGG)
    create_dedup_index(lake, "nd", **IDX_KW)
    create_ann_index(lake, "ann", **ANN_KW)

    # tick 1: updates, a delete and an insert; tick 2: a near-dup of
    # d007 (two edited tokens) and a novel doc
    e1 = _events(
        [1, 2, 3, 4], ["U", "U", "D", "I"], ["d001", "d002", "d003", "new0"],
        [[900, 901, 902], [903, 904], [1], [910, 911, 912]],
        ["web", "news", "web", "news"],
    )
    dup = list(toks[7])
    dup[0], dup[-1] = 9999, 9998
    novel = rng.integers(10000, 15000, size=60).tolist()
    e2 = _events(
        [5, 6], ["I", "I"], ["dup-of-d007", "novel-doc"], [dup, novel], ["web", "web"]
    )
    lake.replay(_write(str(tmp_path / "e1"), e1), mode="delta")
    v1 = lake.manifest().version
    lake.replay(_write(str(tmp_path / "e2"), e2), mode="delta")
    out = str(tmp_path / "shards")

    def boom(*a, **kw):
        raise AssertionError("a Ray Data executor started")

    with monkeypatch.context() as mp:
        mp.setattr(ray.data, "from_items", boom)
        mp.setattr(ray.data.Dataset, "map_batches", boom)
        view = lake.refresh_aggregate("by_source")
        refresh_dedup_index(lake, "nd")
        refresh_ann_index(lake, "ann")
        pairs = candidate_pairs_for(lake, "nd", v1, verify_threshold=0.5)
        stats = lake.export_shards(out, max_len=64)

    state = lake.read_table()
    exp: dict = {}
    for src, n_tok, tks in zip(
        state["source"].to_pylist(), state["n_tok"].to_pylist(), state["tokens"].to_pylist()
    ):
        n, s_ntok, s_tok = exp.get(src, (0, 0, 0))
        exp[src] = (n + 1, s_ntok + n_tok, s_tok + sum(tks))
    got = zip(*(view[c].to_pylist() for c in ("source", "n_docs", "sum_n_tok", "sum_token_sum")))
    assert {s: tuple(r) for s, *r in got} == exp

    # both maintained indexes equal a build from scratch at the final state
    scratch = CDCLake(str(tmp_path / "scratch"))
    scratch.init_from(bd, num_partitions=4)
    scratch.replay(str(tmp_path / "e1"), mode="delta")
    scratch.replay(str(tmp_path / "e2"), mode="delta")
    create_dedup_index(scratch, "nd", **IDX_KW)
    create_ann_index(scratch, "ann", **ANN_KW)
    assert _index_rows(lake) == _index_rows(scratch)
    assert _ann_docs(lake) == _ann_docs(scratch)

    assert set(zip(pairs["a"].to_pylist(), pairs["b"].to_pylist())) == {
        ("d007", "dup-of-d007")
    }

    # each shard is the concat-and-chunk of its partition's docs in
    # doc_id order
    per_shard = {k: [] for k in range(4)}
    for doc_id, tks in zip(state["doc_id"].to_pylist(), state["tokens"].to_pylist()):
        per_shard[zlib.crc32(doc_id.encode()) % 4].extend(tks)
    assert sorted(s["shard"] for s in stats) == [0, 1, 2, 3]
    for s in stats:
        t = pq.read_table(os.path.join(out, s["file"]))
        assert [x for seq in t["tokens"].to_pylist() for x in seq] == per_shard[s["shard"]]
        assert t.num_rows == s["n_seqs"] and s["written"]


def test_each_tick_file_decoded_once_per_task(ray_session, tmp_path, monkeypatch):
    cfg = GenConfig(seed=21, n_docs=400, n_events=1500)
    bd, ed = str(tmp_path / "b"), str(tmp_path / "e")
    write_base(cfg, bd, shards=1)
    write_events(cfg, ed, shards=3)
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=8)
    for hi in (500, 1000, 1500):
        lake.replay(ed, lsn_hi=hi, mode="delta")
    m1, m4 = lake.manifest(1), lake.manifest(4)
    ticks = {d for e in m4.partitions.values() for d in e["deltas"]}
    # tick files are shared: fewer files than partitions name
    assert len(ticks) < sum(len(e["deltas"]) for e in m4.partitions.values())

    reads: Counter = Counter()
    read_part = cdcmod._read_part

    def counting(path, *a, **kw):
        reads[os.path.relpath(path, lake.lake_dir)] += 1
        return read_part(path, *a, **kw)

    monkeypatch.setattr(cdcmod, "_read_part", counting)
    items, same_p = _version_diff_plan(m1, m4)
    assert same_p and len(items) == 8
    feed = cdcmod._diff_task._function(lake.lake_dir, m4.schema, None, items, _diff_snapshots)
    assert {f: reads[f] for f in ticks} == {f: 1 for f in ticks}
    assert feed.num_rows > 0

    reads.clear()
    parts = [(k, e["file"], cdcmod._delta_refs(e)) for k, e in sorted(m4.partitions.items())]
    rows = cdcmod._export_task._function(
        lake.lake_dir, m4.schema, str(tmp_path / "shards"), 64, parts
    )
    assert len(rows) == 8
    assert {f: reads[f] for f in ticks} == {f: 1 for f in ticks}
