"""Maintained IVF ANN index (pipelines/ann_index.py): incremental
refresh equals rebuild, deletes leave the index, updates move cells,
search probes the right cells and matches brute force on the same
embeddings."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from nifi_ray.pipelines.ann_index import (
    _load_manifest,
    ann_search,
    create_ann_index,
    load_centroids,
    refresh_ann_index,
    token_embeddings,
)
from nifi_ray.pipelines.cdc import CDCLake
from nifi_ray.schema import BASE_SCHEMA, EVENT_SCHEMA

KW = dict(dim=8, n_cells=4, seed=7, sample=64)


def _mk_base(tmp_path, n=30):
    base = pa.table(
        {
            "doc_id": [f"d{i:03d}" for i in range(n)],
            "tokens": [[i * 3 + j for j in range(4)] for i in range(n)],
            "n_tok": [4] * n,
            "source": ["web"] * n,
        },
        schema=BASE_SCHEMA,
    )
    bd = str(tmp_path / "b")
    os.makedirs(bd)
    pq.write_table(base, os.path.join(bd, "b.parquet"))
    return bd


def _ev(tmp_path, name, lsns, ops, ids, tokss):
    d = str(tmp_path / name)
    os.makedirs(d)
    t = pa.table(
        {
            "lsn": lsns,
            "op": ops,
            "doc_id": ids,
            "tokens": tokss,
            "n_tok": [len(x) for x in tokss],
            "source": ["web"] * len(lsns),
        },
        schema=EVENT_SCHEMA,
    )
    pq.write_table(t, os.path.join(d, "e.parquet"))
    return d


def _index_docs(lake, name="ann"):
    """(doc_id → emb_hash) of the merged index state."""
    from nifi_ray.pipelines.ann_index import _load_spec, _read_cell

    idx = _load_manifest(lake.lake_dir, name)
    dim = _load_spec(lake.lake_dir, name)["dim"]
    out = {}
    for entry in idx["buckets"].values():
        t = _read_cell(lake.lake_dir, entry, dim)
        for i in range(t.num_rows):
            out[t["doc_id"][i].as_py()] = t["emb_hash"][i].as_py()
    return out


def test_incremental_refresh_equals_rebuild(ray_session, tmp_path):
    bd = _mk_base(tmp_path)
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=2)
    create_ann_index(lake, "ann", **KW)
    # tick: update 3 docs, delete 1, insert 1
    ed = _ev(
        tmp_path, "e1",
        [1, 2, 3, 4, 5],
        ["U", "U", "U", "D", "I"],
        ["d000", "d001", "d002", "d003", "new0"],
        [[900, 901], [902, 903], [904, 905], [1], [910, 911, 912]],
    )
    lake.replay(ed, mode="delta")
    refresh_ann_index(lake, "ann")
    inc = _index_docs(lake)
    assert "d003" not in inc and "new0" in inc

    scratch = CDCLake(str(tmp_path / "lake2"))
    scratch.init_from(bd, num_partitions=2)
    scratch.replay(ed, mode="delta")
    create_ann_index(scratch, "ann", **KW)
    # NOTE: quantizers differ (trained on different versions) but index
    # MEMBERSHIP and per-doc embeddings must match
    assert inc == _index_docs(scratch)


def test_search_matches_bruteforce(ray_session, tmp_path):
    bd = _mk_base(tmp_path, n=40)
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=2)
    create_ann_index(lake, "ann", **KW)
    res = ann_search(lake, "ann", ["d000", "d017"], k=3, nprobe=4)  # all cells
    # nprobe = n_cells → exhaustive: equals brute force over all docs
    tbl = pa.concat_tables(
        __import__("ray").get(lake.read(columns=["doc_id", "tokens"]).to_arrow_refs())
    )
    E = token_embeddings(tbl["doc_id"], tbl["tokens"], KW["dim"], KW["seed"])
    ids = tbl["doc_id"].to_pylist()
    emb = dict(zip(ids, E))
    for qd in ("d000", "d017"):
        got = [
            res["doc_id"][i].as_py()
            for i in range(res.num_rows)
            if res["query_doc"][i].as_py() == qd
        ]
        sims = sorted(
            ((float(v @ emb[qd]), d) for d, v in emb.items()),
            key=lambda t: (-t[0], t[1]),
        )
        assert got == [d for _s, d in sims[:3]]


def test_delta_chain_compacts(ray_session, tmp_path):
    bd = _mk_base(tmp_path, n=12)
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=2)
    create_ann_index(lake, "ann", **KW)
    for tick in range(4):
        ed = _ev(
            tmp_path, f"t{tick}", [tick + 1], ["U"], [f"d{tick % 12:03d}"],
            [[800 + tick, 801 + tick]],
        )
        lake.replay(ed, mode="delta")
        refresh_ann_index(lake, "ann", max_deltas=2)
    idx = _load_manifest(lake.lake_dir, "ann")
    assert all(len(e["deltas"]) <= 2 for e in idx["buckets"].values())
    # final membership equals a rebuild on the same final lake
    scratch = CDCLake(str(tmp_path / "lake2"))
    scratch.init_from(bd, num_partitions=2)
    for tick in range(4):
        scratch.replay(str(tmp_path / f"t{tick}"), mode="delta")
    create_ann_index(scratch, "ann", **KW)
    assert _index_docs(lake) == _index_docs(scratch)


def test_refresh_through_cow_tick_and_rescale(ray_session, tmp_path):
    """A COW tick (full-partition diff) and a rescale from 2 to 3
    partitions (cross-P diff) each refresh to the state a fresh build
    indexes. The ticks carry an insert, a delete, real updates and a
    no-op write (identical tokens)."""
    bd = _mk_base(tmp_path)
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=2)
    create_ann_index(lake, "ann", **KW)
    e1 = _ev(
        tmp_path, "e1",
        [1, 2, 3, 4, 5],
        ["U", "U", "D", "I", "U"],
        ["d000", "d004", "d007", "new0", "d010"],
        [[900, 901], [902], [1], [910, 911], [30, 31, 32, 33]],
    )
    e2 = _ev(
        tmp_path, "e2",
        [6, 7, 8, 9],
        ["U", "D", "I", "U"],
        ["d001", "d005", "new1", "new0"],
        [[920, 921], [1], [930], [940, 941, 942]],
    )

    def fresh(n, *evs):
        scratch = CDCLake(str(tmp_path / f"fresh{n}"))
        scratch.init_from(bd, num_partitions=2)
        for ed in evs:
            scratch.replay(ed)
        create_ann_index(scratch, "ann", **KW)
        return _index_docs(scratch)

    lake.replay(e1)  # COW: full-partition diff items
    refresh_ann_index(lake, "ann")
    got = _index_docs(lake)
    assert "d007" not in got and "new0" in got
    assert got == fresh(1, e1)

    lake.rescale(3)
    lake.replay(e2, mode="delta")
    assert lake.manifest().num_partitions == 3
    refresh_ann_index(lake, "ann")  # cross-P diff from the P=2 version
    got = _index_docs(lake)
    assert "d005" not in got and "new1" in got
    assert got == fresh(2, e1, e2)
