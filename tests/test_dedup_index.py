"""Incremental MinHash/LSH near-dup index (pipelines/dedup_index.py):
incremental refresh ≡ full rebuild, streaming candidate detection for
changed docs, delete removal, degenerate-key guard, rescale safety."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nifi_ray.gen import GenConfig, write_base, write_events
from nifi_ray.pipelines.cdc import CDCLake
from nifi_ray.pipelines.dedup_index import (
    candidate_pairs_for,
    create_dedup_index,
    index_versions,
    load_index_manifest,
    read_index_rows,
    refresh_dedup_index,
)
from nifi_ray.schema import BASE_SCHEMA, EVENT_SCHEMA

CFG = GenConfig(seed=55, n_docs=250, n_events=1500)

IDX_KW = dict(num_hashes=32, bands=8, num_buckets=16, seed=7)


def _rows_set(t: pa.Table) -> set:
    return {
        (
            t["doc_id"][i].as_py(),
            t["band_id"][i].as_py(),
            t["band_hash"][i].as_py(),
        )
        for i in range(t.num_rows)
    }


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    d = tmp_path_factory.mktemp("dedupidx")
    base_dir, ev_dir = str(d / "b"), str(d / "e")
    write_base(CFG, base_dir, shards=2)
    write_events(CFG, ev_dir, shards=3)
    return str(d), base_dir, ev_dir


def test_incremental_refresh_equals_full_rebuild(ray_session, dirs):
    d, base_dir, ev_dir = dirs
    inc = CDCLake(os.path.join(d, "lake_inc"))
    inc.init_from(base_dir, num_partitions=4)
    create_dedup_index(inc, "nd", **IDX_KW)
    for hi in (500, 1000, None):
        inc.replay(ev_dir, lsn_hi=hi, mode="delta")
        refresh_dedup_index(inc, "nd")
    # scratch lake at the same final state, index built from scratch
    scratch = CDCLake(os.path.join(d, "lake_scratch"))
    scratch.init_from(base_dir, num_partitions=4)
    scratch.replay(ev_dir)
    create_dedup_index(scratch, "nd", **IDX_KW)
    assert _rows_set(read_index_rows(inc, "nd")) == _rows_set(
        read_index_rows(scratch, "nd")
    )
    assert index_versions(inc.lake_dir, "nd") == [1, 2, 3, 4]


def test_streaming_candidates_find_injected_neardup(ray_session, tmp_path):
    """Insert a near-duplicate of an existing doc in a tick → the probe
    finds exactly that pair, verified by exact token-3-gram Jaccard."""
    rng = np.random.default_rng(3)
    toks = [rng.integers(0, 5000, size=60).tolist() for _ in range(40)]
    base = pa.table(
        {
            "doc_id": [f"d{i:03d}" for i in range(40)],
            "tokens": toks,
            "n_tok": [len(t) for t in toks],
            "source": ["web"] * 40,
        },
        schema=BASE_SCHEMA,
    )
    bd, ed = str(tmp_path / "b"), str(tmp_path / "e")
    os.makedirs(bd), os.makedirs(ed)
    pq.write_table(base, os.path.join(bd, "b.parquet"))
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=4)
    create_dedup_index(lake, "nd", **IDX_KW)
    # near-dup of d007: same tokens with two edits; plus one novel doc
    dup = list(toks[7])
    dup[0], dup[-1] = 9999, 9998
    novel = rng.integers(10000, 15000, size=60).tolist()
    ev = pa.table(
        {
            "lsn": [1, 2],
            "op": ["I", "I"],
            "doc_id": ["dup-of-d007", "novel-doc"],
            "tokens": [dup, novel],
            "n_tok": [len(dup), len(novel)],
            "source": ["web", "web"],
        },
        schema=EVENT_SCHEMA,
    )
    pq.write_table(ev, os.path.join(ed, "e.parquet"))
    v1 = lake.manifest().version
    lake.replay(ed)
    refresh_dedup_index(lake, "nd")
    pairs = candidate_pairs_for(lake, "nd", v1, verify_threshold=0.5)
    got = {(pairs["a"][i].as_py(), pairs["b"][i].as_py()) for i in range(pairs.num_rows)}
    assert got == {("d007", "dup-of-d007")}
    assert pairs["jaccard"][0].as_py() > 0.8


def test_delete_removes_doc_from_index(ray_session, tmp_path):
    base = pa.table(
        {
            "doc_id": ["a", "b"],
            "tokens": [[1, 2, 3, 4], [5, 6, 7, 8]],
            "n_tok": [4, 4],
            "source": ["web", "web"],
        },
        schema=BASE_SCHEMA,
    )
    bd, ed = str(tmp_path / "b"), str(tmp_path / "e")
    os.makedirs(bd), os.makedirs(ed)
    pq.write_table(base, os.path.join(bd, "b.parquet"))
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=2)
    create_dedup_index(lake, "nd", **IDX_KW)
    assert {r[0] for r in _rows_set(read_index_rows(lake, "nd"))} == {"a", "b"}
    ev = pa.table(
        {
            "lsn": [1],
            "op": ["D"],
            "doc_id": ["a"],
            "tokens": [None],
            "n_tok": [None],
            "source": [None],
        },
        schema=EVENT_SCHEMA,
    )
    pq.write_table(ev, os.path.join(ed, "e.parquet"))
    lake.replay(ed)
    refresh_dedup_index(lake, "nd")
    assert {r[0] for r in _rows_set(read_index_rows(lake, "nd"))} == {"b"}


def test_delta_chain_compacts_and_stays_correct(ray_session, tmp_path):
    """Many tiny ticks append bucket delta patches; once a chain passes
    max_deltas it folds into a new base — state identical throughout."""
    base = pa.table(
        {
            "doc_id": [f"d{i}" for i in range(6)],
            "tokens": [[i, i + 1, i + 2, i + 3] for i in range(6)],
            "n_tok": [4] * 6,
            "source": ["web"] * 6,
        },
        schema=BASE_SCHEMA,
    )
    bd = str(tmp_path / "b")
    os.makedirs(bd)
    pq.write_table(base, os.path.join(bd, "b.parquet"))
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=2)
    create_dedup_index(lake, "nd", **IDX_KW)
    for tick in range(5):
        ed = str(tmp_path / f"e{tick}")
        os.makedirs(ed)
        ev = pa.table(
            {
                "lsn": [tick + 1],
                "op": ["U"],
                "doc_id": [f"d{tick % 6}"],
                "tokens": [[100 + tick, 101 + tick, 102 + tick, 103 + tick]],
                "n_tok": [4],
                "source": ["web"],
            },
            schema=EVENT_SCHEMA,
        )
        pq.write_table(ev, os.path.join(ed, "e.parquet"))
        lake.replay(ed, mode="delta")
        refresh_dedup_index(lake, "nd", max_deltas=2)
    idx = load_index_manifest(lake.lake_dir, "nd")
    assert all(len(e["deltas"]) <= 2 for e in idx["buckets"].values())
    assert any(len(e["deltas"]) == 0 for e in idx["buckets"].values())  # compacted
    scratch = CDCLake(str(tmp_path / "lake2"))
    scratch.init_from(bd, num_partitions=2)
    for tick in range(5):
        scratch.replay(str(tmp_path / f"e{tick}"), mode="delta")
    create_dedup_index(scratch, "nd", **IDX_KW)
    assert _rows_set(read_index_rows(lake, "nd")) == _rows_set(
        read_index_rows(scratch, "nd")
    )


def test_refresh_across_rescale(ray_session, dirs):
    d, base_dir, ev_dir = dirs
    lake = CDCLake(os.path.join(d, "lake_rescale"))
    lake.init_from(base_dir, num_partitions=4)
    create_dedup_index(lake, "nd", **IDX_KW)
    lake.replay(ev_dir, lsn_hi=700)
    lake.rescale(6)
    lake.replay(ev_dir)
    refresh_dedup_index(lake, "nd")
    scratch = CDCLake(os.path.join(d, "lake_rescale_scratch"))
    scratch.init_from(base_dir, num_partitions=4)
    scratch.replay(ev_dir)
    create_dedup_index(scratch, "nd", **IDX_KW)
    assert _rows_set(read_index_rows(lake, "nd")) == _rows_set(
        read_index_rows(scratch, "nd")
    )


def test_candidates_empty_when_no_changes(ray_session, dirs):
    d, _, _ = dirs
    lake = CDCLake(os.path.join(d, "lake_inc"))  # built above
    v = lake.manifest().version
    pairs = candidate_pairs_for(lake, "nd", v, verify_threshold=0.5)
    assert pairs.num_rows == 0
    assert pairs.schema.names == ["a", "b", "jaccard"]


def test_spec_conflict_and_idempotent_create(ray_session, dirs):
    d, _, _ = dirs
    lake = CDCLake(os.path.join(d, "lake_inc"))
    again = create_dedup_index(lake, "nd", **IDX_KW)  # same spec → refresh
    assert again["version"] == lake.manifest().version
    with pytest.raises(FileExistsError):
        create_dedup_index(lake, "nd", num_hashes=64, bands=16)
    with pytest.raises(FileNotFoundError):
        load_index_manifest(lake.lake_dir, "missing")


def test_dense_tick_triggers_early_rebuild(ray_session, tmp_path):
    """A delta tick rewriting most docs must route to the full-rebuild
    fallback from footer metadata alone (estimated rows × bands >
    max_delta_rows) — and the rebuilt index equals a from-scratch one."""
    base = pa.table(
        {
            "doc_id": [f"d{i}" for i in range(40)],
            "tokens": [[i, i + 1, i + 2, i + 3] for i in range(40)],
            "n_tok": [4] * 40,
            "source": ["web"] * 40,
        },
        schema=BASE_SCHEMA,
    )
    bd = str(tmp_path / "b")
    os.makedirs(bd)
    pq.write_table(base, os.path.join(bd, "b.parquet"))
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=2)
    create_dedup_index(lake, "nd", **IDX_KW)
    # dense tick: every doc updated
    ed = str(tmp_path / "e")
    os.makedirs(ed)
    ev = pa.table(
        {
            "lsn": list(range(1, 41)),
            "op": ["U"] * 40,
            "doc_id": [f"d{i}" for i in range(40)],
            "tokens": [[100 + i, 101 + i, 102 + i, 103 + i] for i in range(40)],
            "n_tok": [4] * 40,
            "source": ["web"] * 40,
        },
        schema=EVENT_SCHEMA,
    )
    pq.write_table(ev, os.path.join(ed, "e.parquet"))
    lake.replay(ed, mode="delta")
    # max_delta_rows tiny -> metadata estimate must choose rebuild;
    # rebuilt buckets carry NO delta chains (fresh bases)
    refresh_dedup_index(lake, "nd", max_delta_rows=10)
    idx = load_index_manifest(lake.lake_dir, "nd")
    assert all(len(e["deltas"]) == 0 for e in idx["buckets"].values())
    scratch = CDCLake(str(tmp_path / "lake2"))
    scratch.init_from(bd, num_partitions=2)
    scratch.replay(ed, mode="delta")
    create_dedup_index(scratch, "nd", **IDX_KW)
    assert _rows_set(read_index_rows(lake, "nd")) == _rows_set(
        read_index_rows(scratch, "nd")
    )


def test_refresh_estimate_counts_each_partitions_own_rows(
    ray_session, tmp_path, monkeypatch
):
    """At P=8 on 4 CPUs each delta tick file is shared by two
    partitions. The pre-diff row estimate sums each partition's own
    rows (its ``delta_meta`` entry), not the shared file's footer, so a
    refresh whose true estimate is exactly ``max_delta_rows`` patches
    the buckets instead of rebuilding them."""
    from nifi_ray.pipelines import cdc

    monkeypatch.setattr(cdc, "cluster_cpus", lambda: 4)
    n = 64
    base = pa.table(
        {
            "doc_id": [f"d{i}" for i in range(n)],
            "tokens": [[i, i + 1, i + 2, i + 3] for i in range(n)],
            "n_tok": [4] * n,
            "source": ["web"] * n,
        },
        schema=BASE_SCHEMA,
    )
    bd, ed = str(tmp_path / "b"), str(tmp_path / "e")
    os.makedirs(bd)
    os.makedirs(ed)
    pq.write_table(base, os.path.join(bd, "b.parquet"))
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=8)
    create_dedup_index(lake, "nd", **IDX_KW)
    upd = list(range(0, n, 2))  # every partition touched
    pq.write_table(
        pa.table(
            {
                "lsn": list(range(1, len(upd) + 1)),
                "op": ["U"] * len(upd),
                "doc_id": [f"d{i}" for i in upd],
                "tokens": [[500 + i, 501 + i, 502 + i, 503 + i] for i in upd],
                "n_tok": [4] * len(upd),
                "source": ["web"] * len(upd),
            },
            schema=EVENT_SCHEMA,
        ),
        os.path.join(ed, "e.parquet"),
    )
    lake.replay(ed, mode="delta")
    m = lake.manifest()
    entries = [e for e in m.partitions.values() if e.get("deltas")]
    assert len(entries) == 8
    rows = sum(e["delta_meta"][d]["rows"] for e in entries for d in e["deltas"])
    footer = sum(
        pq.read_metadata(os.path.join(lake.lake_dir, d)).num_rows
        for e in entries
        for d in e["deltas"]
    )
    assert rows == len(upd) and footer > rows  # the files are shared
    refresh_dedup_index(lake, "nd", max_delta_rows=rows * 2 * IDX_KW["bands"])
    idx = load_index_manifest(lake.lake_dir, "nd")
    assert any(e["deltas"] for e in idx["buckets"].values())  # patched
    scratch = CDCLake(str(tmp_path / "lake2"))
    scratch.init_from(bd, num_partitions=8)
    scratch.replay(ed, mode="delta")
    create_dedup_index(scratch, "nd", **IDX_KW)
    assert _rows_set(read_index_rows(lake, "nd")) == _rows_set(
        read_index_rows(scratch, "nd")
    )
