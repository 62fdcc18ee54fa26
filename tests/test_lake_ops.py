"""Time travel + rescale over the COW lake."""

from nifi_ray.gen import GenConfig, base_table, events_table, write_base, write_events
from nifi_ray.oracle import apply_events, state_from_base, state_to_table
from nifi_ray.pipelines.cdc import CDCLake

CFG = GenConfig(seed=29, n_docs=150, n_events=900)


def test_time_travel_and_rescale(ray_session, tmp_path):
    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(CFG, base_dir, shards=1)
    write_events(CFG, ev_dir, shards=2)
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    v1_table = lake.read_table()

    lake.replay(ev_dir, lsn_hi=450)
    v2 = lake.manifest().version
    lake.replay(ev_dir)

    # time travel: version 1 is the untouched base, v2 the mid state
    old = lake.read(version=1).take_all()
    assert len(old) == CFG.n_docs
    mid_oracle = apply_events(
        [events_table(CFG, 0, 450)], state_from_base(base_table(CFG))
    )
    mid = lake.read(version=v2).count()
    assert mid == len(mid_oracle)

    # rescale 4 → 8 partitions; state identical
    before = lake.read_table()
    m = lake.rescale(8)
    assert m.num_partitions == 8
    assert len(m.partitions) == 8
    after = lake.read_table()
    assert before.equals(after)
    assert m.lineage[-1]["kind"] == "RESCALE"

    # replay after rescale still matches the oracle (no more events: no-op)
    assert lake.replay(ev_dir) is None
    final_oracle = apply_events([events_table(CFG)], state_from_base(base_table(CFG)))
    want = state_to_table(final_oracle, m.schema)
    got = lake.read_table()
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == want["tokens"].to_pylist()


def test_replay_more_after_rescale(ray_session, tmp_path):
    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(CFG, base_dir, shards=1)
    write_events(CFG, ev_dir, shards=2)
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    lake.replay(ev_dir, lsn_hi=300)
    lake.rescale(8)
    lake.replay(ev_dir)  # rest of the stream into the NEW partitioning
    oracle = apply_events([events_table(CFG)], state_from_base(base_table(CFG)))
    want = state_to_table(oracle, lake.manifest().schema)
    got = lake.read_table()
    assert got["tokens"].to_pylist() == want["tokens"].to_pylist()


def test_verify_checksums(ray_session, tmp_path):
    """CDCLake.verify recomputes per-partition checksums vs the
    manifest (site-to-site CRC confirmation analog) and detects
    corruption."""
    import os

    import pyarrow.parquet as pq

    from nifi_ray.gen import GenConfig, write_base, write_events
    from nifi_ray.pipelines.cdc import CDCLake

    cfg = GenConfig(seed=77, n_docs=200, n_events=600)
    b, e, l = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(cfg, b, shards=2)
    write_events(cfg, e, shards=2)
    lake = CDCLake(l)
    lake.init_from(b, num_partitions=4)
    lake.replay(e)
    rep = lake.verify()
    assert rep["ok"] and rep["partitions_checked"] == 4 and not rep["mismatches"]

    # corrupt one partition file in place → verify must flag it
    m = lake.manifest()
    k, entry = next(iter(m.partitions.items()))
    path = os.path.join(l, entry["file"])
    t = pq.read_table(path)
    pq.write_table(t.slice(0, max(t.num_rows - 1, 0)), path)
    rep2 = lake.verify()
    assert not rep2["ok"]
    assert rep2["mismatches"][0]["partition_id"] == k

    # merge-on-read lakes verify WITHOUT compacting: base files check
    # against the entry hash, delta files against delta_meta
    lake2 = CDCLake(str(tmp_path / "l2"))
    lake2.init_from(b, num_partitions=4)
    lake2.replay(e, lsn_hi=300, mode="delta")
    rep3 = lake2.verify()
    assert rep3["ok"] and rep3["skipped_deltas"] == 0
    assert rep3["partitions_checked"] == 4 and rep3["files_checked"] > 4

    # corrupting a DELTA file must be detected too
    m2 = lake2.manifest()
    k2, entry2 = next(
        (k, e2) for k, e2 in m2.partitions.items() if e2.get("deltas")
    )
    dpath = os.path.join(str(tmp_path / "l2"), entry2["deltas"][0])
    t2 = pq.read_table(dpath)
    pq.write_table(t2.slice(0, max(t2.num_rows - 1, 0)), dpath)
    rep4 = lake2.verify()
    assert not rep4["ok"]
    assert rep4["mismatches"][0]["partition_id"] == k2
    assert rep4["mismatches"][0]["file"] == entry2["deltas"][0]


def test_large_p_grouped_init_and_replay(ray_session, tmp_path):
    """P=128 on the 4-CPU session: grouped exchange end-to-end at a
    partition count far above the task count."""
    from nifi_ray.gen import GenConfig, base_table, events_table, write_base, write_events
    from nifi_ray.oracle import apply_events, state_from_base
    from nifi_ray.pipelines.cdc import CDCLake

    cfg = GenConfig(seed=78, n_docs=300, n_events=900)
    b, e, l = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(cfg, b, shards=2)
    write_events(cfg, e, shards=2)
    lake = CDCLake(l)
    lake.init_from(b, num_partitions=128)
    st = lake.replay(e)
    assert st.events_applied == 900
    oracle = apply_events([events_table(cfg)], state_from_base(base_table(cfg)))
    got = lake.read_table()
    assert got.num_rows == len(oracle)
    assert lake.verify()["ok"]
    init, tick = lake.manifest().lineage[-2:]
    assert len(lake.manifest().partitions) == 128
    for rec in (init, tick):
        assert 1 <= rec["plan"]["apply_tasks"] < 128, rec


def test_lookup_point_reads(ray_session, tmp_path):
    """lookup() fetches exactly the requested ids, partition-pruned,
    equal to the full-state rows — in COW and merge-on-read modes,
    across versions, with deleted/missing ids absent."""
    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("b", "e", "lk"))
    cfg = GenConfig(seed=31, n_docs=120, n_events=800)
    write_base(cfg, base_dir, shards=1)
    write_events(cfg, ev_dir, shards=2)
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    lake.replay(ev_dir, mode="delta")  # leave live deltas → overlay path

    full = lake.read_table()
    alive = full["doc_id"].to_pylist()
    want = [alive[0], alive[7], alive[-1]]
    got = lake.lookup(want + ["doc-does-not-exist"])
    assert got["doc_id"].to_pylist() == sorted(want)
    fm = {d: t for d, t in zip(full["doc_id"].to_pylist(), full["tokens"].to_pylist())}
    for d, t in zip(got["doc_id"].to_pylist(), got["tokens"].to_pylist()):
        assert fm[d] == t

    # column pruning
    cols = lake.lookup(want, columns=["doc_id", "n_tok"])
    assert cols.schema.names == ["doc_id", "n_tok"]

    # time travel: version 1 = base state
    v1 = lake.lookup(want, version=1)
    base_full = lake.read(version=1).take_all()
    base_map = {r["doc_id"]: r["n_tok"] for r in base_full}
    for d, n in zip(v1["doc_id"].to_pylist(), v1["n_tok"].to_pylist()):
        assert base_map[d] == n

    # empty request
    assert lake.lookup([]).num_rows == 0


def test_export_shards_packs_state_and_resumes(ray_session, tmp_path):
    import os
    import zlib

    import pyarrow.parquet as pq

    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(CFG, base_dir, shards=1)
    write_events(CFG, ev_dir, shards=2)
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    # delta mode so export must overlay merge-on-read deltas
    lake.replay(ev_dir, mode="delta")

    out = str(tmp_path / "shards")
    stats = lake.export_shards(out, max_len=64)
    assert sorted(s["shard"] for s in stats) == [0, 1, 2, 3]

    # scalar dual: final state -> crc32 shard -> doc_id order -> chunk
    state = apply_events(
        [events_table(CFG, 0, CFG.n_events)], state_from_base(base_table(CFG))
    )
    per_shard = {k: [] for k in range(4)}
    for doc_id in sorted(state):
        per_shard[zlib.crc32(doc_id.encode()) % 4].extend(state[doc_id]["tokens"])
    total = 0
    for s in stats:
        t = pq.read_table(os.path.join(out, s["file"]))
        flat = [x for seq in t["tokens"].to_pylist() for x in seq]
        assert flat == per_shard[s["shard"]]  # exact packed layout
        assert all(n <= 64 for n in t["n_tok"].to_pylist())
        total += t.num_rows
        assert t.num_rows == s["n_seqs"]

    # resumable: second call rewrites nothing (mtimes unchanged)
    mtimes = {
        s["file"]: os.path.getmtime(os.path.join(out, s["file"])) for s in stats
    }
    stats2 = lake.export_shards(out, max_len=64)
    assert {s["file"]: s["n_seqs"] for s in stats2} == {
        s["file"]: s["n_seqs"] for s in stats
    }
    for f, m in mtimes.items():
        assert os.path.getmtime(os.path.join(out, f)) == m


def test_export_shards_incremental_refresh(ray_session, tmp_path):
    """Re-export after new ticks rewrites ONLY the partitions those
    ticks touched (content-keyed by manifest entry, not file existence)
    and the refreshed dir equals a from-scratch export of the final
    state. Rescale shrink removes orphaned shard dirs."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(CFG, base_dir, shards=1)
    write_events(CFG, ev_dir, shards=2)
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)

    out = str(tmp_path / "shards")
    stats1 = lake.export_shards(out, max_len=64)
    assert all(s["written"] for s in stats1)

    # a tick touching ONE doc → one partition changes
    lake.replay(ev_dir, mode="delta")
    stats2 = lake.export_shards(out, max_len=64)
    assert any(s["written"] for s in stats2)  # changed partitions rewrote
    # stale-unsafety regression: every rewritten shard's bytes now
    # reflect final state — compare against a from-scratch export
    fresh = str(tmp_path / "shards_fresh")
    lake.export_shards(fresh, max_len=64)
    for s in stats2:
        a = pq.read_table(os.path.join(out, s["file"]))
        b = pq.read_table(os.path.join(fresh, s["file"]))
        assert a.drop_columns([]).equals(b), s["shard"]

    # third export with no new ticks: nothing written
    stats3 = lake.export_shards(out, max_len=64)
    assert not any(s["written"] for s in stats3)

    # sparse tick: ONE event → exactly one partition rewrites
    ed2 = str(tmp_path / "e2")
    os.makedirs(ed2)
    one = events_table(CFG, 0, 1)
    one = one.set_column(
        one.schema.get_field_index("lsn"),
        "lsn",
        pa.array([CFG.n_events + 1], pa.int64()),
    )
    pq.write_table(one, os.path.join(ed2, "one.parquet"))
    lake.replay(ed2, mode="delta")
    stats4 = lake.export_shards(out, max_len=64)
    assert sum(1 for s in stats4 if s["written"]) == 1

    # rescale shrink: orphaned shard dirs removed, all shards rewritten
    lake.rescale(2)
    stats5 = lake.export_shards(out, max_len=64)
    assert sorted(s["shard"] for s in stats5) == [0, 1]
    assert {d for d in os.listdir(out) if d.startswith("shard=")} == {
        "shard=00000",
        "shard=00001",
    }


def test_doc_history_provenance(ray_session, tmp_path):
    """doc_history: one doc's I/U/D events across retained versions
    (the provenance-repository drill-down), pre-delete image on 'D',
    no event for unchanged versions."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from nifi_ray.schema import EVENT_SCHEMA

    base_dir, lake_dir = (str(tmp_path / d) for d in ("b", "l"))
    write_base(CFG, base_dir, shards=1)
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)  # v1

    def tick(lsn, op, tokens, n):
        ev = pa.table(
            {
                "lsn": pa.array([lsn], pa.int64()),
                "op": pa.array([op], pa.string()),
                "doc_id": pa.array(["prov_doc"], pa.string()),
                "tokens": pa.array([tokens], pa.list_(pa.int32())),
                "n_tok": pa.array([None if tokens is None else len(tokens)], pa.int32()),
                "source": pa.array([None if tokens is None else "web"], pa.string()),
            },
        ).cast(EVENT_SCHEMA)
        d = str(tmp_path / f"ev{n}")
        os.makedirs(d)
        pq.write_table(ev, os.path.join(d, "e.parquet"))
        lake.replay(d)

    hi = CFG.lsn_start + CFG.n_events
    tick(hi + 1, "I", [1, 2, 3], 1)      # v2: create
    tick(hi + 2, "U", [4, 5], 2)         # v3: update
    tick(hi + 3, "U", [4, 5], 3)         # v4: no-op image → no event
    tick(hi + 4, "D", None, 4)           # v5: delete

    h = lake.doc_history("prov_doc")
    assert h["change_op"].to_pylist() == ["I", "U", "D"]
    assert h["version"].to_pylist() == [2, 3, 5]
    assert h["tokens"].to_pylist() == [[1, 2, 3], [4, 5], [4, 5]]  # D carries pre-image
    assert h["watermark"].to_pylist() == [hi + 1, hi + 2, hi + 4]

    # a base doc: single CREATE at v1, nothing after
    some_base_doc = lake.read_table()["doc_id"].to_pylist()[0]
    if some_base_doc != "prov_doc":
        hb = lake.doc_history(some_base_doc)
        assert hb["change_op"].to_pylist()[0] == "I"
        assert hb["version"].to_pylist()[0] == 1

    # unknown doc → empty with the bookkeeping columns
    he = lake.doc_history("never_existed")
    assert he.num_rows == 0
    assert he.schema.names[:3] == ["version", "watermark", "change_op"]


def test_restore_rolls_head_and_catches_up(ray_session, tmp_path):
    """RESTORE re-publishes an old snapshot as the new head (version
    grows, watermark reverts), a subsequent replay re-ingests the
    rolled-back range idempotently, and GC after restore keeps the
    shared part files alive."""
    from nifi_ray.state.manifest import expire_versions, gc_orphans

    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(CFG, base_dir, shards=1)
    write_events(CFG, ev_dir, shards=2)
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    lake.replay(ev_dir, lsn_hi=450)
    v_mid = lake.manifest().version
    mid_table = lake.read_table()
    lake.replay(ev_dir)
    full_table = lake.read_table()

    m = lake.restore(v_mid)
    assert m.version > v_mid + 1  # roll forward, not erase
    assert m.applied_through == 450
    assert m.lineage[-1]["kind"] == "RESTORE"
    assert lake.read_table().equals(mid_table)

    # catch-up replay re-applies (450, n] and converges to full state
    st = lake.replay(ev_dir)
    assert st is not None and st.lo == 450
    assert lake.read_table().equals(full_table)
    assert lake.replay(ev_dir) is None  # exactly-once after catch-up

    # GC with only the head retained must keep files the restored
    # lineage still references
    expire_versions(lake_dir, keep_last=1)
    gc_orphans(lake_dir)
    assert lake.read_table().equals(full_table)
