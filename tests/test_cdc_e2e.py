"""End-to-end CDC replay vs the sequential Python oracle.

Invariant (BASELINE.json): per-doc_id token-array equality between the
materialized lake (read via latest committed manifest) and the oracle's
final state; n_tok == len(tokens); watermark == max applied LSN.
"""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nifi_ray.gen import GenConfig, base_table, events_table, write_base, write_events
from nifi_ray.oracle import apply_events, state_from_base, state_to_table
from nifi_ray.pipelines.cdc import CDCLake
from nifi_ray.state.manifest import latest_version, load_manifest, manifest_path


CFG = GenConfig(seed=11, n_docs=300, n_events=2000)


def _assert_lake_equals_oracle(lake: CDCLake, oracle_state: dict):
    m = lake.manifest()
    got = lake.read_table()
    want = state_to_table(oracle_state, m.schema)
    assert got.num_rows == want.num_rows, "row count mismatch vs oracle"
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    # THE invariant: token-array equality per doc_id
    assert got["tokens"].to_pylist() == want["tokens"].to_pylist()
    # n_tok consistency
    live = got.filter(pc.is_valid(got["tokens"]))
    lens = pc.list_value_length(live["tokens"]).cast(pa.int32())
    assert pc.all(pc.equal(lens, live["n_tok"])).as_py()


@pytest.fixture
def dirs(tmp_path):
    base_dir = tmp_path / "base"
    ev_dir = tmp_path / "events"
    lake_dir = tmp_path / "lake"
    write_base(CFG, str(base_dir), shards=2)
    write_events(CFG, str(ev_dir), shards=4)
    return str(base_dir), str(ev_dir), str(lake_dir)


def test_single_pass_replay(ray_session, dirs):
    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=8)
    st = lake.replay(ev_dir)
    assert st.events_applied > 0
    oracle = apply_events([events_table(CFG)], state_from_base(base_table(CFG)))
    _assert_lake_equals_oracle(lake, oracle)
    m = lake.manifest()
    assert m.applied_through == CFG.lsn_start + CFG.n_events - 1
    # lineage recorded
    assert m.lineage[-1]["kind"] == "APPLY"
    assert m.lineage[-1]["events_applied"] == st.events_applied


def test_ticked_replay_matches_single_pass(ray_session, dirs):
    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=8)
    stats = lake.replay_ticks(ev_dir, tick_size=500, lsn_end=CFG.n_events)
    assert len(stats) >= 4
    oracle = apply_events([events_table(CFG)], state_from_base(base_table(CFG)))
    _assert_lake_equals_oracle(lake, oracle)


def test_replay_idempotent_exactly_once(ray_session, dirs):
    """F3: re-running the full event range over a committed lake applies
    nothing (all lsns <= watermark dropped as duplicates)."""
    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=8)
    lake.replay(ev_dir)
    v1 = lake.manifest().version
    before = lake.read_table()
    st2 = lake.replay(ev_dir)  # full rerun from lsn=0
    assert st2 is None  # nothing newer than watermark → no commit
    assert lake.manifest().version == v1
    assert lake.read_table().equals(before)


def test_duplicate_event_files(ray_session, dirs, tmp_path):
    """F3: the same lsn interval appears in two input files — LWW apply
    is idempotent, final state equals the single-pass oracle."""
    base_dir, ev_dir, lake_dir = dirs
    dup_dir = tmp_path / "events_dup"
    shutil.copytree(ev_dir, dup_dir)
    # duplicate one shard under a different name
    shard = sorted(os.listdir(ev_dir))[1]
    shutil.copy(os.path.join(ev_dir, shard), os.path.join(dup_dir, "dup-" + shard))
    lake = CDCLake(str(lake_dir))
    lake.init_from(base_dir, num_partitions=8)
    lake.replay(str(dup_dir))
    oracle = apply_events([events_table(CFG)], state_from_base(base_table(CFG)))
    _assert_lake_equals_oracle(lake, oracle)


def test_crash_before_commit_then_resume(ray_session, dirs):
    """F5: part files written but manifest commit dropped → resume
    ignores orphans, re-applies, converges to oracle state."""
    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=8)
    # tick 1 committed
    lake.replay(ev_dir, lsn_hi=1000)
    # tick 2 "crashes": run fully, then delete the committed manifest to
    # simulate dying between phase 1 (part files) and phase 2 (rename)
    lake.replay(ev_dir, lsn_hi=1600)
    v = latest_version(lake_dir)
    os.remove(manifest_path(lake_dir, v))
    assert latest_version(lake_dir) == v - 1
    # resume: re-apply from the last committed watermark
    lake.replay(ev_dir)  # applies (1000, end]
    oracle = apply_events([events_table(CFG)], state_from_base(base_table(CFG)))
    _assert_lake_equals_oracle(lake, oracle)
    assert lake.manifest().applied_through == CFG.lsn_start + CFG.n_events - 1


def test_schema_evolution_add_column(ray_session, tmp_path):
    """F4 add_col: events past lsn=K carry `lang`; lake schema evolves,
    old rows null-filled, token equality still holds."""
    cfg = GenConfig(seed=13, n_docs=100, n_events=800, evolve_after=400)
    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(cfg, base_dir, shards=2)
    # shard 1: events 1..400 (original schema), shard 2: 401.. (evolved)
    plain = events_table(GenConfig(**{**cfg.__dict__, "evolve_after": None}), 0, 400)
    evolved = events_table(cfg, 400, cfg.n_events)
    os.makedirs(ev_dir)
    pq.write_table(plain, os.path.join(ev_dir, "events-0.parquet"))
    pq.write_table(evolved, os.path.join(ev_dir, "events-1.parquet"))

    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    m0 = lake.manifest()
    assert "lang" not in m0.schema.names
    lake.replay(os.path.join(ev_dir, "events-0.parquet"), lsn_hi=400)
    assert lake.manifest().schema_version == 1
    lake.replay(os.path.join(ev_dir, "events-1.parquet"))
    m = lake.manifest()
    assert "lang" in m.schema.names
    assert m.schema_version == 2

    oracle = apply_events(
        [plain, evolved], state_from_base(base_table(cfg))
    )
    _assert_lake_equals_oracle(lake, oracle)
    # rows last touched before evolution have null lang
    tbl = lake.read_table()
    assert tbl["lang"].null_count > 0


def test_schema_evolution_widen(ray_session, tmp_path):
    """F4 widen: n_tok arrives as int64 after K; lake type widens."""
    cfg = GenConfig(seed=17, n_docs=60, n_events=400)
    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(cfg, base_dir, shards=1)
    t = events_table(cfg)
    early = t.slice(0, 200)
    late = t.slice(200)
    late = late.set_column(
        late.schema.get_field_index("n_tok"), "n_tok", late["n_tok"].cast(pa.int64())
    )
    os.makedirs(ev_dir)
    pq.write_table(early, os.path.join(ev_dir, "e0.parquet"))
    pq.write_table(late, os.path.join(ev_dir, "e1.parquet"))
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    lake.replay(os.path.join(ev_dir, "e0.parquet"), lsn_hi=200)
    lake.replay(os.path.join(ev_dir, "e1.parquet"))
    m = lake.manifest()
    assert m.schema.field("n_tok").type == pa.int64()
    assert m.schema_version == 2
    oracle = apply_events([t], state_from_base(base_table(cfg)))
    got = lake.read_table()
    want = state_to_table(oracle, m.schema)
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == want["tokens"].to_pylist()


def test_grouped_shards_exchange(ray_session, dirs):
    """P=8 on the 4-CPU session: map tasks return grouped shards, each
    apply task handles several partitions — same final state (P=100k
    must not mean 100k returns per map task)."""
    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=8)
    st = lake.replay(ev_dir, lsn_hi=1000)
    assert st is not None and st.events_applied == 1000
    st2 = lake.replay(ev_dir, mode="delta")
    assert st2 is not None
    for rec in lake.manifest().lineage[-2:]:
        assert 1 <= rec["plan"]["apply_tasks"] < 8, rec
    oracle = apply_events([events_table(CFG)], state_from_base(base_table(CFG)))
    _assert_lake_equals_oracle(lake, oracle)


def test_apply_task_worker_crash_retried(ray_session, dirs, monkeypatch):
    """Exactly-once under Ray's OWN failure mode: an apply task's worker
    dies (os._exit) AFTER writing its COW part but before returning, and
    a second task dies BEFORE doing any work. Ray retries both; the
    deterministic part name + tmp/os.replace write makes the retry
    overwrite its own output, so the final state matches the oracle with
    no duplicate or orphan parts."""
    import glob

    import ray

    from nifi_ray.pipelines import cdc as cdc_mod

    base_dir, ev_dir, lake_dir = dirs
    real_fn = cdc_mod._cdc_apply_task._function

    @ray.remote(max_retries=3)
    def flaky_apply(lake_dir, base_files, schema_b64, next_version, lo, *shards):
        out = real_fn(lake_dir, base_files, schema_b64, next_version, lo, *shards)
        # first task to finish its write dies before returning (dirty:
        # part file on disk, no stats row); second dies before writing
        for mode in ("after_write", "before_write"):
            marker = os.path.join(lake_dir, f".crash_{mode}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            if mode == "before_write":
                # simulate dying before the write by removing what this
                # attempt just wrote (the retry must recreate it)
                for r in out:
                    if r.get("file") and os.path.exists(
                        os.path.join(lake_dir, r["file"])
                    ):
                        os.remove(os.path.join(lake_dir, r["file"]))
            os._exit(1)  # kill the worker process mid-task
        return out

    monkeypatch.setattr(cdc_mod, "_cdc_apply_task", flaky_apply)
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=8)
    st = lake.replay(ev_dir)
    assert st is not None and st.events_applied == CFG.n_events
    assert os.path.exists(os.path.join(lake_dir, ".crash_after_write"))
    assert os.path.exists(os.path.join(lake_dir, ".crash_before_write"))

    oracle = apply_events([events_table(CFG)], state_from_base(base_table(CFG)))
    _assert_lake_equals_oracle(lake, oracle)
    assert lake.verify()["ok"]

    # no orphan tmp files and no duplicate parts beyond the manifest set
    m = lake.manifest()
    referenced = {e["file"] for e in m.partitions.values()}
    on_disk = {
        os.path.relpath(p, lake_dir)
        for p in glob.glob(os.path.join(lake_dir, "p=*", "*.parquet"))
    }
    assert not [p for p in on_disk if ".tmp." in p]
    # every referenced file exists; extras (orphaned v2 parts from the
    # crashed attempts of OTHER versions) are allowed pre-GC but here
    # the retry overwrote the same names, so disk == manifest ∪ v1 parts
    assert referenced <= on_disk


def test_delta_task_worker_crash_retried(ray_session, dirs, monkeypatch):
    """The worker-crash retry above for the delta apply task: one task
    dies after publishing its shared tick file, another after removing
    it. The retries re-publish identical bytes under the same names,
    and the merge-on-read state matches the oracle."""
    import glob

    import ray

    from nifi_ray.pipelines import cdc as cdc_mod

    base_dir, ev_dir, lake_dir = dirs
    real_fn = cdc_mod._cdc_delta_task._function

    @ray.remote(max_retries=3)
    def flaky_delta(lake_dir, *args):
        out = real_fn(lake_dir, *args)
        for mode in ("after_write", "before_write"):
            marker = os.path.join(lake_dir, f".crash_{mode}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            if mode == "before_write":
                for f in {r["delta_file"] for r in out}:
                    os.remove(os.path.join(lake_dir, f))
            os._exit(1)
        return out

    monkeypatch.setattr(cdc_mod, "_cdc_delta_task", flaky_delta)
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=8)
    st = lake.replay(ev_dir, mode="delta")
    assert st is not None and st.events_applied == CFG.n_events
    assert os.path.exists(os.path.join(lake_dir, ".crash_after_write"))
    assert os.path.exists(os.path.join(lake_dir, ".crash_before_write"))

    oracle = apply_events([events_table(CFG)], state_from_base(base_table(CFG)))
    _assert_lake_equals_oracle(lake, oracle)
    assert lake.verify()["ok"]
    m = lake.manifest()
    referenced = {d for e in m.partitions.values() for d in e["deltas"]}
    on_disk = {
        os.path.relpath(p, lake_dir)
        for p in glob.glob(os.path.join(lake_dir, "_delta", "*"))
    }
    assert not [p for p in on_disk if ".tmp." in p]
    assert referenced == on_disk


def test_single_partition_lake(ray_session, dirs):
    """P=1 exercises the num_returns=1 edge in the direct exchange
    (Ray hands back a bare ref, not a 1-tuple) for init, replay, and
    rescale — ADVICE r1 regression."""
    base_dir, ev_dir, lake_dir = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=1)
    st = lake.replay(ev_dir)
    assert st.events_applied > 0
    oracle = apply_events([events_table(CFG)], state_from_base(base_table(CFG)))
    _assert_lake_equals_oracle(lake, oracle)
    # rescale up from 1 and back down to 1: state unchanged
    lake.rescale(4)
    _assert_lake_equals_oracle(lake, oracle)
    lake.rescale(1)
    _assert_lake_equals_oracle(lake, oracle)
