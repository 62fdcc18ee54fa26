"""Lake-to-lake replication (site-to-site transfer analog):
bootstrap + incremental change-feed ship with CRC confirmation,
commit-after-session cursor ordering, crash-window idempotence.
Reference: nifi-site-to-site-client AbstractTransaction.java:177-210
(confirm checksum then commit)."""

import json
import os
import shutil

import pytest

from nifi_ray.gen import GenConfig, write_base, write_events
from nifi_ray.pipelines.cdc import CDCLake
from nifi_ray.pipelines.replicate import (
    ReplicationChecksumError,
    ReplicationCursorExpired,
    _cursor_path,
    _stage_feed,
    replicate,
    verify_replica,
)

CFG = GenConfig(seed=31, n_docs=300, n_events=1500)


@pytest.fixture
def rig(ray_session, tmp_path):
    base_dir, ev_dir = str(tmp_path / "base"), str(tmp_path / "events")
    write_base(CFG, base_dir, shards=2)
    write_events(CFG, ev_dir, shards=3)
    src = CDCLake(str(tmp_path / "src"))
    src.init_from(base_dir, num_partitions=6)
    return src, ev_dir, str(tmp_path / "dst")


def test_bootstrap_then_incremental_converges(rig):
    src, ev_dir, dst_dir = rig
    src.replay(ev_dir, lsn_hi=700)
    r1 = replicate(src, dst_dir)
    assert r1["mode"] == "bootstrap" and r1["rows_shipped"] > 0

    src.replay(ev_dir, lsn_hi=1100, mode="delta")  # MOR tick on the source
    src.replay(ev_dir)
    r2 = replicate(src, dst_dir)
    assert r2["mode"] == "incremental" and r2["applied"]
    assert r2["span"][0] == r1["src_version"]

    rep = verify_replica(src, CDCLake(dst_dir))
    assert rep["match"], rep
    # replica watermark mirrors the shipped source watermark
    assert CDCLake(dst_dir).manifest().applied_through == src.manifest().applied_through

    assert replicate(src, dst_dir)["mode"] == "noop"


def test_stale_cursor_reship_is_exactly_once(rig):
    """Crash window: dst tick committed but the cursor write was lost —
    the span re-ships and the replay watermark dedup makes it a no-op
    (state unchanged, still matches the source)."""
    src, ev_dir, dst_dir = rig
    src.replay(ev_dir, lsn_hi=700)
    r1 = replicate(src, dst_dir)
    src.replay(ev_dir)
    replicate(src, dst_dir)
    v_before = CDCLake(dst_dir).manifest().version

    cur = json.load(open(_cursor_path(dst_dir)))
    cur["src_version"] = r1["src_version"]  # rewind: simulate lost cursor write
    json.dump(cur, open(_cursor_path(dst_dir), "w"))

    r = replicate(src, dst_dir)
    assert r["mode"] == "incremental" and r["applied"] is False  # deduped
    assert CDCLake(dst_dir).manifest().version == v_before
    assert verify_replica(src, CDCLake(dst_dir))["match"]


def test_checksum_corruption_aborts_before_apply(rig):
    src, ev_dir, dst_dir = rig
    src.replay(ev_dir, lsn_hi=700)
    rb = replicate(src, dst_dir)
    src.replay(ev_dir)
    staging, crcs = _stage_feed(
        src, dst_dir, rb["src_version"], src.manifest().version,
        lsn=src.manifest().applied_through,
    )
    f0 = sorted(crcs)[0]
    with open(os.path.join(staging, f0), "r+b") as fh:
        fh.seek(8)
        fh.write(b"\x13\x37\x00")
    v_before = CDCLake(dst_dir).manifest().version
    with pytest.raises(ReplicationChecksumError):
        replicate(src, dst_dir)
    assert CDCLake(dst_dir).manifest().version == v_before  # nothing applied


def test_cursor_expired_raises_not_resyncs(rig):
    src, ev_dir, dst_dir = rig
    src.replay(ev_dir, lsn_hi=500)
    replicate(src, dst_dir)
    src.replay(ev_dir, lsn_hi=1000)
    src.replay(ev_dir)
    from nifi_ray.state.manifest import expire_versions

    expire_versions(src.lake_dir, keep_last=1)  # drops the cursor's version
    with pytest.raises(ReplicationCursorExpired):
        replicate(src, dst_dir)


def test_foreign_destination_refused(rig, tmp_path):
    """A destination lake that was not created by replicate() has no
    cursor — refuse rather than guess a span."""
    src, ev_dir, dst_dir = rig
    src.replay(ev_dir, lsn_hi=700)
    replicate(src, dst_dir)
    shutil.rmtree(os.path.join(dst_dir, "_replication"))
    with pytest.raises(FileNotFoundError):
        replicate(src, dst_dir)


def test_read_has_no_phantom_partition_column(rig):
    """The p=NNNNN lake layout must not hive-infer a `p` column into
    read() output (it leaked into replica schemas before)."""
    src, ev_dir, _ = rig
    src.replay(ev_dir)
    assert "p" not in src.read().schema().names


def test_replica_of_lake_with_empty_partitions(ray_session, tmp_path):
    """Bootstrap and fingerprint cover partitions that hold no rows."""
    import pyarrow as pa

    from nifi_ray.schema import BASE_SCHEMA

    t = pa.table(
        {"doc_id": ["a", "b", "c"], "tokens": [[1, 2], [3], []], "n_tok": [2, 1, 0],
         "source": ["x"] * 3},
        schema=BASE_SCHEMA,
    )
    src = CDCLake(str(tmp_path / "src"))
    src.init_from(t, num_partitions=8)
    assert replicate(src, str(tmp_path / "dst"))["rows_shipped"] == 3
    rep = verify_replica(src, CDCLake(str(tmp_path / "dst")))
    assert rep["match"] and rep["src_rows"] == 3, rep
