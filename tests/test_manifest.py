import os

import pyarrow as pa
import pytest

from nifi_ray.schema import BASE_SCHEMA
from nifi_ray.state.manifest import (
    Manifest,
    commit_manifest,
    gc_orphans,
    latest_version,
    load_manifest,
)


def _mk(version, lake):
    return Manifest(
        version=version,
        num_partitions=4,
        schema_version=1,
        schema=BASE_SCHEMA,
        applied_through=version * 100,
        partitions={0: {"file": "p=00000/part-v000001.parquet", "rows": 1, "max_lsn": 5, "token_hash": 7}},
    )


def test_commit_load_roundtrip(tmp_path):
    lake = str(tmp_path)
    assert load_manifest(lake) is None
    m = _mk(1, lake)
    commit_manifest(lake, m)
    got = load_manifest(lake)
    assert got.version == 1
    assert got.schema.equals(BASE_SCHEMA)
    assert got.partitions[0]["rows"] == 1
    assert got.applied_through == 100


def test_monotonic_versions(tmp_path):
    lake = str(tmp_path)
    commit_manifest(lake, _mk(1, lake))
    commit_manifest(lake, _mk(2, lake))
    assert latest_version(lake) == 2
    with pytest.raises(ValueError):
        commit_manifest(lake, _mk(2, lake))


def test_uncommitted_tmp_ignored(tmp_path):
    lake = str(tmp_path)
    commit_manifest(lake, _mk(1, lake))
    # simulate a crash mid phase-2: a .tmp manifest left behind
    with open(os.path.join(lake, "_manifest", "v000002.json.tmp.999"), "w") as f:
        f.write("{}")
    assert latest_version(lake) == 1


def test_gc_orphans(tmp_path):
    lake = str(tmp_path)
    os.makedirs(os.path.join(lake, "p=00000"))
    live = os.path.join(lake, "p=00000", "part-v000001.parquet")
    orphan = os.path.join(lake, "p=00000", "part-v000009.parquet")
    for p in (live, orphan):
        with open(p, "wb") as f:
            f.write(b"x")
    commit_manifest(lake, _mk(1, lake))
    removed = gc_orphans(lake)
    assert removed == [os.path.join("p=00000", "part-v000009.parquet")]
    assert os.path.exists(live) and not os.path.exists(orphan)


def test_commit_is_exclusive(tmp_path):
    """Two writers racing the same version: exactly one commit wins,
    the loser gets a retryable error (optimistic concurrency) — os.replace
    would silently drop the winner's files from the chain."""
    import pytest

    from nifi_ray.schema import BASE_SCHEMA
    from nifi_ray.state.manifest import Manifest, commit_manifest, load_manifest

    lake = str(tmp_path)
    mk = lambda tag: Manifest(
        version=1,
        num_partitions=2,
        schema_version=1,
        schema=BASE_SCHEMA,
        applied_through=0,
        partitions={"0": {"file": f"{tag}-0.parquet"}},
    )
    commit_manifest(lake, mk("winner"))
    with pytest.raises(ValueError, match="concurrently|not newer"):
        commit_manifest(lake, mk("loser"))
    assert load_manifest(lake, 1).partitions[0]["file"] == "winner-0.parquet"
    # no tmp litter
    import os

    mdir = os.path.join(lake, "_manifest")
    assert [f for f in os.listdir(mdir) if ".tmp." in f] == []

    # true race: the other writer lands BETWEEN the version pre-check
    # and the link (pre-create v2's path, pin the pre-check's view of
    # latest_version to v1) → the EEXIST branch must fire and clean up
    from unittest import mock

    from nifi_ray.state import manifest as mmod

    racer = mk("racer")
    racer.version = 2
    with open(mmod.manifest_path(lake, 2), "w") as f:
        f.write(mk("other").to_json())
    with mock.patch.object(mmod, "latest_version", return_value=1):
        with pytest.raises(ValueError, match="concurrently"):
            mmod.commit_manifest(lake, racer)
    assert [f for f in os.listdir(mdir) if ".tmp." in f] == []


def test_publish_part_exclusive(tmp_path):
    """publish_part: identical-content re-link is idempotent success,
    foreign-content collision raises CommitConflict."""
    from nifi_ray.state.manifest import CommitConflict, publish_part

    out = str(tmp_path / "part.parquet")
    a1 = str(tmp_path / "a1.tmp")
    a2 = str(tmp_path / "a2.tmp")
    b = str(tmp_path / "b.tmp")
    for p, data in ((a1, b"same-bytes"), (a2, b"same-bytes"), (b, b"DIFFERENT")):
        with open(p, "wb") as f:
            f.write(data)
    publish_part(a1, out)
    publish_part(a2, out)  # retried task, same bytes -> success
    assert not os.path.exists(a2)  # tmp always cleaned
    with pytest.raises(CommitConflict, match="different content"):
        publish_part(b, out)
    with open(out, "rb") as f:
        assert f.read() == b"same-bytes"  # first publish won


def test_concurrent_writers_retry_to_serialized_ticks(ray_session, tmp_path):
    """Two writers on one lake, both starting from the same manifest
    version with different event ranges: the loser's tick aborts at
    the exclusive part/manifest publish and its automatic retry
    re-runs against the winner's commit — final state is the
    sequential application of both event sets, no lost update."""
    _concurrent_writers(tmp_path, "cow")


def test_concurrent_delta_writers_retry_to_serialized_ticks(
    ray_session, tmp_path, monkeypatch
):
    """The same race in delta mode, with one apply task so both
    partitions share each tick file."""
    from nifi_ray.pipelines import cdc

    monkeypatch.setattr(cdc, "cluster_cpus", lambda: 1)
    _concurrent_writers(tmp_path, "delta")


def _concurrent_writers(tmp_path, mode: str):
    import pyarrow.parquet as pq

    from nifi_ray.pipelines.cdc import CDCLake
    from nifi_ray.schema import EVENT_SCHEMA

    base = pa.table(
        {
            "doc_id": [f"d{i}" for i in range(8)],
            "tokens": [[i] for i in range(8)],
            "n_tok": [1] * 8,
            "source": ["web"] * 8,
        },
        schema=BASE_SCHEMA,
    )
    bd = str(tmp_path / "b")
    os.makedirs(bd)
    pq.write_table(base, os.path.join(bd, "b.parquet"))

    def evdir(name, lsns, tok):
        d = str(tmp_path / name)
        os.makedirs(d)
        t = pa.table(
            {
                "lsn": lsns,
                "op": ["U"] * len(lsns),
                "doc_id": [f"d{i % 8}" for i in range(len(lsns))],
                "tokens": [[tok + i] for i in range(len(lsns))],
                "n_tok": [1] * len(lsns),
                "source": ["web"] * len(lsns),
            },
            schema=EVENT_SCHEMA,
        )
        pq.write_table(t, os.path.join(d, "e.parquet"))
        return d

    ev_a = evdir("ea", [1, 2, 3, 4], 100)
    ev_b = evdir("eb", [5, 6, 7, 8], 200)

    lake_dir = str(tmp_path / "lake")
    writer_a = CDCLake(lake_dir)
    writer_a.init_from(bd, num_partitions=2)
    writer_b = CDCLake(lake_dir)

    # writer B reads the manifest BEFORE A commits (stale snapshot)
    stale = writer_b.manifest()
    real = writer_b.manifest
    seen = {"n": 0}

    def stale_once(version=None):
        seen["n"] += 1
        return stale if (seen["n"] == 1 and version is None) else real(version)

    writer_b.manifest = stale_once

    assert writer_a.replay(ev_a, mode=mode).version == 2
    st = writer_b.replay(ev_b, mode=mode)  # first attempt races v2, retries at v3
    assert st is not None and st.version == 3 and st.events_applied == 4

    # no lost update: final state == sequential application of A then B
    seq = CDCLake(str(tmp_path / "lake_seq"))
    seq.init_from(bd, num_partitions=2)
    seq.replay(ev_a, mode=mode)
    seq.replay(ev_b, mode=mode)
    got = writer_a.read_table().sort_by("doc_id")
    want = seq.read_table().sort_by("doc_id")
    assert got["tokens"].to_pylist() == want["tokens"].to_pylist()
    assert writer_a.manifest().applied_through == 8
    assert writer_a.verify()["ok"]


# ---------------------------------------------------------------- lineage rollup
def test_append_lineage_rolls_up_old_records():
    from nifi_ray.state.manifest import append_lineage

    lin: list = []
    for i in range(10):
        lin = append_lineage(
            lin,
            {
                "kind": "APPLY",
                "lsn_range": [i * 100, (i + 1) * 100],
                "events_applied": 10,
                "bytes_written": 5,
            },
            keep=4,
        )
    # newest 4 carried verbatim; lineage[-1] stays the latest tick record
    assert lin[-1]["lsn_range"] == [900, 1000]
    assert [r["kind"] for r in lin] == ["ROLLUP"] + ["APPLY"] * 4
    head = lin[0]
    assert head["records"] == 6
    assert head["kinds"] == {"APPLY": 6}
    assert head["events_applied"] == 60
    assert head["bytes_written"] == 30
    assert head["lsn_lo"] == 0 and head["lsn_hi"] == 600

    # further appends keep aging the oldest in-window records into the head
    lin = append_lineage(lin, {"kind": "COMPACT", "deltas_folded": 3, "bytes_written": 7}, keep=4)
    lin = append_lineage(lin, {"kind": "APPLY", "events_applied": 1}, keep=4)
    head = lin[0]
    assert head["kind"] == "ROLLUP"
    assert len(lin) == 5  # ROLLUP + newest 4 (incl. the COMPACT, still in-window)
    assert [r["kind"] for r in lin] == ["ROLLUP", "APPLY", "APPLY", "COMPACT", "APPLY"]
    assert head["records"] == 8
    assert head["kinds"] == {"APPLY": 8}
    assert head["events_applied"] == 80
    assert head["bytes_written"] == 40


def test_append_lineage_within_window_is_plain_append():
    from nifi_ray.state.manifest import append_lineage

    lin: list = []
    for i in range(4):
        lin = append_lineage(lin, {"kind": "APPLY", "i": i}, keep=4)
    assert [r["i"] for r in lin] == [0, 1, 2, 3]
    assert all(r["kind"] == "APPLY" for r in lin)
