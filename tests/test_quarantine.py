"""Quarantine routing (the NiFi 'failure' relationship on replay):
malformed events — null doc_id, null lsn, unknown op — are routed to
content-addressed parquet under _quarantine/, counted in TickStats and
lineage, never applied, and never poison or abort the tick."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nifi_ray.gen import GenConfig, write_base, write_events
from nifi_ray.pipelines.cdc import CDCLake
from nifi_ray.schema import EVENT_SCHEMA
from nifi_ray.state.manifest import expire_versions, gc_orphans

CFG = GenConfig(seed=37, n_docs=100, n_events=400)


def _bad_events(lsn0: int) -> pa.Table:
    """3 malformed + 2 valid events starting at lsn0."""
    return pa.table(
        {
            "lsn": pa.array([lsn0, lsn0 + 1, None, lsn0 + 3, lsn0 + 4], pa.int64()),
            "op": ["I", "X", "U", "U", "I"],
            "doc_id": ["good1", "badop", "nolsn", None, "good2"],
            "tokens": [[1, 2], [3], [4], [5], [6, 7]],
            "n_tok": pa.array([2, 1, 1, 1, 2], pa.int32()),
            "source": ["web"] * 5,
        },
        schema=EVENT_SCHEMA,
    )


@pytest.fixture()
def lake_dirs(ray_session, tmp_path):
    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(CFG, base_dir, shards=1)
    write_events(CFG, ev_dir, shards=2)
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    return lake, ev_dir, tmp_path


def test_quarantine_routes_and_applies_good_rows(lake_dirs):
    lake, ev_dir, tmp_path = lake_dirs
    st1 = lake.replay(ev_dir)
    assert st1.quarantined == 0  # clean generator stream

    bad_dir = str(tmp_path / "bad")
    os.makedirs(bad_dir)
    pq.write_table(_bad_events(CFG.n_events + 10), f"{bad_dir}/mixed.parquet")
    st2 = lake.replay(bad_dir)
    assert st2.quarantined == 3
    assert st2.events_applied == 2
    q = lake.quarantine()
    assert q.num_rows == 3
    assert set(q["doc_id"].to_pylist()) == {"badop", "nolsn", None}
    # good rows actually landed
    final = lake.read_table()
    docs = final["doc_id"].to_pylist()
    assert "good1" in docs and "good2" in docs
    # lineage records the count
    assert lake.manifest().lineage[-1]["quarantined"] == 3


def test_quarantine_idempotent_on_rereplay(lake_dirs):
    """Content-addressed parts: re-replaying a tail file with bad rows
    (watermark not covering it) rewrites the same quarantine file."""
    lake, ev_dir, tmp_path = lake_dirs
    lake.replay(ev_dir)
    bad_dir = str(tmp_path / "bad")
    os.makedirs(bad_dir)
    # all-bad file: no valid rows → no commit, watermark unmoved
    t = _bad_events(CFG.n_events + 10)
    all_bad = t.filter(
        pa.compute.is_in(t["doc_id"], value_set=pa.array(["badop", "nolsn"]))
    )
    pq.write_table(all_bad, f"{bad_dir}/allbad.parquet")
    assert lake.replay(bad_dir) is None  # nothing applicable
    n1 = lake.quarantine().num_rows
    assert lake.replay(bad_dir) is None  # same file re-read
    assert lake.quarantine().num_rows == n1  # no duplicates


def test_quarantine_delta_mode_and_gc_safe(lake_dirs):
    lake, ev_dir, tmp_path = lake_dirs
    lake.replay(ev_dir, lsn_hi=200)
    bad_dir = str(tmp_path / "bad")
    os.makedirs(bad_dir)
    pq.write_table(_bad_events(CFG.n_events + 10), f"{bad_dir}/mixed.parquet")
    lake.replay(ev_dir)  # catch up
    st = lake.replay(bad_dir, mode="delta")
    assert st.quarantined == 3
    # gc never touches the quarantine side-channel
    expire_versions(lake.lake_dir, keep_last=1)
    gc_orphans(lake.lake_dir)
    assert lake.quarantine().num_rows == 3


def _bad_tick(lsn0: int, tag: str) -> pa.Table:
    """``_bad_events`` with doc ids tagged so no two ticks write the
    same quarantine rows."""
    t = _bad_events(lsn0)
    ids = [None if d is None else f"{d}-{tag}" for d in t["doc_id"].to_pylist()]
    return t.set_column(2, "doc_id", pa.array(ids, pa.string()))


def test_quarantine_count_is_this_ticks_rows(lake_dirs):
    """Two ticks quarantine different bad rows: each reports only its
    own 3, not every quarantined row on disk."""
    lake, ev_dir, tmp_path = lake_dirs
    lake.replay(ev_dir)
    for i in range(2):
        bad_dir = str(tmp_path / f"bad{i}")
        os.makedirs(bad_dir)
        pq.write_table(_bad_tick(CFG.n_events + 10 * (i + 1), str(i)), f"{bad_dir}/m.parquet")
        st = lake.replay(bad_dir)
        assert st.quarantined == 3
        assert lake.manifest().lineage[-1]["quarantined"] == 3
    assert lake.quarantine().num_rows == 6


def test_null_lsn_rows_are_kept_per_event_file(lake_dirs):
    """A null-LSN row has no log position, so its event file is its only
    identity: the same malformed row re-sent in a later file is counted
    and kept again, not folded into the earlier file's part."""
    lake, ev_dir, tmp_path = lake_dirs
    lake.replay(ev_dir)
    for i in range(2):
        bad_dir = str(tmp_path / f"bad{i}")
        os.makedirs(bad_dir)
        pq.write_table(_bad_events(CFG.n_events + 10 * (i + 1)), f"{bad_dir}/m.parquet")
        st = lake.replay(bad_dir)
        assert st.quarantined == 3
    q = lake.quarantine()
    assert q.num_rows == 6
    assert q["doc_id"].to_pylist().count("nolsn") == 2
