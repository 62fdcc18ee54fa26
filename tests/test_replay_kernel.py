"""Replay hot-path shortcuts: each test fails if its guard is removed.

- the tick plan selects a file's row groups from their lsn min/max and
  null counts, and the map task reads each planned file once: its
  null-LSN rows are quarantined exactly once, and a file straddling
  the watermark or ``lsn_hi`` is filtered before validation, so rows
  outside the range never re-apply or re-quarantine (apply-side guard
  runs when ``min(lsn) <= watermark``);
- collapse-before-stamp premerge returns the rows of the old
  stamp-then-collapse order;
- lake parts never dictionary-encode ``tokens`` but keep it on
  ``doc_id``, and lakes with older dictionary-encoded parts still
  verify.
"""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nifi_ray.gen import GenConfig, base_table, events_table, write_base, write_events
from nifi_ray.oracle import apply_events, state_from_base, state_to_table
from nifi_ray.pipelines.cdc import (
    CDCLake,
    _cdc_apply_task,
    _cdc_map_task,
    _premerge,
    _validate_events,
)
from nifi_ray.schema import BASE_SCHEMA, EVENT_SCHEMA
from nifi_ray.sources.binlog import prune_event_files
from nifi_ray.stages.lww import collapse_last_writer
from nifi_ray.util.hashing import add_partition_column

CFG = GenConfig(seed=23, n_docs=200, n_events=1200)


def _events(lsns, docs, ops) -> pa.Table:
    n = len(lsns)
    return pa.table(
        {
            "lsn": pa.array(lsns, pa.int64()),
            "op": pa.array(ops, pa.string()),
            "doc_id": pa.array(docs, pa.string()),
            "tokens": pa.array([[i, i + 1] for i in range(n)], pa.list_(pa.int32())),
            "n_tok": pa.array([2] * n, pa.int32()),
            "source": pa.array(["web"] * n, pa.string()),
        },
        schema=EVENT_SCHEMA,
    )


def _assert_lake_equals_oracle(lake: CDCLake, oracle_state: dict):
    got = lake.read_table()
    want = state_to_table(oracle_state, lake.manifest().schema)
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == want["tokens"].to_pylist()


@pytest.fixture()
def dirs(ray_session, tmp_path):
    base_dir, ev_dir, lake_dir = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(CFG, base_dir, shards=2)
    write_events(CFG, ev_dir, shards=3)
    return base_dir, ev_dir, lake_dir, tmp_path


# --------------------------------------------------------------- (a)
def test_null_lsn_rows_quarantined_exactly_once(dirs):
    base_dir, ev_dir, lake_dir, tmp_path = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    lake.replay(ev_dir)
    lo = lake.manifest().applied_through
    # every non-null lsn lies above the watermark, so only the null
    # counts make the map task filter this file
    t = _events(
        [lo + 1, None, lo + 2, None, lo + 3, lo + 4, None, lo + 5],
        ["a", "n1", "b", "n2", "c", "badop", "n3", "d"],
        ["I", "U", "I", "U", "U", "X", "D", "I"],
    )
    bad_dir = str(tmp_path / "bad")
    os.makedirs(bad_dir)
    path = f"{bad_dir}/nulls.parquet"
    pq.write_table(t, path, row_group_size=3)
    assert _planned(path, lo) == [0, 1, 2]

    st_ = lake.replay(bad_dir)
    assert st_.quarantined == 4
    assert st_.events_applied == 4
    q = lake.quarantine()
    assert sorted(q["doc_id"].to_pylist()) == ["badop", "n1", "n2", "n3"]
    docs = set(lake.read_table()["doc_id"].to_pylist())
    assert {"a", "b", "c", "d"} <= docs
    assert not {"n1", "n2", "n3", "badop"} & docs


# --------------------------------------------------------------- (b)
def _planned(path: str, lo: int, lsn_hi: int | None = None) -> list[int] | None:
    """Row groups the tick plan reads from ``path`` (None: skipped)."""
    kept, _ = prune_event_files([path], lo, lsn_hi)
    return kept[0].row_groups if kept else None


def test_tick_plan_selects_row_groups(tmp_path):
    path = str(tmp_path / "ev.parquet")
    # four row groups: [11, 12] [13, 14] [15, 16] [17, 18]
    lsns = list(range(11, 19))
    pq.write_table(_events(lsns, list("abcdefgh"), ["I"] * 8), path,
                   row_group_size=2)
    assert _planned(path, 10) == [0, 1, 2, 3]  # wholly above lo
    assert _planned(path, 14) == [2, 3]  # lo inside: groups at or below go
    assert _planned(path, 13) == [1, 2, 3]
    assert _planned(path, 10, 14) == [0, 1]  # lsn_hi below a group drops it
    assert _planned(path, 12, 15) == [1, 2]
    assert _planned(path, 18) is None  # whole-file skip unchanged
    # a group holding nulls is always selected, an all-null one too
    lsns[2] = None
    lsns[4:6] = [None, None]
    pq.write_table(_events(lsns, list("abcdefgh"), ["I"] * 8), path,
                   row_group_size=2)
    assert _planned(path, 16) == [1, 2, 3]
    assert _planned(path, 0, 12) == [0, 1, 2]
    # no statistics: every group is kept
    pq.write_table(_events(list(range(11, 19)), list("abcdefgh"), ["I"] * 8),
                   path, row_group_size=2, write_statistics=False)
    assert _planned(path, 14, 15) == [0, 1, 2, 3]


def test_straddling_file_reapplies_nothing_below_watermark(dirs):
    base_dir, ev_dir, lake_dir, _ = dirs
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    files = sorted(os.path.join(ev_dir, f) for f in os.listdir(ev_dir))
    f_lo = pc.min(pq.read_table(files[1], columns=["lsn"])["lsn"]).as_py()
    lake.replay(ev_dir, lsn_hi=f_lo + 100)  # watermark inside files[1]
    lo = lake.manifest().applied_through
    f_hi = pc.max(pq.read_table(files[1], columns=["lsn"])["lsn"]).as_py()
    assert f_lo <= lo < f_hi

    # map side: no row at or below the watermark reaches a shard, nor
    # any above an lsn_hi inside the file
    for hi in (None, lo + 50):
        shards = _cdc_map_task._function(
            [(files[1], _planned(files[1], lo, hi))], 4, lo, hi, 4, None
        )
        assert sum(s.num_rows for s in shards) > 0
        for s in shards:
            assert s.num_rows == 0 or pc.min(s["lsn"]).as_py() > lo
            assert hi is None or s.num_rows == 0 or pc.max(s["lsn"]).as_py() <= hi

    st_ = lake.replay(ev_dir)
    ev = events_table(CFG)
    assert st_.dups_dropped == 0  # the read filter removed them
    assert st_.events_applied == pc.sum(pc.greater(ev["lsn"], lo)).as_py()
    oracle = apply_events([ev], state_from_base(base_table(CFG)))
    _assert_lake_equals_oracle(lake, oracle)
    assert lake.verify()["ok"]


def test_straddling_file_requarantines_nothing_below_watermark(ray_session, tmp_path):
    """A malformed row at or below the watermark in a straddling file
    is filtered before validation on the resumed tick, so it is not
    quarantined a second time next to the file's new malformed rows."""
    lake = CDCLake(str(tmp_path / "l"))
    lake.init_from(base_table(CFG), num_partitions=4)
    ev_dir = tmp_path / "ev"
    ev_dir.mkdir()
    pq.write_table(
        _events([1, 2, 3, 4, 5, 6], ["a", None, "b", "c", "d", "e"],
                ["I", "I", "I", "I", "X", "I"]),
        str(ev_dir / "ev.parquet"),
    )
    assert lake.replay(str(ev_dir), lsn_hi=3).quarantined == 1  # null doc_id
    st_ = lake.replay(str(ev_dir))  # straddles the watermark 3
    assert st_.quarantined == 1  # the bad op only
    assert st_.events_applied == 2
    q = lake.quarantine()
    assert q.num_rows == 2
    assert sorted(q["lsn"].to_pylist()) == [2, 5]


def test_map_task_reads_each_event_file_once(tmp_path, monkeypatch):
    """One plain ``ParquetFile`` read per event file, with no Dataset
    scanner and no second read for null LSNs, on a straddling,
    null-bearing, multi-row-group file."""
    import pyarrow.dataset as pads

    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    # row groups [1, 2, 3] [null, 5, 6] [7, 8, 9] [10, 11, 12]
    lsns = [1, 2, 3, None, 5, 6, 7, 8, 9, 10, 11, 12]
    pq.write_table(_events(lsns, [f"a{i}" for i in range(12)], ["I"] * 12), a,
                   row_group_size=3)
    pq.write_table(_events([7, 8], ["b0", "b1"], ["I", "I"]), b)
    lo, hi = 6, 8
    items = [(p, _planned(p, lo, hi)) for p in (a, b)]
    assert items[0][1] == [1, 2]

    def refuse(*args, **kwargs):
        raise AssertionError("event reads must not build a Dataset scanner")

    opened = []

    class CountingParquetFile(pq.ParquetFile):
        def __init__(self, source, *args, **kwargs):
            opened.append(source)
            super().__init__(source, *args, **kwargs)

    monkeypatch.setattr(pq, "read_table", refuse)
    monkeypatch.setattr(pads, "dataset", refuse)
    monkeypatch.setattr(pq, "ParquetFile", CountingParquetFile)
    qdir = str(tmp_path / "q")
    shards = _cdc_map_task._function(items, 4, lo, hi, 4, qdir)
    assert opened == [a, b]
    got = pa.concat_tables(shards)
    assert sorted(got["doc_id"].to_pylist()) == ["a6", "a7", "b0", "b1"]
    (qfile,) = os.listdir(qdir)
    assert pq.ParquetFile(os.path.join(qdir, qfile)).read()["doc_id"].to_pylist() == ["a3"]


def test_apply_guard_drops_and_counts_rows_at_or_below_watermark(tmp_path):
    """Rows that reach the apply side at or below the watermark are
    dropped there and counted as dups_dropped."""
    group = _events([4, 5, 6, 7], ["old1", "old2", "new1", "new2"], ["I"] * 4)
    group = add_partition_column(
        collapse_last_writer(group, count_col="ev_count"), 1
    )
    apply = _cdc_apply_task._function
    row = apply(str(tmp_path), {}, BASE_SCHEMA, 2, 5, "t", group)[0]
    assert row["events_in"] == 4
    assert row["dups_dropped"] == 2
    assert row["events_applied"] == 2
    part = pq.read_table(os.path.join(str(tmp_path), row["file"]))
    assert sorted(part["doc_id"].to_pylist()) == ["new1", "new2"]
    # nothing at or below: the guard is skipped and nothing is dropped
    row = apply(str(tmp_path), {}, BASE_SCHEMA, 3, 3, "u", group)[0]
    assert row["dups_dropped"] == 0 and row["rows"] == 4


# --------------------------------------------------------------- (c)
def _old_premerge(batch: pa.Table, P: int, applied_through: int) -> pa.Table:
    """The previous order: validate → guard → stamp → collapse."""
    batch, _ = _validate_events(batch)
    if applied_through > 0:
        batch = batch.filter(pc.greater(batch["lsn"], applied_through))
    batch = batch.replace_schema_metadata(None)
    batch = add_partition_column(batch, P)
    return collapse_last_writer(batch, count_col="ev_count")


_row = st.tuples(
    st.one_of(st.none(), st.integers(1, 40)),
    st.one_of(st.none(), st.sampled_from(["d0", "d1", "d2", "d3", "d4", "d5"])),
    st.one_of(st.none(), st.sampled_from(["I", "U", "D", "X"])),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.lists(_row, max_size=40),
    split=st.integers(0, 40),
    P=st.integers(1, 8),
    applied_through=st.integers(0, 40),
)
def test_premerge_matches_stamp_then_collapse(rows, split, P, applied_through):
    t = _events([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
    k = min(split, t.num_rows)
    # two chunks: the map task no longer combines the concatenated files
    t = pa.concat_tables([t.slice(0, k), t.slice(k)])
    want = _old_premerge(t, P, applied_through)
    got = _premerge(t, P, applied_through)
    assert sorted(got.schema.names) == sorted(want.schema.names)
    assert got.select(want.schema.names).equals(want)


# ------------------------------------------------------------- (d, e)
def _encodings(path: str) -> dict[str, set]:
    md = pq.read_metadata(path)
    out: dict[str, set] = {}
    for rg in range(md.num_row_groups):
        for i in range(md.num_columns):
            c = md.row_group(rg).column(i)
            out.setdefault(c.path_in_schema.split(".")[0], set()).update(c.encodings)
    return out


def _lake_parts(lake_dir: str) -> list[str]:
    return sorted(
        os.path.join(r, f)
        for r, _, fs in os.walk(lake_dir)
        for f in fs
        if f.endswith(".parquet") and not r.endswith("_quarantine")
        and pq.read_metadata(os.path.join(r, f)).num_rows
    )


def _assert_no_tokens_dictionary(paths):
    assert paths
    for p in paths:
        enc = _encodings(p)
        assert "RLE_DICTIONARY" not in enc["tokens"], p
        assert "RLE_DICTIONARY" in enc["doc_id"], p


def test_every_part_writer_skips_tokens_dictionary(dirs):
    base_dir, ev_dir, lake_dir, tmp_path = dirs
    # init (direct exchange) → COW tick → rescale
    lake = CDCLake(lake_dir)
    lake.init_from(base_dir, num_partitions=4)
    _assert_no_tokens_dictionary(_lake_parts(lake_dir))
    lake.replay(ev_dir, lsn_hi=CFG.lsn_start + 600)
    lake.rescale(2)
    # init from a Table (Dataset exchange) → delta tick → compact
    lake2_dir = str(tmp_path / "l2")
    lake2 = CDCLake(lake2_dir)
    lake2.init_from(base_table(CFG), num_partitions=4)
    lake2.replay(ev_dir, mode="delta")
    with_delta = _lake_parts(lake2_dir)
    assert any("delta" in os.path.basename(p) for p in with_delta)
    lake2.compact()
    kinds = [r["kind"] for r in lake.manifest().lineage + lake2.manifest().lineage]
    assert {"INIT", "APPLY", "RESCALE", "APPLY_DELTA", "COMPACT"} <= set(kinds)
    _assert_no_tokens_dictionary(_lake_parts(lake_dir) + _lake_parts(lake2_dir))


def test_dictionary_encoded_older_parts_still_verify(dirs):
    base_dir, _, lake_dir, tmp_path = dirs
    lake = CDCLake(lake_dir)
    m = lake.init_from(base_dir, num_partitions=4)
    # rewrite every part as the previous writer did (dictionary on all
    # columns); the content, and so the checksum, is unchanged
    old_parts = {}
    for k, e in m.partitions.items():
        p = os.path.join(lake_dir, e["file"])
        pq.write_table(pq.read_table(p), p, compression="zstd")
        assert "RLE_DICTIONARY" in _encodings(p)["tokens"]
        old_parts[k] = e["file"]
    lo = m.applied_through
    ev_dir = str(tmp_path / "one")
    os.makedirs(ev_dir)
    pq.write_table(_events([lo + 1], ["doc_new"], ["I"]), f"{ev_dir}/e.parquet")
    st_ = lake.replay(ev_dir)
    assert st_.partitions_touched == 1
    m2 = lake.manifest()
    kept = [k for k, e in m2.partitions.items() if e["file"] == old_parts[k]]
    assert len(kept) == 3  # untouched parts keep their dictionary pages
    assert lake.verify()["ok"]
    assert "doc_new" in lake.read_table()["doc_id"].to_pylist()
