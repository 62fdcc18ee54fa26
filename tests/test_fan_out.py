"""Lake ops fan out to ≤ cluster-CPU Ray tasks, each handling a group
of partitions (or files). The pytest session has 4 CPUs, so every lake
here has more partitions than tasks and every op takes its grouped
path."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from nifi_ray.gen import GenConfig, base_table, write_base, write_events
from nifi_ray.pipelines.cdc import CDCLake
from nifi_ray.util.hashing import partition_of

P = 8
CFG = GenConfig(seed=53, n_docs=240, n_events=1200)


def _mor_lake(tmp_path, lsn_hi=None) -> tuple[CDCLake, str]:
    b, e, l = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(CFG, b, shards=2)
    write_events(CFG, e, shards=3)
    lake = CDCLake(l)
    lake.init_from(b, num_partitions=P)
    lake.replay(e, lsn_hi=lsn_hi, mode="delta")
    return lake, e


def _rows_by_id(t: pa.Table) -> dict:
    return {r["doc_id"]: r for r in t.to_pylist()}


def test_lineage_records_plan(ray_session, tmp_path):
    """INIT, APPLY_DELTA, APPLY, COMPACT and RESCALE each record the
    task plan: at most one map and one apply task per CPU."""
    lake, e = _mor_lake(tmp_path, lsn_hi=CFG.lsn_start + 599)
    lake.replay(e)  # COW tick over the live deltas
    assert lake.replay(e, mode="delta") is None  # nothing left: no record
    lake.rescale(2 * P)
    m = lake.manifest()
    recs = {r["kind"]: r for r in m.lineage}
    assert recs["INIT"]["plan"] == {"map_tasks": 2, "apply_tasks": 4}
    for kind in ("APPLY_DELTA", "APPLY"):
        want = {"map_tasks": min(recs[kind]["files_in"], 4), "apply_tasks": 4}
        assert recs[kind]["plan"] == want, kind
    assert recs["RESCALE"]["plan"] == {"map_tasks": 4, "apply_tasks": 4}
    assert m.num_partitions == 2 * P and len(m.partitions) == 2 * P

    lake2, _ = _mor_lake(tmp_path / "c")
    touched = sum(1 for e_ in lake2.manifest().partitions.values() if e_["deltas"])
    assert touched > 4
    lake2.compact()
    assert lake2.manifest().lineage[-1]["plan"] == {"map_tasks": 0, "apply_tasks": 4}


@pytest.mark.parametrize("kind", ["dir", "table", "dataset"])
def test_init_tiny_base_writes_every_partition(ray_session, tmp_path, kind):
    """3 docs into P=8 over 4 write tasks, from a parquet dir, a Table
    or a Dataset: all 8 partitions commit, empty ones with an empty
    part, each doc sits in the partition its id hashes to, and the INIT
    record carries the task plan."""
    cfg = GenConfig(seed=5, n_docs=3, n_events=10)
    b, l = str(tmp_path / "b"), str(tmp_path / "l")
    write_base(cfg, b, shards=1)
    t = base_table(cfg)
    base = {"dir": b, "table": t, "dataset": rd.from_arrow(t)}
    lake = CDCLake(l)
    m = lake.init_from(base[kind], num_partitions=P)
    assert sorted(int(k) for k in m.partitions) == list(range(P))
    assert m.lineage[-1]["plan"] == {"map_tasks": 1, "apply_tasks": 4}
    n = 0
    for k, entry in m.partitions.items():
        t = pq.read_table(os.path.join(l, entry["file"]))
        assert t.num_rows == entry["rows"]
        assert set(partition_of(t["doc_id"], P).tolist()) <= {int(k)}
        n += t.num_rows
    assert n == 3
    assert sum(1 for e_ in m.partitions.values() if e_["rows"] == 0) >= P - 3
    assert lake.verify()["ok"]
    assert sorted(lake.read_table()["doc_id"].to_pylist()) == sorted(
        base_table(cfg)["doc_id"].to_pylist()
    )


def test_lookup_every_partition_matches_read_table(ray_session, tmp_path):
    """On a merge-on-read lake, a lookup touching all 8 partitions (plus
    one missing id) returns exactly the read_table() rows for those
    ids, though 4 tasks serve them."""
    lake, _ = _mor_lake(tmp_path)
    assert lake.manifest().has_deltas()
    full = lake.read_table()
    ids = full["doc_id"].to_pylist()
    pids = partition_of(full["doc_id"], P)
    want = [ids[list(pids).index(k)] for k in range(P)]  # one per partition
    want += ids[1::17]
    got = lake.lookup(want + ["doc-does-not-exist"])
    expect = full.filter(pc.is_in(full["doc_id"], value_set=pa.array(want)))
    assert got["doc_id"].to_pylist() == sorted(set(want))
    assert _rows_by_id(got) == _rows_by_id(expect)


def test_compact_grouped_keeps_state(ray_session, tmp_path):
    """compact() folds deltas of more partitions than CPUs: state is
    unchanged, no delta survives and verify() passes."""
    lake, _ = _mor_lake(tmp_path)
    before = lake.read_table()
    n_delta_parts = sum(1 for e_ in lake.manifest().partitions.values() if e_["deltas"])
    assert n_delta_parts > 4
    m = lake.compact()
    assert not m.has_deltas()
    assert sorted(m.lineage[-1]["partitions"]) == sorted(
        k for k, e_ in lake.manifest(m.version - 1).partitions.items() if e_["deltas"]
    )
    assert lake.read_table().equals(before)
    assert lake.verify()["ok"]


def test_verify_grouped_reports_corrupt_delta(ray_session, tmp_path):
    """verify() over grouped tasks still names the corrupted delta file
    and its partition."""
    lake, _ = _mor_lake(tmp_path)
    rep = lake.verify()
    assert rep["ok"] and rep["partitions_checked"] == P and rep["files_checked"] > P
    m = lake.manifest()
    k, entry = [(k, e_) for k, e_ in sorted(m.partitions.items()) if e_["deltas"]][-1]
    dpath = os.path.join(lake.lake_dir, entry["deltas"][0])
    t = pq.read_table(dpath)
    pq.write_table(t.slice(0, t.num_rows - 1), dpath)
    rep2 = lake.verify()
    assert not rep2["ok"] and len(rep2["mismatches"]) == 1
    assert rep2["mismatches"][0]["partition_id"] == k
    assert rep2["mismatches"][0]["file"] == entry["deltas"][0]
    assert rep2["partitions_checked"] == P


def test_read_groups_are_contiguous_and_open_one_file_per_tick(
    ray_session, tmp_path, monkeypatch
):
    """``_deal`` splits work into contiguous runs, the exchange's split:
    at P=16 with 4 CPUs each ``_read_task`` group is one contiguous pid
    range, the range its delta task wrote, and it references exactly
    one delta file per delta tick."""
    import re

    from nifi_ray.pipelines import cdc

    monkeypatch.setattr(cdc, "cluster_cpus", lambda: 4)
    b, e, l = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(CFG, b, shards=2)
    write_events(CFG, e, shards=3)
    lake = CDCLake(l)
    lake.init_from(b, num_partitions=16)
    ticks = [CFG.lsn_start + 599, None]
    for hi in ticks:
        lake.replay(e, lsn_hi=hi, mode="delta")

    want = lake.read_table().num_rows
    real, groups = cdc._read_task, []

    class Spy:
        def remote(self, lake_dir, schema, items, *args):
            groups.append(items)
            return real.remote(lake_dir, schema, items, *args)

    monkeypatch.setattr(cdc, "_read_task", Spy())
    assert lake.read().count() == want
    assert len(groups) == 4
    pid = lambda rel: int(re.match(r"p=(\d+)", rel).group(1))  # noqa: E731
    for items in groups:
        pids = [pid(file) for file, _ in items]
        assert pids == list(range(pids[0], pids[0] + len(pids)))
        files = {r["file"] for _, refs in items for r in refs}
        versions = [re.search(r"delta-v(\d+)-p(\d+)-(\d+)", f).groups() for f in files]
        assert sorted(int(v) for v, _, _ in versions) == [2, 3]  # one per tick
        assert {(int(lo), int(hi)) for _, lo, hi in versions} == {
            (pids[0], pids[-1] + 1)
        }
