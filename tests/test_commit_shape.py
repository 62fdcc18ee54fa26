"""The manifest every commit kind writes: INIT, a COW APPLY, two
APPLY_DELTA ticks, COMPACT, RESCALE, RESTORE and an empty-range
``replay_ticks`` APPLY. Each commit is the previous version + 1, every
partition entry has an exact key set, ``max_lsn`` follows its commit
kind's rule, and each lineage record carries its kind's keys."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from nifi_ray.gen import GenConfig, events_table, write_base, write_events
from nifi_ray.pipelines.cdc import CDCLake
from nifi_ray.schema import EVENT_SCHEMA
from nifi_ray.util.hashing import HASH_REV, partition_of

CFG = GenConfig(seed=53, n_docs=200, n_events=900)
FULL = {"file", "rows", "max_lsn", "token_hash", "hash_rev"}
DELTA = FULL | {"deltas", "delta_meta"}
TICK = {
    "kind", "lsn_range", "events_applied", "dups_dropped", "files_in",
    "files_skipped_by_footer", "partitions_touched", "quarantined", "deletes",
    "bytes_written", "wall_sec", "files_out", "plan",
}
RECORD_KEYS = {
    "INIT": {"kind", "rows", "partitions", "plan"},
    "APPLY": TICK,
    "APPLY_DELTA": TICK,
    "COMPACT": {"kind", "partitions", "deltas_folded", "bytes_written", "plan"},
    "RESCALE": {"kind", "from_partitions", "to_partitions", "rows", "plan"},
    "RESTORE": {"kind", "to_version", "applied_through"},
}


def _max_lsn_by_pid(lo: int, hi: int, P: int) -> dict[int, int]:
    """Max event LSN in (lo, hi] per partition: what a tick's apply
    side reports for each partition it touches."""
    ev = events_table(CFG)
    ev = ev.filter(pc.and_(pc.greater(ev["lsn"], lo), pc.less_equal(ev["lsn"], hi)))
    out: dict[int, int] = {}
    for pid, lsn in zip(partition_of(ev["doc_id"], P), ev["lsn"].to_pylist()):
        out[int(pid)] = max(out.get(int(pid), 0), lsn)
    return out


def _assert_entries(m, keys: set, rewritten: set):
    """Entries in ``rewritten`` have exactly ``keys`` and the current
    hash rev; every other entry is a full or a delta entry."""
    for k, e in m.partitions.items():
        if k in rewritten:
            assert set(e) == keys and e["hash_rev"] == HASH_REV, (k, sorted(e))
        else:
            assert set(e) in (FULL, DELTA), (k, sorted(e))


def test_manifest_shape_over_every_commit_kind(ray_session, tmp_path):
    b, e, g, l = (str(tmp_path / d) for d in ("b", "e", "g", "l"))
    write_base(CFG, b, shards=2)
    write_events(CFG, e, shards=3)
    P, P2 = 6, 12
    lake = CDCLake(l)
    hist = [lake.init_from(b, num_partitions=P)]
    m = hist[-1]
    assert m.version == 1
    _assert_entries(m, FULL, set(m.partitions))
    assert {e_["max_lsn"] for e_ in m.partitions.values()} == {0}

    # COW tick: rewritten entries carry the tick's max LSN per partition
    cuts = [300, 600, 900]
    lake.replay(e, lsn_hi=cuts[0])
    m = lake.manifest()
    want = _max_lsn_by_pid(0, cuts[0], P)
    _assert_entries(m, FULL, set(want))
    for k, e_ in m.partitions.items():
        assert e_["max_lsn"] == want.get(k, 0)
    hist.append(m)

    # two delta ticks: touched entries gain deltas + delta_meta
    for lo, hi in zip(cuts, cuts[1:]):
        prev = m
        lake.replay(e, lsn_hi=hi, mode="delta")
        m = lake.manifest()
        want = _max_lsn_by_pid(lo, hi, P)
        _assert_entries(m, DELTA, set(want))
        for k, e_ in m.partitions.items():
            assert e_["max_lsn"] == want.get(k, prev.partitions[k]["max_lsn"])
            if "deltas" in e_:
                assert set(e_["delta_meta"]) == set(e_["deltas"])
            for meta in e_.get("delta_meta", {}).values():
                assert set(meta) == {"rows", "hash", "hash_rev"}
                assert meta["hash_rev"] == HASH_REV
        hist.append(m)

    # compact: folded entries are full again and keep their max LSN
    prev = m
    m = lake.compact()
    folded = {k for k, e_ in prev.partitions.items() if e_.get("deltas")}
    assert folded and m.lineage[-1]["partitions"] == sorted(folded)
    _assert_entries(m, FULL, set(m.partitions))
    for k, e_ in m.partitions.items():
        assert e_["max_lsn"] == prev.partitions[k]["max_lsn"]
    hist.append(m)

    # rescale: every entry is rewritten at the watermark
    m = lake.rescale(P2)
    assert m.num_partitions == P2 and len(m.partitions) == P2
    _assert_entries(m, FULL, set(m.partitions))
    assert {e_["max_lsn"] for e_ in m.partitions.values()} == {m.applied_through}
    hist.append(m)

    # restore: the target's entries, schema and watermark, verbatim
    tgt = hist[1]
    m = lake.restore(tgt.version)
    assert m.partitions == tgt.partitions
    assert m.num_partitions == tgt.num_partitions
    assert m.applied_through == tgt.applied_through
    assert m.schema.equals(tgt.schema)
    hist.append(m)

    # empty-range replay_ticks: a metadata-only APPLY that only moves
    # the watermark (the one event file lies past lsn_end)
    os.makedirs(g)
    w = m.applied_through
    far = pa.table(
        {
            "lsn": pa.array([w + 1000], pa.int64()), "op": ["U"], "doc_id": ["x"],
            "tokens": [[1]], "n_tok": pa.array([1], pa.int32()), "source": ["web"],
        },
        schema=EVENT_SCHEMA,
    )
    pq.write_table(far, os.path.join(g, "events-00000.parquet"))
    assert lake.replay_ticks(g, tick_size=10, lsn_end=w + 15) == []
    m = lake.manifest()
    assert m.applied_through == w + 10
    assert m.partitions == hist[-1].partitions
    hist.append(m)

    assert [x.version for x in hist] == list(range(1, len(hist) + 1))
    assert m.version == len(hist)
    kinds = [r["kind"] for r in m.lineage]
    assert kinds == [
        "INIT", "APPLY", "APPLY_DELTA", "APPLY_DELTA", "COMPACT", "RESCALE",
        "RESTORE", "APPLY",
    ]
    for r in m.lineage[:-1]:
        assert set(r) == RECORD_KEYS[r["kind"]], r["kind"]
    assert m.lineage[-1] == {
        "kind": "APPLY", "lsn_range": [w, w + 10], "events_applied": 0,
        "plan": {"map_tasks": 0, "apply_tasks": 0},
    }
    for r in m.lineage:
        if "plan" in r:
            assert set(r["plan"]) == {"map_tasks", "apply_tasks"}
    assert lake.verify()["ok"]
