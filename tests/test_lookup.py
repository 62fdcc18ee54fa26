"""Point reads: ``CDCLake.lookup`` returns exactly the full-state rows
of the requested ids, whatever the delta depth, the base schemas or the
number of partitions one lookup task serves."""

import os
import random

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nifi_ray.gen import GenConfig, base_table, write_base, write_events
from nifi_ray.pipelines import cdc
from nifi_ray.pipelines.cdc import CDCLake, _read_partition
from nifi_ray.schema import EVENT_SCHEMA
from nifi_ray.util.hashing import partition_of


def _assert_lookup_matches(lake: CDCLake, ids: list[str]):
    """lookup(ids) equals the full read restricted to ids, sorted."""
    got = lake.lookup(ids)
    full = lake.read_table()
    want = full.filter(pc.is_in(full["doc_id"], value_set=pa.array(ids, pa.string())))
    assert got.schema == want.schema
    assert got.to_pylist() == want.to_pylist()


def _events(rows: list[tuple], lang: bool) -> pa.Table:
    """Event rows ``(lsn, op, doc_id, n_tok)``; ``lang`` adds the
    evolved column."""
    t = pa.table(
        {
            "lsn": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows], pa.string()),
            "doc_id": pa.array([r[2] for r in rows], pa.string()),
            "tokens": pa.array(
                [None if r[1] == "D" else [r[3]] * r[3] for r in rows],
                pa.list_(pa.int32()),
            ),
            "n_tok": pa.array([None if r[1] == "D" else r[3] for r in rows], pa.int32()),
            "source": pa.array([None if r[1] == "D" else "web" for r in rows]),
        },
        schema=EVENT_SCHEMA,
    )
    if lang:
        t = t.append_column("lang", pa.array(["de"] * len(rows), pa.string()))
    return t


def test_one_task_lookup_across_mixed_base_schemas(ray_session, tmp_path, monkeypatch):
    """With one CPU every partition lands in one lookup task. A COW tick
    whose events carry a new column rewrites only the partitions it
    touches, so that task concatenates bases of two schemas, then
    overlays a delta tick holding a tombstone and an update."""
    monkeypatch.setattr(cdc, "cluster_cpus", lambda: 1)
    P = 8
    cfg = GenConfig(seed=71, n_docs=160)
    b, e, l = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(cfg, b, shards=1)
    docs = base_table(cfg)["doc_id"].to_pylist()
    pids = partition_of(pa.array(docs), P)
    by_pid = {}
    for d, p in zip(docs, pids):
        by_pid.setdefault(int(p), []).append(d)
    evolved, plain = by_pid[0], by_pid[1]
    os.makedirs(e)
    # tick 1 (COW, lsn 1-2): two partition-0 docs gain `lang`
    pq.write_table(
        _events([(1, "U", evolved[0], 3), (2, "U", evolved[1], 4)], lang=True),
        os.path.join(e, "events-00000.parquet"),
    )
    # tick 2 (delta, lsn 3-5): a tombstone in an old-schema partition,
    # an update in the evolved one and one in an old-schema partition
    pq.write_table(
        _events(
            [(3, "D", plain[0], 0), (4, "U", evolved[0], 5), (5, "U", plain[1], 6)],
            lang=False,
        ),
        os.path.join(e, "events-00001.parquet"),
    )
    lake = CDCLake(l)
    lake.init_from(b, num_partitions=P)
    lake.replay(e, lsn_hi=2)
    m = lake.manifest()
    has_lang = {
        k: "lang" in pq.read_schema(os.path.join(l, ent["file"])).names
        for k, ent in m.partitions.items()
    }
    assert has_lang[0] and not has_lang[1]
    lake.replay(e, mode="delta")
    assert lake.manifest().has_deltas()
    assert len(cdc._deal(list(range(P)))) == 1

    ids = [
        evolved[0], evolved[1], evolved[2],  # updated, COW-evolved, untouched
        plain[0], plain[1], plain[2],  # deleted, delta-updated, untouched
        "doc-does-not-exist",
    ]
    got = lake.lookup(ids)
    assert got["doc_id"].to_pylist() == sorted(set(ids) - {plain[0], "doc-does-not-exist"})
    rows = {r["doc_id"]: r for r in got.to_pylist()}
    assert rows[evolved[0]]["n_tok"] == 5 and rows[evolved[1]]["lang"] == "de"
    assert rows[plain[1]]["n_tok"] == 6 and rows[plain[2]]["lang"] is None
    _assert_lookup_matches(lake, ids)


@pytest.mark.parametrize("P", [1, 8])
def test_lookup_matches_full_read_at_every_delta_depth(ray_session, tmp_path, P):
    """A merge-on-read lake after 0-6 delta ticks, then compacted: for
    several seeded id sets (live, deleted and absent ids), lookup equals
    the full read restricted to those ids."""
    cfg = GenConfig(seed=83, n_docs=300, n_events=1200)
    b, e, l = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(cfg, b, shards=2)
    write_events(cfg, e, shards=3)
    lake = CDCLake(l)
    lake.init_from(b, num_partitions=P)
    docs = base_table(cfg)["doc_id"].to_pylist()
    rng = random.Random(5)
    id_sets = [rng.sample(docs, n) + ["doc-absent-0", "doc-absent-1"] for n in (1, 9, 64)]

    def check(depth: int):
        m = lake.manifest()
        assert max(len(ent.get("deltas", [])) for ent in m.partitions.values()) == depth
        for ids in id_sets:
            _assert_lookup_matches(lake, ids)

    check(0)
    for t in range(1, 7):
        lake.replay(e, lsn_hi=cfg.lsn_start - 1 + 200 * t, mode="delta")
        check(t)
    deleted = set(docs) - set(lake.read_table()["doc_id"].to_pylist())
    assert deleted  # the tombstone path is exercised
    id_sets.append(sorted(deleted)[:8] + docs[:8])
    check(6)

    # ids that match nothing: an empty table with the lake schema
    m = lake.manifest()
    ent = max(m.partitions.values(), key=lambda e_: len(e_["deltas"]))
    none = _read_partition(
        l, ent["file"], ent["deltas"], m.schema, pa.array(["doc-absent-0"])
    )
    assert none.num_rows == 0 and none.schema == m.schema

    lake.compact()
    check(0)


def test_lookup_columns_without_doc_id(ray_session, tmp_path):
    """``columns`` that leave out doc_id: rows still come back in doc_id
    order, projected; an empty id list gives the projected empty table."""
    cfg = GenConfig(seed=89, n_docs=200, n_events=600)
    b, e, l = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(cfg, b, shards=1)
    write_events(cfg, e, shards=2)
    lake = CDCLake(l)
    lake.init_from(b, num_partitions=4)
    lake.replay(e, lsn_hi=300)
    lake.replay(e, mode="delta")
    ids = random.Random(3).sample(base_table(cfg)["doc_id"].to_pylist(), 20) + ["doc-absent"]
    full = lake.read_table()
    want = full.filter(pc.is_in(full["doc_id"], value_set=pa.array(ids, pa.string())))
    want = want.sort_by("doc_id").select(["n_tok"])
    got = lake.lookup(ids, columns=["n_tok"])
    assert got.equals(want)
    assert lake.lookup([], columns=["n_tok"]).equals(want.schema.empty_table())
