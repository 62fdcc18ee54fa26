"""Lake scans: ``CDCLake.read`` and ``read_table`` run the same dealt
scan tasks on copy-on-write and merge-on-read lakes, and every block
has the manifest schema whatever schema each part was written with."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from nifi_ray.gen import GenConfig, base_table, write_base, write_events
from nifi_ray.pipelines import cdc
from nifi_ray.pipelines.cdc import CDCLake, _read_partition
from nifi_ray.schema import EVENT_SCHEMA
from nifi_ray.util.hashing import partition_of

P = 8
CFG = GenConfig(seed=29, n_docs=300, n_events=1500)


def _collect(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by("doc_id")


def _state(lake: CDCLake, version: int) -> pa.Table:
    """Version ``version``'s full state, overlaid on the driver
    partition by partition."""
    m = lake.manifest(version)
    return pa.concat_tables(
        [
            _read_partition(lake.lake_dir, e["file"], e.get("deltas", []), m.schema)
            for e in m.partitions.values()
        ]
    ).sort_by("doc_id")


def test_read_columns_after_partial_schema_evolution(ray_session, tmp_path):
    """A COW tick whose events carry a new column rewrites only the
    partitions it touches, so the other parts lack the column. A
    projection or a predicate naming it reads those parts' rows as
    null instead of failing on the parts that lack it."""
    cfg = GenConfig(seed=71, n_docs=80)
    b, e, l = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(cfg, b, shards=1)
    docs = base_table(cfg)["doc_id"].to_pylist()
    pids = partition_of(pa.array(docs), 4)
    evolved = [d for d, p in zip(docs, pids) if p == 0][:2]
    ev = pa.table(
        {
            "lsn": pa.array([1, 2], pa.int64()),
            "op": ["U", "U"],
            "doc_id": evolved,
            "tokens": pa.array([[1], [2]], pa.list_(pa.int32())),
            "n_tok": pa.array([1, 1], pa.int32()),
            "source": ["web", "web"],
        },
        schema=EVENT_SCHEMA,
    ).append_column("lang", pa.array(["de", "fr"]))
    os.makedirs(e)
    pq.write_table(ev, os.path.join(e, "ev.parquet"))
    lake = CDCLake(l)
    lake.init_from(b, num_partitions=4)
    lake.replay(e)
    m = lake.manifest()
    assert not m.has_deltas() and "lang" in m.schema.names
    has_lang = [
        "lang" in pq.read_schema(os.path.join(l, ent["file"])).names
        for ent in m.partitions.values()
    ]
    assert any(has_lang) and not all(has_lang)

    got = _collect(lake.read(columns=["doc_id", "lang"]))
    assert got.schema.names == ["doc_id", "lang"]
    langs = dict(zip(got["doc_id"].to_pylist(), got["lang"].to_pylist()))
    assert len(langs) == len(docs)
    assert {d: langs[d] for d in evolved} == dict(zip(evolved, ["de", "fr"]))
    assert sum(v is not None for v in langs.values()) == 2
    de = _collect(lake.read(columns=["doc_id"], filters=[("lang", "=", "de")]))
    assert de["doc_id"].to_pylist() == [evolved[0]]


@pytest.mark.parametrize("mode", ["cow", "delta"])
def test_read_equals_read_table(ray_session, tmp_path, mode):
    """Two ticks into a P=8 lake (4 CPUs): ``read()`` holds the
    ``read_table()`` rows, one block per scan task and no phantom ``p``
    column from the ``p=NNNNN`` directories. ``columns``, ``filters``
    and ``version=`` compose on the current and the earlier snapshot."""
    b, e, l = (str(tmp_path / d) for d in ("b", "e", "l"))
    write_base(CFG, b, shards=2)
    write_events(CFG, e, shards=3)
    lake = CDCLake(l)
    lake.init_from(b, num_partitions=P)
    lake.replay(e, lsn_hi=CFG.lsn_start + 699, mode=mode)
    lake.replay(e, mode=mode)
    m = lake.manifest()
    assert m.has_deltas() == (mode == "delta")

    ds = lake.read()
    assert ds.num_blocks() == cdc._fan_out(P) == 4
    assert "p" not in ds.schema().names
    full = _collect(ds)
    assert full.schema == m.schema
    assert full.equals(lake.read_table())

    web = [("source", "=", "web")]
    expr = pq.filters_to_expression(web)
    for v in (m.version - 1, m.version):
        want = _state(lake, v)
        assert _collect(lake.read(version=v)).equals(want)
        for columns in (None, ["doc_id", "n_tok"]):
            got = _collect(lake.read(columns=columns, version=v, filters=web))
            sel = want.filter(expr)
            assert 0 < got.num_rows < want.num_rows
            assert got.equals(sel.select(columns) if columns else sel)
