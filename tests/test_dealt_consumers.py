"""The lake's consumers (change feed, maintained view, near-dup and ANN
index builds, refreshes and candidate probe, export, replication) run
as dealt Ray tasks: no Ray Data executor starts in them, index patches
and probes run at most one task per CPU, and each task decodes every
tick file it needs once, however many of its partitions name the
file."""

import ast
import os
import re
import zlib
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data._internal.plan import ExecutionPlan

from nifi_ray.gen import GenConfig, write_base, write_events
from nifi_ray.pipelines import cdc as cdcmod
from nifi_ray.pipelines import dedup_index as dimod
from nifi_ray.pipelines.ann_index import (
    _load_manifest,
    _load_spec,
    _read_cell,
    create_ann_index,
    load_centroids,
    refresh_ann_index,
    token_embeddings,
)
from nifi_ray.pipelines.cdc import CDCLake, _diff_snapshots, _version_diff_plan
from nifi_ray.pipelines.dedup_index import (
    candidate_pairs_for,
    create_dedup_index,
    load_index_manifest,
    read_index_rows,
    refresh_dedup_index,
)
from nifi_ray.pipelines.replicate import replicate, verify_replica
from nifi_ray.schema import BASE_SCHEMA, EVENT_SCHEMA
from nifi_ray.util.scale import cluster_cpus

IDX_KW = dict(num_hashes=32, bands=8, num_buckets=16, seed=7)
ANN_KW = dict(dim=8, n_cells=4, seed=7, sample=64)
AGG = ("by_source", ["source"], ["n_tok", "token_sum"], [["token_sum", "list_sum", "tokens"]])


def _write(d: str, t: pa.Table) -> str:
    os.makedirs(d)
    pq.write_table(t, os.path.join(d, "part.parquet"))
    return d


def _events(lsns, ops, ids, tokss, sources) -> pa.Table:
    return pa.table(
        {
            "lsn": lsns,
            "op": ops,
            "doc_id": ids,
            "tokens": tokss,
            "n_tok": [len(x) for x in tokss],
            "source": sources,
        },
        schema=EVENT_SCHEMA,
    )


def _index_rows(lake) -> set:
    t = read_index_rows(lake, "nd")
    return set(zip(*(t[c].to_pylist() for c in ("doc_id", "band_id", "band_hash"))))


def _ann_docs(lake) -> dict:
    idx = _load_manifest(lake.lake_dir, "ann")
    dim = _load_spec(lake.lake_dir, "ann")["dim"]
    out = {}
    for entry in idx["buckets"].values():
        t = _read_cell(lake.lake_dir, entry, dim)
        out.update(zip(t["doc_id"].to_pylist(), t["emb_hash"].to_pylist()))
    return out


def _base(rng, n: int = 40) -> tuple[pa.Table, list]:
    toks = [rng.integers(0, 5000, size=60).tolist() for _ in range(n)]
    ids = [f"d{i:03d}" for i in range(n)]
    return pa.table(
        {
            "doc_id": ids,
            "tokens": toks,
            "n_tok": [len(t) for t in toks],
            "source": ["web", "news"] * (n // 2),
        },
        schema=BASE_SCHEMA,
    ), toks


def _rebuilt(lake, name: str) -> bool:
    """Every bucket file of the index's latest manifest is a base that
    a full build wrote at that version (a refresh tags its files
    ``-from``)."""
    idx = load_index_manifest(lake.lake_dir, name)
    return all(
        re.search(rf"/part-v{idx['version']:06d}\.parquet$", e["file"]) and not e["deltas"]
        for e in idx["buckets"].values()
    )


def test_consumers_start_no_ray_data_executor(ray_session, tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    base, toks = _base(rng)
    bd = _write(str(tmp_path / "b"), base)
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=4)
    rep = str(tmp_path / "replica")

    # tick 1: updates, a delete and an insert; tick 2: a near-dup of
    # d007 (two edited tokens) and a novel doc
    e1 = _events(
        [1, 2, 3, 4], ["U", "U", "D", "I"], ["d001", "d002", "d003", "new0"],
        [[900, 901, 902], [903, 904], [1], [910, 911, 912]],
        ["web", "news", "web", "news"],
    )
    dup = list(toks[7])
    dup[0], dup[-1] = 9999, 9998
    novel = rng.integers(10000, 15000, size=60).tolist()
    e2 = _events(
        [5, 6], ["I", "I"], ["dup-of-d007", "novel-doc"], [dup, novel], ["web", "web"]
    )
    out = str(tmp_path / "shards")

    def boom(*a, **kw):
        raise AssertionError("a Ray Data executor started")

    with monkeypatch.context() as mp:
        mp.setattr(ray.data, "from_items", boom)
        for op in ("map_batches", "groupby", "write_parquet", "count"):
            mp.setattr(ray.data.Dataset, op, boom)
        mp.setattr(ExecutionPlan, "create_executor", boom)
        lake.create_aggregate(*AGG)
        create_dedup_index(lake, "nd", **IDX_KW)
        create_ann_index(lake, "ann", **ANN_KW)
        assert replicate(lake, rep)["mode"] == "bootstrap"
        lake.replay(_write(str(tmp_path / "e1"), e1), mode="delta")
        v1 = lake.manifest().version
        # a forced rebuild of both indexes, then a patching refresh
        refresh_dedup_index(lake, "nd", max_delta_rows=1)
        refresh_ann_index(lake, "ann", max_delta_rows=1)
        assert _rebuilt(lake, "nd") and _rebuilt(lake, "ann")
        lake.replay(_write(str(tmp_path / "e2"), e2), mode="delta")
        view = lake.refresh_aggregate("by_source")
        refresh_dedup_index(lake, "nd")
        refresh_ann_index(lake, "ann")
        assert not _rebuilt(lake, "nd") and not _rebuilt(lake, "ann")
        pairs = candidate_pairs_for(lake, "nd", v1, verify_threshold=0.5)
        stats = lake.export_shards(out, max_len=64)
        r = replicate(lake, rep)
        assert r["mode"] == "incremental" and r["applied"]
        assert verify_replica(lake, CDCLake(rep))["match"]
        state = lake.read_table()
    assert CDCLake(rep).read_table().equals(state)

    exp: dict = {}
    for src, n_tok, tks in zip(
        state["source"].to_pylist(), state["n_tok"].to_pylist(), state["tokens"].to_pylist()
    ):
        n, s_ntok, s_tok = exp.get(src, (0, 0, 0))
        exp[src] = (n + 1, s_ntok + n_tok, s_tok + sum(tks))
    got = zip(*(view[c].to_pylist() for c in ("source", "n_docs", "sum_n_tok", "sum_token_sum")))
    assert {s: tuple(r) for s, *r in got} == exp

    # both maintained indexes equal a build from scratch at the final state
    scratch = CDCLake(str(tmp_path / "scratch"))
    scratch.init_from(bd, num_partitions=4)
    scratch.replay(str(tmp_path / "e1"), mode="delta")
    scratch.replay(str(tmp_path / "e2"), mode="delta")
    create_dedup_index(scratch, "nd", **IDX_KW)
    create_ann_index(scratch, "ann", **ANN_KW)
    assert _index_rows(lake) == _index_rows(scratch)
    assert _ann_docs(lake) == _ann_docs(scratch)

    assert set(zip(pairs["a"].to_pylist(), pairs["b"].to_pylist())) == {
        ("d007", "dup-of-d007")
    }

    # each shard is the concat-and-chunk of its partition's docs in
    # doc_id order
    per_shard = {k: [] for k in range(4)}
    for doc_id, tks in zip(state["doc_id"].to_pylist(), state["tokens"].to_pylist()):
        per_shard[zlib.crc32(doc_id.encode()) % 4].extend(tks)
    assert sorted(s["shard"] for s in stats) == [0, 1, 2, 3]
    for s in stats:
        t = pq.read_table(os.path.join(out, s["file"]))
        assert [x for seq in t["tokens"].to_pylist() for x in seq] == per_shard[s["shard"]]
        assert t.num_rows == s["n_seqs"] and s["written"]


def test_each_tick_file_decoded_once_per_task(ray_session, tmp_path, monkeypatch):
    cfg = GenConfig(seed=21, n_docs=400, n_events=1500)
    bd, ed = str(tmp_path / "b"), str(tmp_path / "e")
    write_base(cfg, bd, shards=1)
    write_events(cfg, ed, shards=3)
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=8)
    for hi in (500, 1000, 1500):
        lake.replay(ed, lsn_hi=hi, mode="delta")
    m1, m4 = lake.manifest(1), lake.manifest(4)
    ticks = {d for e in m4.partitions.values() for d in e["deltas"]}
    # tick files are shared: fewer files than partitions name
    assert len(ticks) < sum(len(e["deltas"]) for e in m4.partitions.values())

    reads: Counter = Counter()
    read_part = cdcmod._read_part

    def counting(path, *a, **kw):
        reads[os.path.relpath(path, lake.lake_dir)] += 1
        return read_part(path, *a, **kw)

    monkeypatch.setattr(cdcmod, "_read_part", counting)
    items, same_p = _version_diff_plan(m1, m4)
    assert same_p and len(items) == 8
    feed = cdcmod._diff_task._function(lake.lake_dir, m4.schema, None, items, _diff_snapshots)
    assert {f: reads[f] for f in ticks} == {f: 1 for f in ticks}
    assert feed.num_rows > 0

    reads.clear()
    parts = [(k, e["file"], cdcmod._delta_refs(e)) for k, e in sorted(m4.partitions.items())]
    rows = cdcmod._export_task._function(
        lake.lake_dir, m4.schema, str(tmp_path / "shards"), 64, parts
    )
    assert len(rows) == 8
    assert {f: reads[f] for f in ticks} == {f: 1 for f in ticks}


def test_refresh_patches_all_buckets_in_at_most_one_task_per_cpu(
    ray_session, tmp_path, monkeypatch
):
    """A refresh that touches every bucket deals them over at most one
    patch task per CPU, not one task per bucket, and the patched index
    equals a fresh build."""
    rng = np.random.default_rng(5)
    base, _ = _base(rng)
    bd = _write(str(tmp_path / "b"), base)
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(bd, num_partitions=4)
    create_dedup_index(lake, "nd", **IDX_KW)
    ids = [f"d{i:03d}" for i in range(30)]
    ev = _events(
        list(range(1, 31)), ["U"] * 30, ids,
        [rng.integers(20000, 25000, size=40).tolist() for _ in ids], ["web"] * 30,
    )
    ed = _write(str(tmp_path / "e"), ev)
    lake.replay(ed, mode="delta")

    real, calls = dimod._patch_task, []

    class Spy:
        def remote(self, lake_dir, runs, *a):
            calls.append([b for b, *_ in runs])
            return real.remote(lake_dir, runs, *a)

    monkeypatch.setattr(dimod, "_patch_task", Spy())
    refresh_dedup_index(lake, "nd")
    touched = [b for run in calls for b in run]
    assert sorted(touched) == list(range(IDX_KW["num_buckets"]))
    assert 1 < len(calls) <= cluster_cpus()

    fresh = CDCLake(str(tmp_path / "fresh"))
    fresh.init_from(bd, num_partitions=4)
    fresh.replay(ed, mode="delta")
    create_dedup_index(fresh, "nd", **IDX_KW)
    assert _index_rows(lake) == _index_rows(fresh)


def test_ann_training_sample_is_bounded_per_partition(
    ray_session, tmp_path, monkeypatch
):
    """The quantizer trains on the lake's first ``sample`` doc_ids, but
    the driver receives only each scan partition's own first
    ``sample`` rows, never the whole lake."""
    from nifi_ray.stages.similarity import kmeans_lite

    rng = np.random.default_rng(6)
    base, _ = _base(rng, n=200)
    lake = CDCLake(str(tmp_path / "lake"))
    lake.init_from(_write(str(tmp_path / "b"), base), num_partitions=4)
    P, sample = 4, 8

    real_get, seen = ray.get, []

    def counting(refs, *a, **kw):
        out = real_get(refs, *a, **kw)
        for t in out if isinstance(out, list) else [out]:
            if isinstance(t, pa.Table) and "tokens" in t.column_names:
                seen.append(t.num_rows)
        return out

    monkeypatch.setattr(ray, "get", counting)
    create_ann_index(lake, "ann", dim=8, n_cells=4, seed=7, sample=sample)
    monkeypatch.undo()
    assert 0 < sum(seen) <= P * sample

    head = base.sort_by("doc_id").slice(0, sample)
    want = kmeans_lite(
        token_embeddings(head["doc_id"], head["tokens"], 8, 7), n_cells=4, seed=7
    )
    assert np.array_equal(load_centroids(lake.lake_dir, "ann"), want)


def test_ray_data_imported_only_by_the_dataset_returning_reads():
    """Across the lake and its consumers only ``CDCLake.read`` and
    ``CDCLake.changes`` import ``ray.data`` (they return a Dataset);
    every other path runs on raw Ray tasks, and the consumers name no
    Dataset shuffle, transform or sink."""
    root = os.path.join(os.path.dirname(__file__), "..", "nifi_ray", "pipelines")
    dataset_ops = {
        "groupby", "map_groups", "map_batches", "write_parquet", "drop_schemaless_empties"
    }
    found, used = set(), set()
    for mod in ("cdc", "matview", "dedup_index", "ann_index", "replicate"):
        tree = ast.parse(open(os.path.join(root, f"{mod}.py")).read())
        if mod != "cdc":
            used |= {
                f"{mod}:{n.attr if isinstance(n, ast.Attribute) else n.id}"
                for n in ast.walk(tree)
                if (isinstance(n, ast.Attribute) and n.attr in dataset_ops)
                or (isinstance(n, ast.Name) and n.id in dataset_ops)
            }

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                names = []
                if isinstance(child, ast.Import):
                    names = [a.name for a in child.names]
                elif isinstance(child, ast.ImportFrom) and child.module:
                    names = [child.module] + [f"{child.module}.{a.name}" for a in child.names]
                if any(n == "ray.data" or n.startswith("ray.data.") for n in names):
                    found.add(f"{mod}:{'.'.join(scope)}")
                visit(child, scope)

        visit(tree, [])
    assert found == {"cdc:CDCLake.read", "cdc:CDCLake.changes"}
    assert used == set()
