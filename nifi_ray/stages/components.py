"""Connected components over a pair/edge Dataset — near-dup GROUPS.

The MinHash/SimHash pipelines end at verified pairs (a, b); dedup
policy needs components ("keep the smallest doc_id of each duplicate
cluster"). Distributed min-label propagation (the standard iterative
construction, e.g. the 'hash-to-min' family from the MapReduce
connected-components literature):

    label(v) ← min(label(v), min over neighbours' labels)

iterated via groupby until fixpoint. Each round shuffles only
(node, label) pairs — never payloads. Converges in O(diameter) rounds;
near-dup clusters are tiny cliques, so 2-3 rounds in practice; the
loop stops on a no-change round, with a bounded max.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..util.io import drop_schemaless_empties


def connected_components_ds(pairs, max_rounds: int = 16):
    """Distributed min-label propagation: pairs is a Dataset of {a, b}
    edges; returns a Dataset of {node, component}. Edges and labels stay
    Datasets throughout — nothing is materialized on the driver (the
    corpus-scale path promised by connected_components' docstring).

    Each round shuffles only (node, label) rows:
      msgs:   edge (u,v) + u's current label → (v, label_u)   [1 join]
      labels: min(own label, min incoming msg)                 [1 groupby]
    Convergence = a round where the summed label change count is 0
    (labels only ever decrease, so sum-of-changes is an exact signal).
    O(diameter) rounds; near-dup clusters are tiny cliques → 2-3.
    """
    import ray.data as rd

    def both_dirs(batch: pa.Table) -> pa.Table:
        fwd = pa.table({"u": batch["a"], "v": batch["b"]})
        rev = pa.table({"u": batch["b"], "v": batch["a"]})
        return pa.concat_tables([fwd, rev])

    edges = pairs.map_batches(both_dirs, batch_format="pyarrow").materialize()

    def init_labels(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["u"], "label": batch["u"]})

    # strip schema-less empty blocks after every groupby/map_groups —
    # they would otherwise flow INTO the next round's join, whose Arrow
    # kernel rejects blocks lacking the key field ("No match … for key
    # field reference" — visible at elevated partition counts where most
    # hash partitions are empty)
    labels = drop_schemaless_empties(
        edges.map_batches(init_labels, batch_format="pyarrow")
        .groupby("node")
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
    ).materialize()

    from .joins import lookup_join

    # bound labels' block count across rounds: each union+groupby pass
    # ADDS tiny blocks (empty-partition stripping keeps them small, not
    # few), so without this the per-round task count — and wall time —
    # grows with the round number (same pathology measured in
    # pagerank_ds: 32→128→224 blocks). Coalescing repartition, no
    # shuffle.
    nb_labels = max(1, labels.num_blocks())

    for _ in range(max_rounds):
        # propagate: attach u's label to each edge, emit to v. Sort-
        # exchange lookup_join, not Dataset.join — the hash-join
        # aggregator fails on the empty hash partitions that label
        # propagation guarantees (few live keys, cluster-many partitions)
        msgs = lookup_join(edges, labels, "u", "node", how="inner").map_batches(
            lambda t: pa.table({"node": t["v"], "cand": t["label"]}),
            batch_format="pyarrow",
        )
        merged = drop_schemaless_empties(
            labels.map_batches(
                lambda t: pa.table({"node": t["node"], "cand": t["label"]}),
                batch_format="pyarrow",
            )
            .union(msgs)
            .groupby("node")
            .map_groups(
                lambda g: pa.table(
                    {"node": g["node"].slice(0, 1), "label": [pc.min(g["cand"]).as_py()]}
                ),
                batch_format="pyarrow",
            )
        ).repartition(nb_labels).materialize()
        # exact convergence check: labels only decrease, so any change
        # shows as a differing (node, label) pair between rounds
        changed = (
            labels.map_batches(
                lambda t: pa.table({"node": t["node"], "cand": t["label"]}),
                batch_format="pyarrow",
            )
            .union(
                merged.map_batches(
                    lambda t: pa.table({"node": t["node"], "cand": t["label"]}),
                    batch_format="pyarrow",
                )
            )
            .groupby("node")
            .map_groups(
                lambda g: pa.table(
                    {"n_distinct": [len(pc.unique(g["cand"]))]}
                ),
                batch_format="pyarrow",
            )
            .map_batches(
                lambda t: pa.table(
                    {"changed": [int(pc.sum(pc.greater(t["n_distinct"], 1)).as_py() or 0)]}
                ),
                batch_format="pyarrow",
            )
            .sum("changed")
        )
        labels = merged
        if not changed:
            break
    return labels.map_batches(
        lambda t: pa.table({"node": t["node"], "component": t["label"]}),
        batch_format="pyarrow",
    )


def connected_components(pairs, max_rounds: int = 10):
    """pairs: Dataset of {a, b} string/int edges. Returns Dataset of
    {node, component} where component = min node id reachable.

    Driver-side iteration over a small (node, label) table: the label
    table is ≤ the number of DISTINCT nodes appearing in any verified
    duplicate pair — orders of magnitude smaller than the corpus, so
    materializing it on the driver is the documented scale assumption.
    ``connected_components_ds`` is the corpus-scale variant (labels and
    edges stay Datasets; same semantics, one join + one groupby per
    round).
    """
    import pandas as pd

    edges = pairs.to_pandas()
    if len(edges) == 0:
        return pd.DataFrame({"node": [], "component": []})
    # undirected: duplicate both directions
    fwd = edges.rename(columns={"a": "u", "b": "v"})
    rev = edges.rename(columns={"a": "v", "b": "u"})
    e = pd.concat([fwd, rev], ignore_index=True)
    label = pd.Series(
        index=pd.unique(pd.concat([e["u"], e["v"]])), dtype=object
    )
    label[:] = label.index
    for _ in range(max_rounds):
        neigh = e.assign(nl=label[e["v"]].values).groupby("u")["nl"].min()
        new = label.copy()
        upd = neigh[neigh < label[neigh.index]]
        if len(upd) == 0:
            break
        new[upd.index] = upd
        label = new
    out = pd.DataFrame({"node": label.index, "component": label.values})
    return out.sort_values("node").reset_index(drop=True)


# ---------------------------------------------------------- PageRank


def round_away(v, dp: int):
    """DuckDB-exact decimal rounding (round-half-away, one fp divide).
    np-vectorized; used by BOTH the distributed PageRank and its
    sequential oracle so every iteration's rank vector is
    bit-identical across the two implementations."""
    import numpy as np

    s = 10.0 ** dp
    return np.sign(v) * np.floor(np.abs(v) * s + 0.5) / s


def pagerank_ds(edges, iters: int = 5, damping: float = 0.85, dp: int = 12):
    """Distributed PageRank over an edge Dataset {src, dst} (edges must
    be distinct; uniform out-edge weights, dangling mass redistributed
    to all nodes). Returns a Dataset of {node, r}.

    Determinism contract (the kmeans_full pattern): each per-dst
    contribution reduction sorts by src before one np.sum, the dangling
    mass sums over dangling nodes in node order, and the rank vector is
    rounded to ``dp`` decimals (round-half-away) between iterations —
    so the float path is order-canonical and the sequential oracle
    reproduces it bit-for-bit.

    Scale shape: per iteration ONE sort-exchange join (ranks onto
    edges by src) and ONE groupby(dst) reduction — both move O(edges)
    slim rows; ranks/nodes/degrees stay Datasets. The dangling-node
    rank fetch is the one driver-side touch: it collects ranks for
    no-out-edge nodes only (sorted-order canonical sum); at web scale
    that set is small relative to the corpus, and the seam would become
    a sorted-segment tree reduction.
    """
    import numpy as np
    import ray.data as rd  # noqa: F401

    from .joins import lookup_join

    # edges feeds four pre-loop derivations (nodes/outdeg/dangling/
    # edges_deg) — pin it once instead of re-running its upstream
    # pipeline per consumer
    edges = edges.materialize()

    def flat_nodes(t: pa.Table) -> pa.Table:
        both = pa.concat_tables(
            [pa.table({"node": t["src"]}), pa.table({"node": t["dst"]})]
        )
        return both.group_by(["node"]).aggregate([])

    nodes = drop_schemaless_empties(
        edges.map_batches(flat_nodes, batch_format="pyarrow")
        .groupby("node")
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
    ).materialize()
    N = nodes.count()

    outdeg = drop_schemaless_empties(
        edges.groupby("src")
        .count()
        .map_batches(
            lambda t: pa.table(
                {"node": t["src"], "deg": pc.cast(t["count()"], pa.float64())}
            ),
            batch_format="pyarrow",
        )
    ).materialize()

    # dangling set: nodes with no out-edges (canonical node order)
    dang_t = (
        lookup_join(nodes, outdeg, "node", "node", how="left")
        .map_batches(
            lambda t: t.filter(pc.is_null(t["deg"])).select(["node"]),
            batch_format="pyarrow",
        )
    )
    dangling = sorted(r["node"] for r in dang_t.take_all())
    dang_set = set(dangling)

    r0 = float(round_away(1.0 / N, dp))
    nb_ranks = max(1, nodes.num_blocks())
    ranks = nodes.map_batches(
        lambda t: t.append_column("r", pa.array([r0] * t.num_rows, pa.float64())),
        batch_format="pyarrow",
    ).materialize()

    edges_deg = lookup_join(edges, outdeg, "src", "node", how="inner").materialize()
    d = damping

    def dst_sum(g: pa.Table) -> pa.Table:
        g = g.sort_by("src")
        contrib = (
            g["r"].to_numpy(zero_copy_only=False)
            / g["deg"].to_numpy(zero_copy_only=False)
        )
        return pa.table({"node": g["dst"].slice(0, 1), "s": [float(np.sum(contrib))]})

    # dangling-rank filter pushed into map_batches (pc.is_in on this
    # broadcast value set) so only O(|dangling|) rows ever reach the
    # driver — never a full ranks scan (r4 ADVICE)
    dang_arr = pa.array(dangling) if dangling else None

    for _ in range(iters):
        if dang_set:
            dvals = {
                row["node"]: row["r"]
                for row in ranks.map_batches(
                    lambda t: t.filter(pc.is_in(t["node"], value_set=dang_arr)),
                    batch_format="pyarrow",
                ).take_all()
            }
            dangling_sum = float(np.sum(np.array([dvals[n] for n in dangling])))
        else:
            dangling_sum = 0.0
        j = lookup_join(edges_deg, ranks, "src", "node", how="inner")
        sums = drop_schemaless_empties(
            j.groupby("dst").map_groups(dst_sum, batch_format="pyarrow")
        )
        merged = lookup_join(nodes, sums, "node", "node", how="left")

        def new_rank(t: pa.Table, _N=N, _ds=dangling_sum) -> pa.Table:
            s = pc.fill_null(t["s"], 0.0).to_numpy(zero_copy_only=False)
            r = round_away((1.0 - d) / _N + d * (s + _ds / _N), dp)
            return pa.table({"node": t["node"], "r": pa.array(r, pa.float64())})

        # every join/groupby pass ADDS blocks (empty-partition stripping
        # keeps them tiny, not few); without a bound, ranks' block count
        # grows linearly per iteration and task-scheduling overhead
        # superlinearly (measured 32→128→224 blocks, 49 s/iter at
        # sf0.001). Coalescing repartition (no shuffle) pins it.
        ranks = (
            merged.map_batches(new_rank, batch_format="pyarrow")
            .repartition(nb_ranks)
            .materialize()
        )
    return ranks
