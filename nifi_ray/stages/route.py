"""Multi-way routing — RouteOnAttribute / RouteOnContent semantics.

NiFi routes each FlowFile to named relationships by evaluating dynamic
EL predicates, with three strategies (reference
nifi-standard-processors/.../standard/RouteOnAttribute.java:70-110):
- Route to Property name (copy to EVERY matching relationship)
- Route to 'matched' if all match / if any matches

Ray-Data-first expression: a Dataset is ONE stream, so routing becomes
either (a) a ``route`` column stamped in a vectorized map_batches and
consumed by downstream group-wise logic, or (b) N filtered views of the
same (lazy) Dataset — Ray re-executes the shared prefix per view unless
the caller materializes, which mirrors NiFi's copy-per-relationship
only when asked for.
"""

from __future__ import annotations

from typing import Callable, Mapping

import pyarrow as pa
import pyarrow.compute as pc

Predicate = Callable[[pa.Table], pa.Array]  # batch → bool array

UNMATCHED = "unmatched"


def stamp_route(
    routes: Mapping[str, Predicate], strategy: str = "first", out: str = "route"
):
    """map_batches body: add a ``route`` column.

    strategy="first": first matching named predicate wins (single-label).
    strategy="all"/"any": NiFi's all-match/any-match → label is
    "matched"/"unmatched".
    """
    names = list(routes)

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if strategy == "first":
            label = pa.nulls(n, pa.string())
            assigned = pa.array([False] * n)
            for name in names:
                mask = pc.and_not(routes[name](batch), assigned)
                label = pc.if_else(mask, pa.scalar(name), label)
                assigned = pc.or_(assigned, mask)
            label = pc.if_else(assigned, label, pa.scalar(UNMATCHED))
        else:
            masks = [routes[name](batch) for name in names]
            acc = masks[0]
            for m2 in masks[1:]:
                acc = pc.and_(acc, m2) if strategy == "all" else pc.or_(acc, m2)
            label = pc.if_else(acc, pa.scalar("matched"), pa.scalar(UNMATCHED))
        return batch.append_column(out, label)

    return fn


def distribute_load(weights: list[int], out: str = "bucket", key: str | None = None):
    """DistributeLoad analog (reference nifi-standard-processors/.../
    standard/DistributeLoad.java): assign each row to one of
    ``len(weights)`` buckets proportionally to the weights. With
    ``key`` the assignment is DETERMINISTIC (hash(key) into the
    cumulative-weight wheel — replays land identically and the bucket
    doubles as a partition key); without it, round-robin by row
    position within each batch (the reference's rotating strategy —
    stateless across batches by design: weighted balance holds per
    batch, which is what matters when batches are large)."""
    import numpy as np
    import pyarrow.compute as pc

    w = np.asarray(weights, np.int64)
    if len(w) == 0 or (w <= 0).any():
        raise ValueError("weights must be positive")
    total = int(w.sum())
    cum = np.cumsum(w)  # wheel boundaries

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if key is not None:
            h = pc.cast(
                pc.bit_wise_and(
                    pc.multiply_checked(
                        pc.cast(batch[key], pa.int64()), pa.scalar(2654435761, pa.int64())
                    ),
                    pa.scalar((1 << 62) - 1, pa.int64()),
                ),
                pa.int64(),
            ).to_numpy(zero_copy_only=False)
            slot = h % total
        else:
            slot = np.arange(n, dtype=np.int64) % total
        bucket = np.searchsorted(cum, slot, side="right")
        return batch.append_column(out, pa.array(bucket, pa.int64()))

    return fn
