"""Footer-only statistics scan — COUNT/MIN/MAX from parquet metadata.

The zone-map read: every parquet row group carries exact per-column
statistics in the file FOOTER, so table-level ``count(*)``/``min``/
``max`` over numeric columns needs ZERO data pages — the scan cost is
one footer read per file regardless of table size. At 100 TB this is
the difference between a multi-minute full scan and a sub-second
metadata walk; it is the same footer machinery the lake already uses
for LSN file pruning (sources/binlog.py) and predicate row-group
pruning (CDCLake.read(filters=...)), exposed as a standalone operator.

Reference analog: NiFi has no statistics scan — the closest shape is
counters aggregated from per-task partials
(nifi-api/.../processor/ProcessSession.java:161 adjustCounter); here
the "partial" is the file footer itself.

Caveats enforced loudly: only numeric columns are allowed (parquet
string stats may be TRUNCATED by writers, so min/max on strings is not
trustworthy), and any row group with missing/unset statistics raises —
falling back silently to a data scan would misreport the scan cost.
"""

from __future__ import annotations

import pyarrow as pa


def footer_stats(paths: list[str], columns: list[str]):
    """Distributed footer-statistics scan: one Ray task per parquet
    file emits a single partial row (n_rows + per-column min/max from
    row-group stats); the tiny partials merge in one ``map_batches``
    reduction on the driver side of the exchange. Returns a Dataset
    with ONE row: ``n_rows``, ``min_<col>``, ``max_<col>``.
    """
    import ray

    def per_file(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        from .binlog import row_group_stats

        out_rows = []
        for path in batch["path"].to_pylist():
            md = pq.ParquetFile(path).metadata
            row = {"n_rows": md.num_rows}
            for c in columns:
                stats = row_group_stats(md, c)
                for rg, (lo, hi, _) in enumerate(stats):
                    if lo is None or hi is None:
                        raise ValueError(
                            f"footer_stats: {path} row group {rg} has no "
                            f"min/max statistics for {c!r}"
                        )
                row[f"min_{c}"] = min(s[0] for s in stats)
                row[f"max_{c}"] = max(s[1] for s in stats)
            out_rows.append(row)
        cols = {k: [r[k] for r in out_rows] for k in out_rows[0]}
        return pa.table(cols)

    for c in columns:
        # string stats may be writer-truncated; refuse rather than lie
        import pyarrow.parquet as pq

        sch = pq.read_schema(paths[0])
        t = sch.field(c).type
        if not (pa.types.is_integer(t) or pa.types.is_floating(t)
                or pa.types.is_temporal(t)):
            raise TypeError(
                f"footer_stats: column {c!r} has type {t} — only numeric/"
                "temporal columns have trustworthy parquet min/max stats"
            )

    partials = ray.data.from_items([{"path": p} for p in paths]).map_batches(
        per_file, batch_format="pyarrow"
    )

    def merge(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols: dict[str, list] = {"n_rows": [pc.sum(t["n_rows"]).as_py()]}
        for c in columns:
            cols[f"min_{c}"] = [pc.min(t[f"min_{c}"]).as_py()]
            cols[f"max_{c}"] = [pc.max(t[f"max_{c}"]).as_py()]
        return pa.table(cols)

    # the exchange moves one tiny row per FILE — repartition(1) + merge
    return partials.repartition(1).map_batches(merge, batch_format="pyarrow")
