"""WAL/binlog-tail source: incremental, watermark-bounded event reads.

Semantics recreated from the reference (NOT the implementation):

- TailFile resumes a rolling file from a checkpointed position and
  detects rollover (reference
  nifi-standard-processors/.../standard/TailFile.java:463-527): here the
  "position" is the lake's ``applied_through`` LSN and "rollover" is a
  new event file appearing in the log directory.
- QueryDatabaseTable issues ``WHERE maxcol > $state`` with the state in
  Scope.CLUSTER (reference
  nifi-standard-processors/.../standard/QueryDatabaseTable.java:186-348):
  here the predicate plans row groups from the footer's per-row-group
  lsn min/max and null counts (``prune_event_files``), and the reader
  filters only the row groups that straddle the range.
- ListFile's listing watermark (only newer files re-listed, reference
  nifi-standard-processors/.../standard/AbstractListProcessor.java:148-316):
  here whole files are skipped via their Parquet FOOTER max(lsn)
  statistics — no data pages are read for fully-applied files.

Every statistics read goes through one kernel, ``row_group_stats``.

At 100 TB the footer prune is load-bearing: a tail poll that has to
open yesterday's event files is a non-starter; metadata-only pruning
makes each tick O(new data).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import pyarrow as pa
import pyarrow.parquet as pq


@dataclass
class FilePruneStats:
    total: int
    kept: int
    skipped_by_footer: int


class EventFile(NamedTuple):
    """A kept event file of a tick plan and the row groups it reads."""
    path: str
    schema: pa.Schema
    row_groups: list[int]


def list_event_files(path: str | list[str]) -> list[str]:
    """Expand a log directory (or explicit paths) into sorted parquet files."""
    if isinstance(path, str):
        paths = [path]
    else:
        paths = list(path)
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(
                os.path.join(p, f)
                for f in sorted(os.listdir(p))
                if f.endswith(".parquet")
            )
        else:
            out.append(p)
    return out


def row_group_stats(
    md: pq.FileMetaData, column: str
) -> list[tuple[object, object, int | None]]:
    """Per row group ``(min, max, null_count)`` of ``column`` from a
    parquet footer, ``None`` where the statistics are missing (every
    entry of a file without the column). The one place the engine
    reads Parquet column statistics."""
    ci = next(
        (i for i in range(md.num_columns) if md.schema.column(i).path == column), -1
    )
    out = []
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(ci).statistics if ci >= 0 else None
        mm = (st.min, st.max) if st is not None and st.has_min_max else (None, None)
        out.append((*mm, st.null_count if st is not None and st.has_null_count else None))
    return out


def _min_max(stats) -> tuple:
    """File-level (min, max) of ``row_group_stats``; (None, None) when
    any row group lacks them — no stats → cannot prune safely."""
    if not stats or any(lo is None or hi is None for lo, hi, _ in stats):
        return None, None
    return min(s[0] for s in stats), max(s[1] for s in stats)


def file_lsn_range(path: str, column: str = "lsn") -> tuple[int | None, int | None]:
    """(min, max) of ``column`` from the parquet footer statistics only."""
    return _min_max(row_group_stats(pq.read_metadata(path), column))


def prune_event_files(
    paths: list[str], watermark: int, lsn_hi: int | None = None
) -> tuple[list[EventFile], FilePruneStats]:
    """The tick plan: one footer read per listed file. A file is skipped
    whole when its lsn range lies at or below ``watermark`` or above
    ``lsn_hi``. A kept file selects the row groups whose statistics are
    missing, that hold null LSNs (quarantined on read), or whose
    [min, max] overlaps (watermark, lsn_hi]."""
    kept = []
    for p in paths:
        md = pq.read_metadata(p)
        stats = row_group_stats(md, "lsn")
        lo, hi = _min_max(stats)
        if hi is not None and hi <= watermark:
            continue
        if lsn_hi is not None and lo is not None and lo > lsn_hi:
            continue
        row_groups = [
            i for i, (a, b, nulls) in enumerate(stats)
            if a is None or nulls is None or nulls > 0
            or (b > watermark and (lsn_hi is None or a <= lsn_hi))
        ]
        kept.append(EventFile(p, md.schema.to_arrow_schema(), row_groups))
    return kept, FilePruneStats(
        total=len(paths), kept=len(kept), skipped_by_footer=len(paths) - len(kept)
    )


def check_lsn_continuity(
    paths: list[str], expect_from: int
) -> tuple[bool, list[tuple[int, int]]]:
    """TailFile's checksum-resume analog: verify the file set covers a
    contiguous LSN range starting at ``expect_from`` (gaps are allowed
    by the LSN contract but a MISSING FILE between watermark and the
    first available lsn means lost events). Returns (ok, gaps) where
    gaps are (covered_up_to, next_available) holes between files."""
    ranges = sorted(
        r for p in paths if (r := file_lsn_range(p)) and r[0] is not None
    )
    gaps: list[tuple[int, int]] = []
    cur = expect_from
    for lo, hi in ranges:
        if lo > cur + 1:
            gaps.append((cur, lo))
        cur = max(cur, hi)
    return not gaps, gaps
