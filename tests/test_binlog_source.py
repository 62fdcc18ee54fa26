import os

import pyarrow as pa
import pyarrow.parquet as pq

from nifi_ray.gen import GenConfig, events_table, write_events
from nifi_ray.sources.binlog import (
    check_lsn_continuity,
    file_lsn_range,
    list_event_files,
    prune_event_files,
)

CFG = GenConfig(seed=5, n_docs=50, n_events=1000)


def test_file_lsn_range(tmp_path):
    paths = write_events(CFG, str(tmp_path), shards=4)
    lo, hi = file_lsn_range(paths[0])
    assert lo == 1
    assert hi == 250
    lo, hi = file_lsn_range(paths[3])
    assert hi == 1000


def test_prune_skips_applied_files(tmp_path):
    paths = write_events(CFG, str(tmp_path), shards=4)
    kept, st = prune_event_files(paths, watermark=500)
    assert st.total == 4 and st.skipped_by_footer == 2
    assert [os.path.basename(f.path) for f in kept] == [
        "events-00002.parquet",
        "events-00003.parquet",
    ]
    # upper bound prune too
    kept2, st2 = prune_event_files(paths, watermark=0, lsn_hi=250)
    assert len(kept2) == 1


def test_prune_keeps_statless_files(tmp_path):
    t = events_table(CFG, 0, 10)
    p = str(tmp_path / "nostats.parquet")
    pq.write_table(t, p, write_statistics=False)
    kept, _ = prune_event_files([p], watermark=10**9)
    # cannot prove applied → must keep, every row group planned
    assert [(f.path, f.row_groups) for f in kept] == [(p, [0])]


def test_continuity(tmp_path):
    paths = write_events(CFG, str(tmp_path), shards=4)
    ok, gaps = check_lsn_continuity(paths, expect_from=0)
    assert ok and not gaps
    # remove a middle file → gap detected
    os.remove(paths[1])
    ok, gaps = check_lsn_continuity(list_event_files(str(tmp_path)), expect_from=0)
    assert not ok
    assert gaps == [(250, 501)]
