import pyarrow as pa
import pyarrow.compute as pc
import pytest

from nifi_ray.gen import GenConfig, events_table
from nifi_ray.stages.lww import collapse_last_writer, merge_into_base


def _naive_collapse(t: pa.Table) -> dict:
    best = {}
    for r in t.to_pylist():
        k = r["doc_id"]
        if k not in best or r["lsn"] > best[k]["lsn"]:
            best[k] = r
    return best


def test_collapse_matches_naive():
    t = events_table(GenConfig(seed=3, n_docs=30, n_events=500))
    got = collapse_last_writer(t)
    want = _naive_collapse(t)
    assert got.num_rows == len(want)
    for r in got.to_pylist():
        assert want[r["doc_id"]]["lsn"] == r["lsn"]
        assert want[r["doc_id"]]["tokens"] == r["tokens"]


@pytest.mark.parametrize("n_events", [600, 30000])
def test_collapse_multi_chunk_counts_align(n_events):
    """A multi-chunk table (one chunk per event file) gathers the right
    winner rows, and each row's ev_count is its own key's event count,
    including when the input already carries counts. 600 events take
    the small-chunk gather, 30000 the per-chunk filter."""
    from collections import Counter

    t = events_table(GenConfig(seed=4, n_docs=n_events // 15, n_events=n_events))
    a, b = n_events * 3 // 20, n_events // 2
    chunked = pa.concat_tables([t.slice(0, a), t.slice(a, b - a), t.slice(b)])
    assert chunked["doc_id"].num_chunks == 3
    got = collapse_last_writer(chunked, count_col="ev_count")
    want = _naive_collapse(t)
    n_ev = Counter(t["doc_id"].to_pylist())
    assert got.num_rows == len(want)
    for r in got.to_pylist():
        assert want[r["doc_id"]]["lsn"] == r["lsn"]
        assert want[r["doc_id"]]["tokens"] == r["tokens"]
        assert r["ev_count"] == n_ev[r["doc_id"]]
    third = n_events // 3
    parts = [collapse_last_writer(chunked.slice(o, third), count_col="ev_count")
             for o in (0, third, 2 * third)]
    again = collapse_last_writer(pa.concat_tables(parts), count_col="ev_count")
    assert again.sort_by("doc_id").equals(got.sort_by("doc_id"))


def test_collapse_associative():
    t = events_table(GenConfig(seed=3, n_docs=10, n_events=400))
    whole = collapse_last_writer(t).sort_by("doc_id")
    a = collapse_last_writer(t.slice(0, 150))
    b = collapse_last_writer(t.slice(150, 250))
    two_level = collapse_last_writer(pa.concat_tables([a, b])).sort_by("doc_id")
    assert whole.equals(two_level)


def test_merge_into_base_semantics():
    base = pa.table(
        {
            "doc_id": ["a", "b", "c"],
            "tokens": [[1], [2], [3]],
            "n_tok": pa.array([1, 1, 1], pa.int32()),
            "source": ["web", "web", "web"],
        }
    )
    events = pa.table(
        {
            "lsn": pa.array([10, 11, 12], pa.int64()),
            "op": ["U", "D", "I"],
            "doc_id": ["a", "b", "x"],
            "tokens": [[9, 9], None, [7]],
            "n_tok": pa.array([2, None, 1], pa.int32()),
            "source": ["code", None, "wiki"],
        }
    )
    out = merge_into_base(base, events).sort_by("doc_id")
    assert out["doc_id"].to_pylist() == ["a", "c", "x"]  # b deleted, x inserted
    assert out["tokens"].to_pylist() == [[9, 9], [3], [7]]


def test_delete_of_absent_is_noop():
    base = pa.table(
        {
            "doc_id": ["a"],
            "tokens": [[1]],
            "n_tok": pa.array([1], pa.int32()),
            "source": ["web"],
        }
    )
    events = pa.table(
        {
            "lsn": pa.array([5], pa.int64()),
            "op": ["D"],
            "doc_id": ["zzz"],
            "tokens": pa.array([None], pa.list_(pa.int32())),
            "n_tok": pa.array([None], pa.int32()),
            "source": pa.array([None], pa.string()),
        }
    )
    out = merge_into_base(base, events)
    assert out["doc_id"].to_pylist() == ["a"]
