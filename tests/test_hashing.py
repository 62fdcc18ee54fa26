import zlib

import numpy as np
import pyarrow as pa

from nifi_ray.util.hashing import (
    add_partition_column,
    crc32_of_strings,
    partition_of,
    state_checksum,
)


def test_crc32_matches_zlib():
    vals = ["", "a", "doc00000042", "héllo wörld", "x" * 300]
    got = crc32_of_strings(pa.array(vals))
    want = [zlib.crc32(v.encode()) for v in vals]
    assert got.tolist() == want


def test_crc32_chunked_and_sliced():
    arr = pa.chunked_array([pa.array(["aa", "bb"]), pa.array(["cc"])])
    assert crc32_of_strings(arr).tolist() == [zlib.crc32(b"aa"), zlib.crc32(b"bb"), zlib.crc32(b"cc")]
    sliced = pa.array(["xx", "yy", "zz"]).slice(1, 2)
    assert crc32_of_strings(sliced).tolist() == [zlib.crc32(b"yy"), zlib.crc32(b"zz")]


def test_partition_stable_and_in_range():
    ids = pa.array([f"doc{i:010d}" for i in range(1000)])
    p1 = partition_of(ids, 16)
    p2 = partition_of(ids, 16)
    assert (p1 == p2).all()
    assert p1.min() >= 0 and p1.max() < 16
    # roughly balanced
    counts = np.bincount(p1, minlength=16)
    assert counts.min() > 20


def test_add_partition_column():
    t = pa.table({"doc_id": ["a", "b"], "x": [1, 2]})
    out = add_partition_column(t, 8)
    assert out.schema.names == ["doc_id", "x", "partition_id"]
    assert out["partition_id"].type == pa.int32()


def test_state_checksum_order_insensitive():
    t1 = pa.table(
        {
            "doc_id": ["a", "b", "c"],
            "tokens": [[1, 2, 3], [4], []],
            "n_tok": pa.array([3, 1, 0], pa.int32()),
        }
    )
    t2 = t1.take(pa.array([2, 0, 1]))
    assert state_checksum(t1) == state_checksum(t2)
    t3 = pa.table(
        {
            "doc_id": ["a", "b", "c"],
            "tokens": [[1, 2, 4], [4], []],
            "n_tok": pa.array([3, 1, 0], pa.int32()),
        }
    )
    assert state_checksum(t1) != state_checksum(t3)
    assert state_checksum(t1.slice(0, 0)) == 0

# ---------------------------------------------------------------------
# batch-composition invariance (r3 VERDICT bug #2): a trailing row with
# an EMPTY token list must not corrupt the preceding row's hash — the
# clip-reduceat kernel truncated the previous segment. Each hash below
# must be a pure per-row function, identical whether rows are hashed
# together or one at a time.


def _tok_table(rows):
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in rows], pa.string()),
            "tokens": pa.array([t for _, t in rows], pa.list_(pa.int32())),
            "n_tok": pa.array([len(t or []) for _, t in rows], pa.int32()),
        }
    )


TRAILING_EMPTY = [("a", [1, 2, 3]), ("b", [])]
EMPTY_PATTERNS = [
    TRAILING_EMPTY,
    [("a", []), ("b", [5, 6])],
    [("a", [1]), ("b", []), ("c", []), ("d", [7, 8, 9])],
    [("a", [1, 2]), ("b", []), ("c", [])],
    [("a", []), ("b", [])],
]


def test_state_checksum_batch_composition_invariant():
    for rows in EMPTY_PATTERNS:
        whole = state_checksum(_tok_table(rows))
        xored = 0
        for r in rows:
            xored ^= state_checksum(_tok_table([r]))
        assert whole == xored, rows


def test_row_image_hash_batch_composition_invariant():
    from nifi_ray.util.hashing import row_image_hash

    cols = ["doc_id", "tokens", "n_tok"]
    for rows in EMPTY_PATTERNS:
        t = _tok_table(rows)
        whole = row_image_hash(t, cols)
        for i in range(len(rows)):
            single = row_image_hash(_tok_table([rows[i]]), cols)
            assert whole[i] == single[0], (rows, i)


def test_simhash_batch_composition_invariant():
    from nifi_ray.stages.dedup import SimHasher

    h = SimHasher()

    def sig(texts):
        t = pa.table({"text": pa.array(texts, pa.string())})
        return h(t)["simhash"].to_pylist()

    texts = ["hello world quick fox", "", "one two", "", ""]
    whole = sig(texts)
    singles = [sig([x])[0] for x in texts]
    assert whole == singles


def test_minhash_batch_composition_invariant():
    from nifi_ray.stages.dedup import MinHasher

    mh = MinHasher(col="text", id_col="doc_id", num_hashes=16, bands=4)
    texts = ["the quick brown fox jumps over the lazy dog", "", "tiny", ""]

    def sigs(ts):
        return mh._batch_signatures(pa.array(ts, pa.string()).to_pandas())

    whole = sigs(texts)
    for i, x in enumerate(texts):
        single = sigs([x])
        assert (whole[i] == single[0]).all(), i


def test_source_key_follows_file_bytes(tmp_path):
    """The cache key of a set of source files changes with any byte of
    any of them, and not with the order they are listed in."""
    from nifi_ray.util.hashing import source_key

    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("x = 1\n")
    b.write_text("y = 2\n")
    key = source_key([str(a), str(b)])
    assert key == source_key([str(b), str(a)])
    b.write_text("y = 3\n")
    assert source_key([str(a), str(b)]) != key
    b.write_text("y = 2\n")
    assert source_key([str(a), str(b)]) == key
