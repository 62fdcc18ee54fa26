"""Stable, vectorized hashing for partitioning and dedup keys.

The lake's on-disk layout is keyed by ``hash(doc_id) % num_partitions``,
so the hash MUST be stable across processes, Python versions and library
upgrades (Python's builtin ``hash`` is salted; polars' hash is not
version-stable). We use CRC32 (the zlib polynomial), implemented as a
table-driven kernel vectorized ACROSS rows with numpy: the padded byte
matrix is walked column-by-column, so cost is O(max_len) vectorized
passes — doc_ids are short (~11 bytes), so this is ~11 numpy ops per
batch regardless of row count.

NiFi analog: HashAttribute/HashContent (reference
nifi-standard-processors/.../standard/HashAttribute.java,
HashContent.java) provide the digest-of-record used for dedup keys;
NiFi has no partitioner (queues are shared) — the partition hash is our
design (SURVEY.md §4 "Data partitioning: to design").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_CRC_POLY = np.uint32(0xEDB88320)

# Version of the content-hash kernels (state_checksum / row_image_hash).
# Rev 1 = the pre-r4 clip-reduceat kernel whose checksums were
# batch-composition-dependent when a trailing row had an empty token
# list; rev 2 = the starts[nz]-scatter fix. Manifest entries record the
# rev they were hashed under so verify() on a pre-fix lake skips hash
# comparison (rows still checked) instead of false-alarming corruption.
HASH_REV = 2


def _make_crc_table() -> np.ndarray:
    table = np.zeros(256, dtype=np.uint32)
    for i in range(256):
        c = np.uint32(i)
        for _ in range(8):
            c = (c >> np.uint32(1)) ^ (_CRC_POLY if (c & np.uint32(1)) else np.uint32(0))
        table[i] = c
    return table


_CRC_TABLE = _make_crc_table()


def _string_array_bytes(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy view of a string/binary array's (offsets, data) buffers."""
    if pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
        arr = arr.cast(pa.large_binary())
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    data_buf = arr.buffers()[2]
    data = (
        np.frombuffer(data_buf, dtype=np.uint8)
        if data_buf is not None and len(data_buf) > 0
        else np.zeros(1, dtype=np.uint8)
    )
    return offsets, data


def crc32_of_strings(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """CRC32 (zlib-compatible) of each utf8 value, vectorized across rows.

    Short strings (the partition-key path: doc ids): walk a transposed
    (max_len, n) byte matrix column-by-column — each step is a
    contiguous-row gather, ~13 vectorized ops per batch for doc ids.
    Long/ragged strings (max_len > 128): per-row zlib.crc32, which is a
    single C call per row and faster than a huge padded matrix."""
    import zlib

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.uint32)
    offsets, data = _string_array_bytes(col)
    lens = np.diff(offsets)
    max_len = int(lens.max()) if n else 0
    if max_len > 128:
        db = data.tobytes()
        return np.fromiter(
            (
                zlib.crc32(db[offsets[i] : offsets[i + 1]])
                for i in range(n)
            ),
            dtype=np.uint32,
            count=n,
        )
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    if max_len:
        # pad the data buffer so no index can run off the end (replaces
        # a pathologically slow np.clip over the whole matrix)
        data_pad = np.concatenate([data, np.zeros(max_len, dtype=np.uint8)])
        idx = offsets[:-1][None, :] + np.arange(max_len)[:, None]  # (max_len, n)
        padded = data_pad[idx]  # row j is contiguous
        pos = np.arange(max_len)[:, None]
        valid = pos < lens[None, :]
        for j in range(max_len):
            nxt = (crc >> np.uint32(8)) ^ _CRC_TABLE[(crc ^ padded[j]) & np.uint32(0xFF)]
            crc = np.where(valid[j], nxt, crc)
    return crc ^ np.uint32(0xFFFFFFFF)


def partition_of(doc_ids: pa.Array | pa.ChunkedArray, num_partitions: int) -> np.ndarray:
    """Stable partition id in [0, num_partitions) for each doc_id."""
    return (crc32_of_strings(doc_ids) % np.uint32(num_partitions)).astype(np.int32)


def add_partition_column(
    batch: pa.Table, num_partitions: int, key: str = "doc_id", out: str = "partition_id"
) -> pa.Table:
    """Stateless map_batches body: stamp the partition id column."""
    pid = partition_of(batch[key], num_partitions)
    return batch.append_column(out, pa.array(pid, type=pa.int32()))


def state_checksum(table: pa.Table) -> int:
    """Order-insensitive checksum of a partition's (doc_id, tokens, n_tok)
    state — XOR-reduced so it is independent of row order and cheaply
    recomputable for verification (NiFi analog: site-to-site CRC32
    transaction confirmation, reference
    nifi-site-to-site-client/.../remote/AbstractTransaction.java:177-210).
    The XOR of ``state_row_hashes``."""
    return int(np.bitwise_xor.reduce(state_row_hashes(table), initial=np.uint64(0)))


def state_checksums(table: pa.Table, bounds: np.ndarray) -> np.ndarray:
    """``state_checksum`` of each row range [bounds[j], bounds[j + 1])
    of ``table`` from one ``state_row_hashes`` pass (an empty range
    checksums to 0)."""
    bounds = np.asarray(bounds, dtype=np.int64)
    out = np.zeros(len(bounds) - 1, dtype=np.uint64)
    nz = np.diff(bounds) > 0
    if nz.any():
        out[nz] = np.bitwise_xor.reduceat(state_row_hashes(table), bounds[:-1][nz])
    return out


def state_row_hashes(table: pa.Table) -> np.ndarray:
    """Per-row uint64 hash behind ``state_checksum``: each row's hash
    depends on that row alone, so any XOR-reduce of them is independent
    of row order and batch composition. Vectorized: per-row token sums
    via reduceat, no Python row loop."""
    if table.num_rows == 0:
        return np.zeros(0, dtype=np.uint64)
    doc_crc = crc32_of_strings(table["doc_id"]).astype(np.uint64)
    toks = table["tokens"].combine_chunks()
    if isinstance(toks, pa.ChunkedArray):  # empty chunked edge
        toks = toks.combine_chunks()
    flat = toks.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
    lens = (
        pc.coalesce(pc.list_value_length(toks), pa.scalar(0, pa.int32()))
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    tok_sum = np.zeros(len(lens), dtype=np.uint64)
    nz = lens > 0
    # reduceat only over NON-EMPTY segments: an empty trailing list has
    # start == flat.size, and clipping it backward would truncate the
    # PRECEDING segment (reduceat treats a non-increasing index pair as
    # a single-element segment). Scatter into zeros instead — checksum
    # must be batch-composition-invariant (HASH_REV 2).
    if flat.size and nz.any():
        tok_sum[nz] = np.add.reduceat(flat, starts[nz])
    null_mask = np.asarray(toks.is_null())
    tok_sum[null_mask] = _U64_NULL
    return mix_u64(
        doc_crc * np.uint64(0x9E3779B97F4A7C15)
        ^ tok_sum * np.uint64(0xBF58476D1CE4E5B9)
        ^ lens.astype(np.uint64) * np.uint64(0x94D049BB133111EB)
    )


_U64_NULL = np.uint64(0xDEADBEEFDEADBEEF)


def mix_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64."""
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def row_image_hash(table: pa.Table, cols: list[str]) -> np.ndarray:
    """Per-row ORDER-SENSITIVE uint64 hash of the named columns — the
    row-image equality test for the change feed (CDCLake.changes):
    equal images always hash equal (no false 'U' rows); a collision can
    only HIDE a change (probability ~2^-64 per doc pair).

    Column kernels (all vectorized, no Python row loop):
      string          — table-driven CRC32 (crc32_of_strings)
      int/float       — uint64 reinterpretation of the value
      list<int>       — splitmix of (value, position-in-row), XOR-reduced
                        per row, mixed with the row length so [] vs null
                        and permutations all hash apart
    Columns are chained through splitmix with per-column multipliers so
    (a=1,b=2) and (a=2,b=1) differ.
    """
    n = table.num_rows
    h = np.zeros(n, dtype=np.uint64)
    for ci, name in enumerate(cols):
        col = table[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        null_mask = np.asarray(col.is_null()) if col.null_count else None
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            ch = crc32_of_strings(col).astype(np.uint64)
        elif pa.types.is_list(t) or pa.types.is_large_list(t):
            flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
            lens = (
                pc.coalesce(pc.list_value_length(col), pa.scalar(0, pa.int32()))
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
            pos = np.arange(flat.size, dtype=np.uint64) - np.repeat(
                starts.astype(np.uint64), lens
            )
            mixed = mix_u64(flat * np.uint64(0x9E3779B97F4A7C15) ^ pos)
            ch = np.zeros(n, dtype=np.uint64)
            nz = lens > 0
            # starts[nz]-scatter: clipping a trailing-empty row's start
            # backward truncates the PRECEDING row's segment (HASH_REV 2)
            if flat.size and nz.any():
                ch[nz] = np.bitwise_xor.reduceat(mixed, starts[nz])
            ch = mix_u64(ch ^ lens.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9))
        elif pa.types.is_floating(t):
            ch = (
                col.to_numpy(zero_copy_only=False)
                .astype(np.float64)
                .view(np.uint64)
                .copy()
            )
        else:  # ints / bools / timestamps
            ch = (
                pc.cast(col.fill_null(0) if col.null_count else col, pa.int64())
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
            )
        if null_mask is not None:
            ch = ch.copy()
            ch[null_mask] = _U64_NULL
        h = mix_u64(h * np.uint64(0x94D049BB133111EB) ^ ch ^ np.uint64(ci * 0x9E3779B9))
    return h


def source_key(paths: list[str]) -> str:
    """Short content hash of the files at ``paths``, whatever their
    order: a cache key that changes whenever a byte of any of them does
    (so results built by other code are never silently reused)."""
    import hashlib

    h = hashlib.md5()
    for p in sorted(paths):
        with open(p, "rb") as f:
            data = f.read()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()[:10]
