"""Sequential dual-implementation oracles for the non-SQL-expressible
queries (simhash, winnowing, language-ID, embedding near-dup, minhash,
multimodal decode).

Each function recomputes the query's expected output with plain
sequential scalar Python (per-doc loops, python-int arithmetic — a
deliberately different code path from the vectorized/distributed
engine), mirroring how nifi_ray/oracle.py is the golden reference for
CDC replay. ``expected_oracle_sql(sf_dir)`` materializes each expected
table as parquet under ``tempfile.gettempdir()`` (keyed by sf + source
hash) and returns
DuckDB SQL reading it — giving the driver's correctness gate a real
oracle for queries SQL cannot express.
"""

from __future__ import annotations

import os
import tempfile
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .util.hashing import source_key

# Short hash of this file's bytes — keys the temp-dir cache, so editing any
# expected-value implementation rebuilds the tables it caches.
_REV = source_key([__file__])

_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """Scalar splitmix64 finalizer (matches util.hashing.mix_u64)."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def _read_docs(sf_dir: str) -> list[dict]:
    return pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).to_pylist()


# ------------------------------------------------------------- simhash


def _scalar_simhashes(rows: list[dict]) -> tuple[list[str], list[int]]:
    """Sequential SimHash (stages/dedup.SimHasher semantics): h(word) =
    mix64(crc32(word)); bit j set iff sum over words of (2*bit_j(h)-1)
    > 0; empty doc → 0. Shared by expected_simhash and
    expected_simhash_pairs so both grades pin one kernel."""
    ids, sims = [], []
    for r in rows:
        words = (r["text"] or "").lower().split()
        counts = [0] * 64
        for w in words:
            h = _mix64(zlib.crc32(w.encode()))
            for j in range(64):
                counts[j] += 1 if (h >> j) & 1 else -1
        val = 0
        if words:
            for j in range(64):
                if counts[j] > 0:
                    val |= 1 << j
        ids.append(str(r["doc_id"]))
        sims.append(val)
    return ids, sims


def expected_simhash(sf_dir: str) -> pa.Table:
    """Per-doc 64-bit SimHash of word tokens (stages/dedup.SimHasher
    semantics): h(word) = mix64(crc32(word)); bit j of the signature is
    set iff sum over words of (2*bit_j(h) - 1) > 0."""
    ids, sims = _scalar_simhashes(_read_docs(sf_dir))
    # hex string, not uint64: graded outputs must avoid full-range
    # uint64 (driver hash coerces >2^63 values; r3 VERDICT ask #1)
    return pa.table(
        {
            "doc_id": pa.array(ids),
            "simhash": pa.array([format(v, "016x") for v in sims]),
        }
    )


def expected_simhash_pairs(sf_dir: str, max_ham: int = 3) -> pa.Table:
    """All-pairs O(n²) Hamming scan over the sequential SimHash
    signatures — the exact-recall dual of queries.q_simhash_pairs'
    banded plan (4×16-bit bands cannot miss a pair at Hamming ≤ 3 by
    pigeonhole, so the two must agree exactly)."""
    ids, sims = _scalar_simhashes(_read_docs(sf_dir))
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            h = bin(sims[i] ^ sims[j]).count("1")
            if h <= max_ham:
                a, b = sorted((ids[i], ids[j]))
                out.append((a, b, h))
    out.sort()
    return pa.table(
        {
            "a": pa.array([p[0] for p in out], pa.string()),
            "b": pa.array([p[1] for p in out], pa.string()),
            "hamming": pa.array([p[2] for p in out], pa.int64()),
        }
    )


def expected_pagerank(
    sf_dir: str, iters: int = 5, d: float = 0.85, dp: int = 12
) -> pa.Table:
    """Sequential PageRank dual of queries.q_pagerank: identical graph
    (distinct customer→supplier purchase edges), identical
    order-canonical float path — per-dst contribution sums sorted by
    src, dangling mass summed in node order, rank vector rounded with
    the shared round-half-away helper every iteration."""
    import duckdb

    from .stages.components import round_away

    con = duckdb.connect()
    edges = con.sql(
        f"""SELECT DISTINCT o_custkey AS src, l_suppkey + 10000000 AS dst
            FROM read_parquet('{sf_dir}/orders.parquet') o
            JOIN read_parquet('{sf_dir}/lineitem.parquet') l
              ON l.l_orderkey = o.o_orderkey"""
    ).fetchall()
    con.close()
    outdeg: dict[int, int] = {}
    src_by_dst: dict[int, list[int]] = {}
    nodes_set: set[int] = set()
    for s, t in edges:
        s, t = int(s), int(t)
        nodes_set.add(s)
        nodes_set.add(t)
        outdeg[s] = outdeg.get(s, 0) + 1
        src_by_dst.setdefault(t, []).append(s)
    nodes = sorted(nodes_set)
    N = len(nodes)
    dangling = [n for n in nodes if n not in outdeg]
    r = {n: float(round_away(1.0 / N, dp)) for n in nodes}
    for _ in range(iters):
        dangling_sum = (
            float(np.sum(np.array([r[n] for n in dangling]))) if dangling else 0.0
        )
        sums: dict[int, float] = {}
        for t, ss in src_by_dst.items():
            ss_sorted = sorted(ss)
            contrib = np.array([r[s] for s in ss_sorted]) / np.array(
                [float(outdeg[s]) for s in ss_sorted]
            )
            sums[t] = float(np.sum(contrib))
        r = {
            n: float(
                round_away((1.0 - d) / N + d * (sums.get(n, 0.0) + dangling_sum / N), dp)
            )
            for n in nodes
        }
    return pa.table(
        {
            "node": pa.array(nodes, pa.int64()),
            "pr": pa.array(
                [float(round_away(r[n], 9)) for n in nodes], pa.float64()
            ),
        }
    )


def expected_dedup_spans(sf_dir: str, n: int = 5) -> pa.Table:
    """Sequential dual of queries.q_dedup_spans: Counter census of
    whitespace word n-grams (occurrences, within-doc repeats count),
    then per-doc cover-mask excision of every word under a gram with
    total count ≥ 2. Whitespace normalized by split/join on both
    sides."""
    from collections import Counter

    rows = _read_docs(sf_dir)
    census: Counter = Counter()
    for r in rows:
        ws = (r["text"] or "").split()
        for i in range(len(ws) - n + 1):
            census[" ".join(ws[i : i + n])] += 1
    ids, clean, removed = [], [], []
    for r in rows:
        ws = (r["text"] or "").split()
        m = len(ws)
        cov = [False] * m
        for i in range(m - n + 1):
            if census[" ".join(ws[i : i + n])] >= 2:
                for j in range(i, i + n):
                    cov[j] = True
        ids.append(int(r["doc_id"]))
        clean.append(" ".join(w for w, c in zip(ws, cov) if not c))
        removed.append(sum(cov))
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text_clean": pa.array(clean, pa.string()),
            "n_removed": pa.array(removed, pa.int64()),
        }
    )


# ------------------------------------------------------------ winnowing


def expected_winnow(sf_dir: str, k: int = 5, window: int = 4) -> pa.Table:
    """fp_min of the winnowing fingerprint set (stages/quality.
    Fingerprinter semantics), recomputed with scalar rolling hashes."""
    P = 1099511628211
    rows = _read_docs(sf_dir)
    ids, mins = [], []
    for r in rows:
        b = (r["text"] or "").lower().encode()
        if len(b) < k:
            fp_min = 0
        else:
            hashes = []
            for i in range(len(b) - k + 1):
                h = 0
                for j in range(k):
                    h = (h + b[i + j] * pow(P, k - 1 - j, 1 << 64)) & _M64
                hashes.append(h)
            if len(hashes) <= window:
                sel = {min(hashes)}
            else:
                sel = {
                    min(hashes[i : i + window])
                    for i in range(len(hashes) - window + 1)
                }
            fp_min = min(sel)
        ids.append(str(r["doc_id"]))
        mins.append(fp_min)
    return pa.table(
        {
            "doc_id": pa.array(ids),
            "fp_min": pa.array([format(v, "016x") for v in mins]),
        }
    )


# ------------------------------------------------------------- lang id


def expected_lang_id(sf_dir: str) -> pa.Table:
    """Grouped counts of the heuristic language prediction
    (stages/quality.LangId semantics)."""
    import re
    from collections import Counter

    from .stages.quality import STOPWORDS

    word_re = re.compile(r"[a-zA-Zà-ÿÀ-ß']+")
    cjk_re = re.compile(r"[一-鿿]")
    counts: Counter[str] = Counter()
    for r in _read_docs(sf_dir):
        text = r["text"] or ""
        if cjk_re.search(text):
            counts["zh"] += 1
            continue
        words = word_re.findall(text.lower())
        if not words:
            counts["und"] += 1
            continue
        best, best_score = "und", 0.0
        for lang, table in STOPWORDS.items():
            score = sum(1 for w in words if w in table) / len(words)
            if score > best_score:
                best, best_score = lang, score
        counts[best if best_score > 0 else "und"] += 1
    langs = sorted(counts)
    return pa.table(
        {
            "lang_pred": pa.array(langs),
            "n": pa.array([counts[l] for l in langs], pa.int64()),
        }
    )


# ----------------------------------------------------- embedding neardup


def expected_embedding_neardup(
    sf_dir: str, planes: int = 4, seed: int = 7, threshold: float = 0.30
) -> pa.Table:
    """Hyperplane-LSH bucket + within-bucket cosine pairs
    (queries.q_embedding_neardup semantics), sequential per-vector."""
    tbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).to_pylist()
    if not tbl:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    dim = len(tbl[0]["embedding"])
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((dim, planes))
    buckets: dict[int, list[tuple[int, np.ndarray]]] = {}
    for r in tbl:
        v = np.asarray(r["embedding"], dtype=np.float64)
        signs = (v @ R) > 0
        bucket = 0
        for s in signs:
            bucket = (bucket << 1) | int(s)
        buckets.setdefault(bucket, []).append((int(r["vec_id"]), v))
    pairs = []
    for members in buckets.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                ia, va = members[i]
                ib, vb = members[j]
                na = np.linalg.norm(va) or 1e-12
                nb = np.linalg.norm(vb) or 1e-12
                if float(va @ vb) / (na * nb) >= threshold:
                    pairs.append((min(ia, ib), max(ia, ib)))
    pairs.sort()
    return pa.table(
        {
            "a": pa.array([p[0] for p in pairs], pa.int64()),
            "b": pa.array([p[1] for p in pairs], pa.int64()),
        }
    )


# ------------------------------------------------------------ multimodal


def expected_multimodal_decode(n: int = 200, seed: int = 1) -> pa.Table:
    """feat_mean per media row (queries.q_multimodal_decode over
    synth_media_table(200, seed=1)), sequential per row."""
    from .stages.multimodal import synth_media_table

    tbl = synth_media_table(n, seed=seed).to_pylist()
    ids, means = [], []
    for r in tbl:
        key = _mix64(zlib.crc32(r["payload"]))
        feats = []
        for i in range(16):
            v = _mix64(((i * 0x9E3779B97F4A7C15) & _M64) ^ key)
            feats.append(np.float32((v % 1000) / 1000.0))
        # mirror the engine exactly: mean and round in float32, widen last
        m32 = np.round(np.mean(np.asarray(feats, np.float32)), 6)
        means.append(float(np.float32(m32)))
        ids.append(r["media_id"])
    return pa.table(
        {"media_id": pa.array(ids), "feat_mean": pa.array(means, pa.float64())}
    )


# The real-codec mirrors below recompute each media query's output with
# scalar python-int arithmetic straight from the synthetic-pattern SPEC
# (pixel j of image key = mix64(j ^ key) % 256, etc.) — they never touch
# the BMP/PPM/WAV encoders, numpy codecs, or Ray stages, so a bug in
# encode→decode round-trip, row-padding/stride handling, channel order,
# or the actor-pool plumbing shows up as a hash mismatch.

_BMP_DIMS = [(32, 24), (48, 32), (40, 40), (64, 48)]  # synth_bmp_table


def _expected_jpeg_pixels(rgb, quality: int, subsample: str):
    """Independent inverse for jpeg fixture rows: take the SHARED
    forward definition's quantized coefficients
    (stages.jpeg.component_coefficients — the same arrays the encoder
    huffman-codes) and reconstruct pixels with a straight re-
    implementation of dequantize → IDCT → round/clip → replicate-
    upsample → YCbCr→RGB. The engine decodes the actual BYTES through
    its huffman/bitstream reader; equality therefore pins that entire
    entropy layer (a one-bit slip anywhere breaks every later block)."""
    import numpy as np

    from .stages.jpeg import ZIGZAG, _T, component_coefficients, scaled_qtables

    h, w = rgb.shape[:2]
    comps, (hs, vs) = component_coefficients(rgb, quality, subsample)
    qt_l, qt_c = scaled_qtables(quality)

    def plane_from(zzs, qt, H, W):
        plane = np.zeros((H, W))
        n_bx = W // 8
        for bi in range(len(zzs)):
            by, bx = divmod(bi, n_bx)
            coef = np.zeros(64)
            # qt natural order, zzs zigzag order: permute the table to
            # zigzag positions before the elementwise dequant (mirrors
            # the r4 decoder fix — both duals changed together)
            coef[ZIGZAG] = zzs[bi].astype(float) * qt[ZIGZAG]
            plane[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8] = (
                _T.T @ coef.reshape(8, 8) @ _T + 128.0
            )
        return np.clip(np.floor(plane + 0.5), 0, 255)

    Hy = -(-h // (8 * vs)) * 8 * vs
    Wy = -(-w // (8 * hs)) * 8 * hs
    if subsample == "4:2:0":
        # luma arrives in MCU order (TL,TR,BL,BR per 16x16); back to raster
        bw = Wy // 8
        idx = []
        for mr in range(Hy // 16):
            for mc in range(Wy // 16):
                r0, c0 = 2 * mr, 2 * mc
                idx += [r0 * bw + c0, r0 * bw + c0 + 1,
                        (r0 + 1) * bw + c0, (r0 + 1) * bw + c0 + 1]
        raster = np.empty_like(comps[0])
        raster[np.array(idx)] = comps[0]
        y = plane_from(raster, qt_l, Hy, Wy)
        cb = plane_from(comps[1], qt_c, Hy // 2, Wy // 2)
        cr = plane_from(comps[2], qt_c, Hy // 2, Wy // 2)
        cb = np.repeat(np.repeat(cb, 2, 0), 2, 1)
        cr = np.repeat(np.repeat(cr, 2, 0), 2, 1)
    else:
        y = plane_from(comps[0], qt_l, Hy, Wy)
        cb = plane_from(comps[1], qt_c, Hy, Wy)
        cr = plane_from(comps[2], qt_c, Hy, Wy)
    yf = y[:h, :w]
    cbf = cb[:h, :w] - 128.0
    crf = cr[:h, :w] - 128.0
    r = yf + 1.402 * crf
    g = yf - 0.344136 * cbf - 0.714136 * crf
    b = yf + 1.772 * cbf
    out = np.stack([r, g, b], axis=-1)
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.int64)


def expected_image_decode(_sf: str, n: int = 96, seed: int = 7) -> pa.Table:
    """Per-image exact channel sums (queries.q_image_decode over
    synth_bmp_table(96, seed=7, with_jpeg=True)): lossless rows scalar
    from the pattern spec; jpeg rows (baseline AND progressive) are
    reconstructed via the coefficient path (_expected_jpeg_pixels)."""
    import numpy as np

    from .stages.multimodal import (
        JPEG_FIXTURE_KW,
        PROG_JPEG_FIXTURE_KW,
        _synth_rgb,
    )

    ids, pws, phs, sums = [], [], [], []
    for i in range(n):
        w, h = _BMP_DIMS[i % len(_BMP_DIMS)]
        key = seed * 1_000_003 + i
        # encoders rotate bmp,png,ppm,jpeg-baseline,jpeg-progressive;
        # both jpeg layouts carry IDENTICAL quantized coefficients, so
        # one coefficient-path inverse pins both entropy decoders
        if i % 5 in (3, 4):
            kw = JPEG_FIXTURE_KW if i % 5 == 3 else PROG_JPEG_FIXTURE_KW
            rgb = _synth_rgb(w, h, key)
            px = _expected_jpeg_pixels(rgb, kw["quality"], kw["subsample"])
            s = [int(px[:, :, c].sum()) for c in range(3)]
        else:
            s = [0, 0, 0]
            for j in range(h * w * 3):
                s[j % 3] += _mix64(j ^ key) % 256
        ids.append(f"img{i:06d}")
        pws.append(w)
        phs.append(h)
        sums.append(s)
    return pa.table(
        {
            "media_id": pa.array(ids),
            "px_w": pa.array(pws, pa.int32()),
            "px_h": pa.array(phs, pa.int32()),
            "sum_r": pa.array([s[0] for s in sums], pa.int64()),
            "sum_g": pa.array([s[1] for s in sums], pa.int64()),
            "sum_b": pa.array([s[2] for s in sums], pa.int64()),
        }
    )


def expected_image_resize(
    _sf: str, n: int = 96, seed: int = 7, tw: int = 16, th: int = 16
) -> pa.Table:
    """Channel sums after nearest-neighbor resize with floor index
    mapping src = dst_idx * src_len // dst_len (resize_nearest spec),
    scalar per output pixel."""
    ids, sums = [], []
    for i in range(n):
        sw, sh = _BMP_DIMS[i % len(_BMP_DIMS)]
        key = seed * 1_000_003 + i
        s = [0, 0, 0]
        for y in range(th):
            yi = (y * sh) // th
            for x in range(tw):
                xi = (x * sw) // tw
                base = (yi * sw + xi) * 3
                for c in range(3):
                    s[c] += _mix64((base + c) ^ key) % 256
        ids.append(f"img{i:06d}")
        sums.append(s)
    return pa.table(
        {
            "media_id": pa.array(ids),
            "sum_r": pa.array([s[0] for s in sums], pa.int64()),
            "sum_g": pa.array([s[1] for s in sums], pa.int64()),
            "sum_b": pa.array([s[2] for s in sums], pa.int64()),
        }
    )


def expected_audio_decode(_sf: str, n: int = 100, seed: int = 3) -> pa.Table:
    """Exact audio features (queries.q_audio_decode over
    synth_wav_table(100, seed=3)): sample t = mix64(t ^ key) % 20001 -
    10000; zero crossings = sign(>=0) changes; abs amplitude sum."""
    ids, rates, nsamps, zcs, asums = [], [], [], [], []
    for i in range(n):
        nsamp = 200 + (i % 5) * 40
        key = seed * 2_000_003 + i
        xs = [_mix64(t ^ key) % 20001 - 10000 for t in range(nsamp)]
        zc = sum(1 for t in range(nsamp - 1) if (xs[t] >= 0) != (xs[t + 1] >= 0))
        ids.append(f"aud{i:06d}")
        rates.append(8000)
        nsamps.append(nsamp)
        zcs.append(zc)
        asums.append(sum(abs(x) for x in xs))
    return pa.table(
        {
            "media_id": pa.array(ids),
            "sample_rate": pa.array(rates, pa.int32()),
            "n_samples": pa.array(nsamps, pa.int64()),
            "n_zero_cross": pa.array(zcs, pa.int64()),
            "abs_sum": pa.array(asums, pa.int64()),
        }
    )


def expected_video_frames(
    _sf: str, n: int = 40, frames: int = 9, every: int = 3, seed: int = 5,
    w: int = 16, h: int = 12,
) -> pa.Table:
    """Pixel sum of every sampled (0, every, 2*every, …) frame of each
    concatenated-PPM video (queries.q_video_frames spec)."""
    ids, fidx, psums = [], [], []
    for i in range(n):
        for f in range(0, frames, every):
            key = seed * 3_000_017 + i * 1009 + f
            ids.append(f"vid{i:06d}")
            fidx.append(f)
            psums.append(sum(_mix64(j ^ key) % 256 for j in range(h * w * 3)))
    return pa.table(
        {
            "media_id": pa.array(ids),
            "frame_idx": pa.array(fidx, pa.int64()),
            "psum": pa.array(psums, pa.int64()),
        }
    )


def expected_mp4_codec_routing(_sf: str, n: int = 48, seed: int = 13) -> pa.Table:
    """Spec-derived dual of q_mp4_codec_routing: statuses and codecs
    follow the fixture rule (i % 3 == 2 → avc1, routed), psums are
    recomputed scalar-wise from the _synth_rgb generator for sampled
    frames (0, 3, 6, …) — the mp4 container is never parsed here."""
    from .stages.multimodal import MP4_FIXTURE_DIMS, mp4_fixture_frames

    ids, codecs, status, nfr, psums = [], [], [], [], []
    for i in range(n):
        w, h = MP4_FIXTURE_DIMS[i % len(MP4_FIXTURE_DIMS)]
        ids.append(f"mp4{i:06d}")
        if i % 3 == 2:
            codecs.append("avc1")
            status.append("unsupported_codec")
            nfr.append(0)
            psums.append(0)
            continue
        codecs.append("raw ")
        status.append("ok")
        sampled = list(range(0, mp4_fixture_frames(i), 3))
        nfr.append(len(sampled))
        tot = 0
        for f in sampled:
            key = seed * 5_000_011 + i * 907 + f
            tot += sum(_mix64(j ^ key) % 256 for j in range(h * w * 3))
        psums.append(tot)
    return pa.table(
        {
            "media_id": pa.array(ids, pa.string()),
            "codec": pa.array(codecs, pa.string()),
            "status": pa.array(status, pa.string()),
            "n_frames_sampled": pa.array(nfr, pa.int64()),
            "psum": pa.array(psums, pa.int64()),
        }
    )


# --------------------------------------------------------------- minhash


def _shingle_set(words: list[str], k: int) -> set[int]:
    if len(words) < k:
        joined = [" ".join(words)] if words else []
    else:
        joined = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    return {zlib.crc32(s.encode()) for s in joined}


def _sig_shingles(words: list[str]) -> list[int]:
    """Arithmetic k=3 shingle hashes for SIGNATURES (mirrors
    MinHasher._batch_signatures: word CRCs combined positionally, no
    k-gram strings; short docs pad missing positions with 0)."""
    K1, K2, K3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    cs = [zlib.crc32(w.encode()) for w in words]
    if not cs:
        return []
    if len(cs) < 3:
        h = (cs[0] * K1 ^ ((cs[1] * K2) & _M64 if len(cs) > 1 else 0)) & _M64
        return [_mix64(h)]
    return [
        _mix64((cs[i] * K1 ^ (cs[i + 1] * K2 & _M64) ^ (cs[i + 2] * K3 & _M64)) & _M64)
        for i in range(len(cs) - 2)
    ]


def _minhash_sig(
    shingles: list[int], a: list[int], b: list[int], mersenne: int
) -> list[int]:
    if not shingles:
        return [mersenne] * len(a)
    return [
        min(((ai * s + bi) & _M64) % mersenne for s in shingles)
        for ai, bi in zip(a, b)
    ]


def expected_minhash_pairs(
    sf_dir: str,
    num_hashes: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    seed: int = 1234,
    threshold: float = 0.5,
) -> pa.Table:
    """Sequential MinHash+LSH candidate pairs, verified by exact n-gram
    Jaccard ≥ threshold (queries.q_minhash_pairs semantics)."""
    mersenne = (1 << 61) - 1
    rng = np.random.default_rng(seed)
    a = rng.integers(1, mersenne, size=num_hashes, dtype=np.uint64).tolist()
    b = rng.integers(0, mersenne, size=num_hashes, dtype=np.uint64).tolist()
    rows_per_band = num_hashes // bands

    docs = _read_docs(sf_dir)
    shingle_sets: dict[str, set[int]] = {}
    buckets: dict[tuple[int, int], list[str]] = {}
    for r in docs:
        did = str(r["doc_id"])
        words = (r["text"] or "").lower().split()
        # verify (exact Jaccard) keeps the joined-string shingle sets;
        # SIGNATURES use the arithmetic combine, as in the engine
        shingle_sets[did] = _shingle_set(words, shingle_k)
        sig = _minhash_sig(_sig_shingles(words), a, b, mersenne)
        for band in range(bands):
            acc = 0
            for j in range(rows_per_band):
                acc = _mix64(acc ^ sig[band * rows_per_band + j])
            buckets.setdefault((band, acc), []).append(did)

    cands = set()
    for members in buckets.values():
        ms = sorted(set(members))
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                cands.add((ms[i], ms[j]))
    verified = []
    for x, y in sorted(cands):
        sa, sb = shingle_sets[x], shingle_sets[y]
        if not sa and not sb:
            jac = 1.0
        else:
            inter = len(sa & sb)
            union = len(sa | sb)
            jac = inter / union if union else 0.0
        if jac >= threshold:
            verified.append((x, y))
    return pa.table(
        {
            "a": pa.array([p[0] for p in verified]),
            "b": pa.array([p[1] for p in verified]),
        }
    )


def expected_minhash_dup_groups(sf_dir: str) -> pa.Table:
    """Connected components (min-label) over the expected minhash pairs."""
    pairs = expected_minhash_pairs(sf_dir)
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(pairs["a"].to_pylist(), pairs["b"].to_pylist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    nodes = sorted(parent)
    return pa.table(
        {
            "node": pa.array(nodes),
            "component": pa.array([find(n) for n in nodes]),
        }
    )


# ------------------------------------------------------------------ IVF


def expected_neardup_keep(sf_dir: str) -> pa.Table:
    """Canonical selection per near-dup component (q_neardup_keep
    semantics): keep = max utf8 byte length, tie → min doc_id; plus
    member count and the keeper's byte length."""
    comps = expected_minhash_dup_groups(sf_dir)
    size = {
        str(r["doc_id"]): len((r["text"] or "").encode())
        for r in _read_docs(sf_dir)
    }
    members: dict[str, list[str]] = {}
    for n, c in zip(comps["node"].to_pylist(), comps["component"].to_pylist()):
        members.setdefault(c, []).append(n)
    rows = []
    for c in sorted(members):
        ms = members[c]
        keep = min(ms, key=lambda d: (-size.get(d, 0), d))
        rows.append((c, keep, len(ms), size.get(keep, 0)))
    return pa.table(
        {
            "component": pa.array([r[0] for r in rows]),
            "keep_doc_id": pa.array([r[1] for r in rows]),
            "n_members": pa.array([r[2] for r in rows], pa.int64()),
            "keep_bytes": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def expected_knn_ivf(sf_dir: str, n_cells: int = 8, nprobe: int = 3, k: int = 5) -> pa.Table:
    """Sequential IVF ANN (queries.q_knn_ivf semantics): shared
    deterministic quantizer training (kmeans_lite is an input constant,
    not the machinery under test), then per-vector scalar assignment,
    per-query probing and exact cosine scoring with a plain loop."""
    from .stages.similarity import kmeans_lite

    tbl = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pylist()
    emb = {int(r["vec_id"]): np.asarray(r["embedding"], dtype=np.float64) for r in tbl}
    sample = np.vstack([np.asarray(r["embedding"]) for r in tbl[:256]])
    C = kmeans_lite(sample, n_cells=n_cells, seed=0)

    def unit(v):
        n = np.linalg.norm(v)
        return v / n if n > 1e-12 else v

    cells = {vid: int(np.argmax(C @ unit(v))) for vid, v in emb.items()}
    out_q, out_v, out_r = [], [], []
    for r in tbl[:3]:
        qid = int(r["vec_id"])
        qv = unit(np.asarray(r["embedding"], dtype=np.float64))
        probe_sims = C @ qv
        probe = set(np.argsort(-probe_sims)[:nprobe].tolist())
        scored = [
            (float(unit(v) @ qv), vid)
            for vid, v in emb.items()
            if cells[vid] in probe
        ]
        scored.sort(key=lambda t: (-t[0], t[1]))
        for rank, (_s, vid) in enumerate(scored[:k], start=1):
            out_q.append(qid), out_v.append(vid), out_r.append(rank)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
        }
    )


# ------------------------------------------------- lake → shard export


def expected_export_shards(sf_dir: str, max_len: int = 512, P: int = 16) -> pa.Table:
    """Expected packed-shard layout for q_export_shards: sequential CDC
    replay (oracle.apply_events — the golden dict applier), scalar
    zlib.crc32(doc_id) % P partitioning (dual of util.hashing.
    partition_of), python-sorted doc order per shard, scalar
    concat-and-chunk packing. One row per (shard, seq_idx) with n_tok
    and tok_sum as python-int arithmetic."""
    import glob

    from .oracle import apply_events, state_from_base
    from .pipelines.queries import cdc_fixture

    sf_tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    _cfg, base_dir, ev_dir, _lake = cdc_fixture(sf_tag)
    base = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(os.path.join(base_dir, "*.parquet")))]
    )
    events = [pq.read_table(f) for f in sorted(glob.glob(os.path.join(ev_dir, "*.parquet")))]
    state = apply_events(events, initial=state_from_base(base))

    shards: dict[int, list[str]] = {k: [] for k in range(P)}
    for doc_id in state:
        shards[zlib.crc32(doc_id.encode()) % P].append(doc_id)
    out_shard, out_seq, out_n, out_sum = [], [], [], []
    for k in range(P):
        flat: list[int] = []
        for doc_id in sorted(shards[k]):
            flat.extend(state[doc_id]["tokens"] or [])
        for s in range((len(flat) + max_len - 1) // max_len):
            chunk = flat[s * max_len : (s + 1) * max_len]
            out_shard.append(k)
            out_seq.append(s)
            out_n.append(len(chunk))
            out_sum.append(sum(chunk))
    return pa.table(
        {
            "shard": pa.array(out_shard, pa.int64()),
            "seq_idx": pa.array(out_seq, pa.int64()),
            "n_tok": pa.array(out_n, pa.int64()),
            "tok_sum": pa.array(out_sum, pa.int64()),
        }
    )


def expected_streaming_neardup(
    sf_dir: str,
    num_hashes: int = 64,
    bands: int = 16,
    seed: int = 1234,
    threshold: float = 0.5,
    max_per_key: int = 256,
) -> pa.Table:
    """Sequential mirror of queries.q_streaming_neardup: CDC replay via
    the golden dict applier, the same 10 deterministic near-dup
    injections, TOKEN-unit minhash signatures (python-int arithmetic —
    shingle = mix64(t0·K1 ^ t1·K2 ^ t2·K3), <3 tokens pad 0), LSH band
    buckets with the same degenerate-key drop, probes = the injected
    docs only, exact token-3-gram Jaccard verify."""
    import glob

    from .oracle import apply_events, state_from_base
    from .pipelines.queries import cdc_fixture

    sf_tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    _cfg, base_dir, ev_dir, _lake = cdc_fixture(sf_tag)
    base = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(os.path.join(base_dir, "*.parquet")))]
    )
    events = [pq.read_table(f) for f in sorted(glob.glob(os.path.join(ev_dir, "*.parquet")))]
    state = apply_events(events, initial=state_from_base(base))

    base_ids = sorted(base["doc_id"].to_pylist())[:40]
    chosen = [i for i in base_ids if i in state][:10]
    injected = {}
    for sid in chosen:
        toks = state[sid]["tokens"] or []
        injected[f"nd-{sid}"] = [7] + list(toks[1:]) if toks else [7]
    final = {d: (r["tokens"] or []) for d, r in state.items()}
    final.update(injected)

    # --- token-unit minhash signatures (mirror TokenMinHasher) ---
    mersenne = (1 << 61) - 1
    rng = np.random.default_rng(seed)
    a = rng.integers(1, mersenne, size=num_hashes, dtype=np.uint64).tolist()
    b = rng.integers(0, mersenne, size=num_hashes, dtype=np.uint64).tolist()
    rows_per_band = num_hashes // bands
    K1, K2, K3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def tok_shingles(toks: list[int]) -> list[int]:
        if not toks:
            return []
        if len(toks) < 3:
            h = (toks[0] * K1 ^ ((toks[1] * K2) & _M64 if len(toks) > 1 else 0)) & _M64
            return [_mix64(h)]
        return [
            _mix64(
                (toks[i] * K1 ^ (toks[i + 1] * K2 & _M64) ^ (toks[i + 2] * K3 & _M64))
                & _M64
            )
            for i in range(len(toks) - 2)
        ]

    buckets: dict[tuple[int, int], list[str]] = {}
    band_keys: dict[str, list[int]] = {}
    for did, toks in final.items():
        sig = _minhash_sig(tok_shingles(toks), a, b, mersenne)
        keys = []
        for band in range(bands):
            acc = 0
            for j in range(rows_per_band):
                acc = _mix64(acc ^ sig[band * rows_per_band + j])
            keys.append(acc)
            buckets.setdefault((band, acc), []).append(did)
        band_keys[did] = keys

    cands = set()
    for pid in injected:
        for band, acc in enumerate(band_keys[pid]):
            members = buckets[(band, acc)]
            if len(members) > max_per_key:  # degenerate-key drop (engine mirror)
                continue
            for other in members:
                if other != pid:
                    cands.add((min(pid, other), max(pid, other)))

    def jac_shingles(t: list[int]) -> set:
        if not t:
            return set()
        if len(t) < 3:
            return {tuple(t)}
        return {tuple(t[i : i + 3]) for i in range(len(t) - 2)}

    verified = []
    for x, y in sorted(cands):
        sa, sb = jac_shingles(final[x]), jac_shingles(final[y])
        if not sa and not sb:
            jv = 1.0
        else:
            u = len(sa | sb)
            jv = (len(sa & sb) / u) if u else 0.0
        if jv >= threshold:
            verified.append((x, y))
    return pa.table(
        {
            "a": pa.array([p[0] for p in verified], pa.string()),
            "b": pa.array([p[1] for p in verified], pa.string()),
        }
    )


# ------------------------------------------------------------- dispatch

def expected_doc_history(sf_dir: str) -> pa.Table:
    """Expected provenance events for q_doc_history: sequential scalar
    replay (oracle.apply_events) of the graded stream to each of the
    MOR lake's tick watermarks (n/3, 2n/3, n), then per sampled doc an
    I/U/D event whenever its image appears/changes/disappears between
    consecutive versions (pre-delete image on D — the engine's
    Delta-CDF convention), version 1 = the init snapshot."""
    import glob

    from .oracle import apply_events, state_from_base
    from .pipelines.queries import _history_doc_sample, cdc_fixture

    sf_tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    cfg, base_dir, ev_dir, _lake = cdc_fixture(sf_tag)
    base = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(os.path.join(base_dir, "*.parquet")))]
    )
    events = [pq.read_table(f) for f in sorted(glob.glob(os.path.join(ev_dir, "*.parquet")))]
    rows: list[dict] = []
    for t in events:
        rows.extend(t.to_pylist())
    n = cfg.n_events
    states = [state_from_base(base)]
    for hi in (n // 3, 2 * n // 3, n):
        win = pa.Table.from_pylist([r for r in rows if r["lsn"] <= hi], schema=events[0].schema)
        states.append(apply_events([win], initial=state_from_base(base)))

    def image(s, d):
        r = s.get(d)
        return None if r is None else (tuple(r["tokens"] or []), r["n_tok"], r["source"])

    out = {"version": [], "change_op": [], "doc_id": [], "n_tok": [], "source": [], "token_sum": []}

    def emit(v, op, d, img):
        out["version"].append(v)
        out["change_op"].append(op)
        out["doc_id"].append(d)
        out["n_tok"].append(int(img[1]))
        out["source"].append(img[2])
        out["token_sum"].append(int(sum(img[0])))

    for d in _history_doc_sample(ev_dir):
        prev = None
        for v, s in zip((1, 2, 3, 4), states):
            cur = image(s, d)
            if prev is None and cur is not None:
                emit(v, "I", d, cur)
            elif prev is not None and cur is None:
                emit(v, "D", d, prev)  # pre-delete image
            elif prev is not None and cur is not None and cur != prev:
                emit(v, "U", d, cur)
            prev = cur
    t = pa.table(
        {
            "version": pa.array(out["version"], pa.int64()),
            "change_op": pa.array(out["change_op"], pa.string()),
            "doc_id": pa.array(out["doc_id"], pa.string()),
            "n_tok": pa.array(out["n_tok"], pa.int64()),
            "source": pa.array(out["source"], pa.string()),
            "token_sum": pa.array(out["token_sum"], pa.int64()),
        }
    )
    return t.sort_by([("doc_id", "ascending"), ("version", "ascending")])


_SM_GOLD = 0x9E3779B97F4A7C15
_SM_D1 = 0xD6E8FEB86659FD93
_M64 = (1 << 64) - 1


def _mix64_scalar(x: int) -> int:
    """splitmix64 finalizer on python ints (scalar dual of
    ann_index._mix64)."""
    x = (x + _SM_GOLD) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def _embed_scalar(tokens: list[int], dim: int, seed: int) -> np.ndarray:
    """Scalar dual of ann_index.token_embeddings for ONE doc: python-int
    hashing, sequential float accumulation in the same order, then the
    same numpy normalization — bit-identical to the vectorized path."""
    vec = np.zeros(dim, dtype=np.float64)
    for j in range(dim):
        cj = _mix64_scalar((seed * _SM_D1 ^ j) & _M64)
        acc = 0.0
        for t in tokens or []:
            h = _mix64_scalar((t * _SM_GOLD ^ cj) & _M64)
            acc += (h >> 11) / float(1 << 53) * 2.0 - 1.0
        vec[j] = acc
    n = np.linalg.norm(vec)
    return vec / n if n > 1e-12 else vec


def expected_ann_search(
    sf_dir: str,
    dim: int = 16,
    n_cells: int = 16,
    seed: int = 7,
    sample: int = 256,
    k: int = 5,
    nprobe: int = 4,
) -> pa.Table:
    """Expected neighbors for q_ann_maintained: sequential scalar
    replay of the stream to the creation tick (n/3) for the quantizer
    training sample and to the head for the corpus; scalar splitmix64
    embeddings; shared kmeans_lite quantizer (an input constant, the
    expected_knn_ivf convention); exhaustive probe-and-score with the
    engine's (−sim, doc_id) tie order."""
    import glob

    from .oracle import apply_events, state_from_base
    from .pipelines.queries import _history_doc_sample, cdc_fixture
    from .stages.similarity import kmeans_lite

    sf_tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    cfg, base_dir, ev_dir, _lake = cdc_fixture(sf_tag)
    base = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(os.path.join(base_dir, "*.parquet")))]
    )
    events = [pq.read_table(f) for f in sorted(glob.glob(os.path.join(ev_dir, "*.parquet")))]
    rows: list[dict] = []
    for t in events:
        rows.extend(t.to_pylist())
    n = cfg.n_events
    win = pa.Table.from_pylist(
        [r for r in rows if r["lsn"] <= n // 3], schema=events[0].schema
    )
    state_v2 = apply_events([win], initial=state_from_base(base))
    state_final = apply_events(events, initial=state_from_base(base))

    head = sorted(state_v2)[:sample]
    C = kmeans_lite(
        np.vstack([_embed_scalar(state_v2[d]["tokens"], dim, seed) for d in head]),
        n_cells=n_cells,
        seed=seed,
    )
    emb = {d: _embed_scalar(v["tokens"], dim, seed) for d, v in state_final.items()}
    cells = {d: int(np.argmax(C @ v)) for d, v in emb.items()}

    out_q, out_d, out_r = [], [], []
    for qd in _history_doc_sample(ev_dir, k=8):
        if qd not in state_final:
            continue  # deleted docs have no current image to query with
        qv = emb[qd]
        probe = set(np.argsort(-(C @ qv))[:nprobe].tolist())
        scored = sorted(
            ((float(v @ qv), d) for d, v in emb.items() if cells[d] in probe),
            key=lambda t: (-t[0], t[1]),
        )
        for rank, (_s, d) in enumerate(scored[:k], start=1):
            out_q.append(qd), out_d.append(d), out_r.append(rank)
    t = pa.table(
        {
            "query_doc": pa.array(out_q, pa.string()),
            "doc_id": pa.array(out_d, pa.string()),
            "rank": pa.array(out_r, pa.int64()),
        }
    )
    return t.sort_by([("query_doc", "ascending"), ("rank", "ascending")])


def expected_mp4_metadata(_sf: str, n: int = 60) -> pa.Table:
    """Spec-derived metadata for synth_mp4_table(60, seed=11): every
    value computed from the fixture parameters WITHOUT parsing any
    bytes — the query must recover them through encode → BMFF parse."""
    from .stages.multimodal import (
        MP4_FIXTURE_DIMS,
        MP4_FIXTURE_FPS,
        mp4_fixture_frames,
    )

    rows = {k: [] for k in (
        "media_id", "brand", "duration_ms", "n_tracks", "handler",
        "codec", "width", "height", "n_samples",
    )}
    for i in range(n):
        w, h = MP4_FIXTURE_DIMS[i % len(MP4_FIXTURE_DIMS)]
        f = mp4_fixture_frames(i)
        rows["media_id"].append(f"mp4{i:06d}")
        rows["brand"].append("isom")
        rows["duration_ms"].append((f * 1000) // MP4_FIXTURE_FPS)
        rows["n_tracks"].append(1)
        rows["handler"].append("vide")
        rows["codec"].append("raw ")
        rows["width"].append(w)
        rows["height"].append(h)
        rows["n_samples"].append(f)
    return pa.table(
        {
            "media_id": pa.array(rows["media_id"], pa.string()),
            "brand": pa.array(rows["brand"], pa.string()),
            "duration_ms": pa.array(rows["duration_ms"], pa.int64()),
            "n_tracks": pa.array(rows["n_tracks"], pa.int64()),
            "handler": pa.array(rows["handler"], pa.string()),
            "codec": pa.array(rows["codec"], pa.string()),
            "width": pa.array(rows["width"], pa.int64()),
            "height": pa.array(rows["height"], pa.int64()),
            "n_samples": pa.array(rows["n_samples"], pa.int64()),
        }
    )


def expected_evtx_parse(_sf: str, n: int = 50, seed: int = 3) -> pa.Table:
    """Spec-derived rows for synth_evtx_table(50, seed=3): every value
    computed from evtx_fixture_records' parameters without parsing."""
    from .stages.evtx import evtx_fixture_records

    fids, rids, tss, texts = [], [], [], []
    for i in range(n):
        for rid, ts_us, xml in evtx_fixture_records(i, seed):
            fids.append(f"evtx{i:06d}")
            rids.append(rid)
            tss.append(ts_us)
            texts.append(xml)
    t = pa.table(
        {
            "file_id": pa.array(fids, pa.string()),
            "record_id": pa.array(rids, pa.int64()),
            "ts_us": pa.array(tss, pa.int64()),
            "payload_text": pa.array(texts, pa.string()),
        }
    )
    return t.sort_by("record_id")


def expected_ftp_roundtrip(_sf: str, n: int = 24) -> pa.Table:
    """Recomputes the graded ftp_roundtrip output from the shared
    fixture generator — no FTP, no server."""
    import hashlib

    from .sources.ftp import ftp_fixture_content

    paths, sizes, digs = [], [], []
    for i in range(n):
        c = ftp_fixture_content(i)
        paths.append(f"/f{i:03d}.bin")
        sizes.append(len(c))
        digs.append(hashlib.sha256(c).hexdigest())
    return pa.table(
        {
            "path": pa.array(paths, pa.string()),
            "n_bytes": pa.array(sizes, pa.int64()),
            "sha256": pa.array(digs, pa.string()),
        }
    ).sort_by("path")


def expected_email_parse(_sf: str, n: int = 40) -> pa.Table:
    """Recomputes the graded email_parse output from the fixture field
    functions — the email parser never runs here."""
    import hashlib

    from .stages.parsers import email_fixture_attachment, email_fixture_fields

    cols = {k: [] for k in (
        "msg_id", "email_from", "email_to", "email_subject", "email_date",
        "email_body", "attachment_name", "attachment_sha256",
    )}
    for i in range(n):
        f = email_fixture_fields(i)
        cols["msg_id"].append(f"m{i:05d}")
        cols["email_from"].append(f["from"])
        cols["email_to"].append(f["to"])
        cols["email_subject"].append(f["subject"])
        cols["email_date"].append(f["date"])
        cols["email_body"].append(f["body"])
        cols["attachment_name"].append(f["attachment_name"])
        cols["attachment_sha256"].append(
            hashlib.sha256(email_fixture_attachment(i)).hexdigest()
        )
    return pa.table({k: pa.array(v, pa.string()) for k, v in cols.items()}).sort_by(
        "msg_id"
    )


def expected_hl7_parse(_sf: str, n: int = 48) -> pa.Table:
    """Recomputes the graded hl7_parse output from the fixture
    parameters — no segment splitting."""
    cols = {k: [] for k in (
        "msg_id", "hl7_sending_app", "hl7_sending_facility",
        "hl7_message_type", "hl7_control_id", "hl7_version", "hl7_valid",
        "patient_id", "patient_name",
    )}
    for i in range(n):
        cols["msg_id"].append(f"h{i:05d}")
        cols["hl7_sending_app"].append(f"APP{i % 7}")
        cols["hl7_sending_facility"].append(f"FAC{i % 3}")
        cols["hl7_message_type"].append(f"ADT^A0{i % 4 + 1}")
        cols["hl7_control_id"].append(f"CID{i:05d}")
        cols["hl7_version"].append("2.5.1")
        cols["hl7_valid"].append(True)
        cols["patient_id"].append(f"PAT{i:06d}")
        cols["patient_name"].append(f"Name{i}^First{i}")
    arrays = {
        k: pa.array(v, pa.bool_() if k == "hl7_valid" else pa.string())
        for k, v in cols.items()
    }
    return pa.table(arrays).sort_by("msg_id")


def expected_http_fetch(_sf: str, n: int = 32) -> pa.Table:
    """Recomputes the graded http_fetch output from the shared content
    generator — no server, no request."""
    import hashlib

    from .stages.http import http_fixture_content

    paths, sizes, digs = [], [], []
    for i in range(n):
        c = http_fixture_content(i)
        paths.append(f"/p{i:03d}")
        sizes.append(len(c))
        digs.append(hashlib.sha256(c).hexdigest())
    return pa.table(
        {
            "path": pa.array(paths, pa.string()),
            "status_code": pa.array([200] * n, pa.int64()),
            "n_bytes": pa.array(sizes, pa.int64()),
            "sha256": pa.array(digs, pa.string()),
        }
    ).sort_by("path")


def expected_mime_identify(_sf: str, n: int = 64) -> pa.Table:
    from .stages.parsers import mime_fixture_payload

    return pa.table(
        {
            "media_id": pa.array([f"b{i:05d}" for i in range(n)], pa.string()),
            "mime_type": pa.array(
                [mime_fixture_payload(i)[1] for i in range(n)], pa.string()
            ),
        }
    ).sort_by("media_id")


def expected_listing_watermark(_sf: str) -> pa.Table:
    import hashlib

    from .sources.listing import listing_fixture_content

    rows = []
    for i in range(10):
        rows.append((1, f"f{i:03d}.bin", i))
    rows.append((2, "f010.bin", 10))
    rows.append((2, "f011.bin", 11))
    return pa.table(
        {
            "pass_no": pa.array([r[0] for r in rows], pa.int64()),
            "name": pa.array([r[1] for r in rows], pa.string()),
            "sha256": pa.array(
                [hashlib.sha256(listing_fixture_content(r[2])).hexdigest()
                 for r in rows],
                pa.string(),
            ),
        }
    ).sort_by([("pass_no", "ascending"), ("name", "ascending")])


def expected_monitor_lag(sf_dir: str) -> pa.Table:
    """Per-partition max applied LSN + lag for the monitor_lag query:
    replaying events with ``0 < lsn <= 2/3·head`` into a fresh
    8-partition lake leaves each TOUCHED partition's manifest max_lsn
    at the max lsn routed to it (the tick stamps a touched partition
    with its group max), untouched partitions at the init value 0;
    per-partition lag = head - max(max_lsn, applied_through) clamped
    at 0, and applied_through = cutoff ≥ every group max, so lag is
    uniformly head - cutoff (state/metrics.lag_report's formula).
    Partitioner dual: scalar zlib.crc32 per doc_id, python-int modulo
    (vs the engine's vectorized util.hashing.partition_of)."""
    import glob

    from .pipelines.queries import cdc_fixture

    sf_tag = os.path.basename(os.path.normpath(sf_dir)) or "sf0.01"
    _cfg, _base, ev_dir, _lake = cdc_fixture(sf_tag)
    n_parts = 8
    head = 0
    rows = []
    for f in sorted(glob.glob(os.path.join(ev_dir, "*.parquet"))):
        t = pq.read_table(f, columns=["lsn", "doc_id"])
        for lsn, did in zip(t["lsn"].to_pylist(), t["doc_id"].to_pylist()):
            head = max(head, int(lsn))
            rows.append((int(lsn), str(did)))
    cutoff = (head * 2) // 3
    maxes = [0] * n_parts
    for lsn, did in rows:
        if 0 < lsn <= cutoff:  # replay applies applied_through < lsn <= hi
            p = zlib.crc32(did.encode()) % n_parts
            maxes[p] = max(maxes[p], lsn)
    lag = max(0, head - cutoff)
    return pa.table(
        {
            "partition": pa.array(range(n_parts), pa.int64()),
            "max_lsn": pa.array(maxes, pa.int64()),
            "lag": pa.array([lag] * n_parts, pa.int64()),
        }
    )


def expected_semdedup(sf_dir: str, n_cells: int = 8, tau: float = 0.30) -> pa.Table:
    """Sequential SemDeDup (queries.q_semdedup semantics): shared
    deterministic quantizer (kmeans_lite is an input constant, not the
    machinery under test), scalar per-vector cell assignment, then a
    per-cell greedy pass in vec_id order keeping an item iff every
    already-kept item's cosine stays below tau — pairwise scalar dots,
    not the engine's kept-matrix matvec."""
    from .stages.similarity import kmeans_lite

    tbl = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pylist()
    C = kmeans_lite(
        np.vstack([np.asarray(r["embedding"]) for r in tbl[:256]]),
        n_cells=n_cells,
        seed=0,
    )

    def unit(v):
        n = np.linalg.norm(v)
        return v / n if n > 1e-12 else v

    rows = sorted(
        (
            (int(r["vec_id"]), unit(np.asarray(r["embedding"], dtype=np.float64)))
            for r in tbl
        ),
        key=lambda t: t[0],
    )
    cells = {vid: int(np.argmax(C @ v)) for vid, v in rows}
    kept_by_cell: dict[int, list[np.ndarray]] = {}
    out_id, out_cell, out_kept = [], [], []
    for vid, v in rows:
        c = cells[vid]
        kept_list = kept_by_cell.setdefault(c, [])
        keep = all(float(u @ v) < tau for u in kept_list)
        if keep:
            kept_list.append(v)
        out_id.append(vid), out_cell.append(c), out_kept.append(keep)
    return pa.table(
        {
            "vec_id": pa.array(out_id, pa.int64()),
            "cell": pa.array(out_cell, pa.int32()),
            "kept": pa.array(out_kept, pa.bool_()),
        }
    )


# ------------------------------------------------------------- bpe_train


def expected_bpe_train(sf_dir: str, n_merges: int = 12) -> pa.Table:
    """Sequential subword-nmt-style BPE trainer: a plain dict vocab,
    each round recounts adjacent pairs over the CURRENT segmentation
    and rewrites every word by merging the winner left-to-right
    non-overlapping (incremental form — the engine instead re-segments
    from scratch by rank replay each round; the two must coincide)."""
    import re

    counts: dict[str, int] = {}
    for row in _read_docs(sf_dir):
        for w in re.findall(r"[a-z0-9]+", (row["text"] or "").lower()):
            counts[w] = counts.get(w, 0) + 1
    seg = {w: list(w) for w in counts}

    out_rows = []
    for k in range(n_merges):
        pairs: dict[tuple[str, str], int] = {}
        for w, syms in seg.items():
            n = counts[w]
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pairs[p] = pairs.get(p, 0) + n
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        (left, right), freq = best
        if freq < 2:
            break
        out_rows.append((k + 1, left, right, freq))
        merged = left + right
        for w, syms in seg.items():
            if left not in syms:
                continue
            ns: list[str] = []
            i = 0
            while i < len(syms):
                if i < len(syms) - 1 and syms[i] == left and syms[i + 1] == right:
                    ns.append(merged)
                    i += 2
                else:
                    ns.append(syms[i])
                    i += 1
            seg[w] = ns
    return pa.table(
        {
            "rank": pa.array([r[0] for r in out_rows], pa.int64()),
            "left": pa.array([r[1] for r in out_rows], pa.string()),
            "right": pa.array([r[2] for r in out_rows], pa.string()),
            "freq": pa.array([r[3] for r in out_rows], pa.int64()),
        }
    )


def expected_bpe_encode(sf_dir: str, n_merges: int = 12) -> pa.Table:
    """Sequential encode: train via expected_bpe_train's incremental
    path, then apply the merges IN LEARNED ORDER to each word of each
    doc (no rank replay, no memo — the independent application form)."""
    import re

    m = expected_bpe_train(sf_dir, n_merges)
    merges = list(zip(m["left"].to_pylist(), m["right"].to_pylist()))
    ids, ns = [], []
    for row in _read_docs(sf_dir):
        tot = 0
        for w in re.findall(r"[a-z0-9]+", (row["text"] or "").lower()):
            syms = list(w)
            for left, right in merges:
                out, i = [], 0
                while i < len(syms):
                    if (
                        i < len(syms) - 1
                        and syms[i] == left
                        and syms[i + 1] == right
                    ):
                        out.append(left + right)
                        i += 2
                    else:
                        out.append(syms[i])
                        i += 1
                syms = out
            tot += len(syms)
        ids.append(row["doc_id"])
        ns.append(tot)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_bpe_tokens": pa.array(ns, pa.int64()),
        }
    )


# ----------------------------------------------------------- kmeans_train


def expected_kmeans_train(sf_dir: str, k: int = 6, iters: int = 3) -> pa.Table:
    """Sequential full-corpus Lloyd spherical k-means
    (queries.q_kmeans_train semantics): rows in vec_id order, init =
    first k unit vectors, per-iteration argmax assignment followed by a
    per-cell sum in vec_id order (numpy's pairwise summation over the
    same-ordered float64 matrix reproduces the engine's
    order-canonicalized distributed reduction bitwise), centroids
    rounded to 9 dp between iterations. A trailing report pass against
    the FINAL centroids yields (cell, n_members, avg_sim, c0, c1)."""
    tbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    ).sort_by("vec_id")
    X = np.vstack(tbl["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    X = X / np.clip(np.linalg.norm(X, axis=1, keepdims=True), 1e-12, None)
    C = np.round(X[:k].copy(), 9)

    def _assign(cur: np.ndarray) -> np.ndarray:
        return np.argmax(X @ cur.T, axis=1)

    for _ in range(iters):
        assign = _assign(C)
        newC = C.copy()
        for c in range(k):
            members = X[assign == c]
            if len(members):
                S = members.sum(axis=0)
                norm = np.linalg.norm(S)
                if norm > 1e-12:
                    newC[c] = S / norm
        C = np.round(newC, 9)

    assign = _assign(C)
    cells, ns, avg, c0, c1 = [], [], [], [], []
    for c in range(k):
        members = X[assign == c]
        if not len(members):
            continue
        sims = members @ C[c]
        cells.append(c)
        ns.append(len(members))
        avg.append(round(float(np.sum(sims)) / len(members), 6))
        c0.append(round(float(C[c, 0]), 6))
        c1.append(round(float(C[c, 1]), 6))
    return pa.table(
        {
            "cell": pa.array(cells, pa.int32()),
            "n_members": pa.array(ns, pa.int64()),
            "avg_sim": pa.array(avg, pa.float64()),
            "c0": pa.array(c0, pa.float64()),
            "c1": pa.array(c1, pa.float64()),
        }
    )


# ------------------------------------------------------------ hll_distinct


def expected_hll_distinct(sf_dir: str) -> pa.Table:
    """Sequential HyperLogLog (queries.q_hll_distinct semantics): hash
    each whole column once, build one register array, estimate. The
    engine's per-batch max-merged registers must equal this single-pass
    array exactly (max-merge is associative/commutative/idempotent), so
    the integer estimates coincide bit-for-bit."""
    from .stages.sketch import hll_estimate, hll_registers

    cols = ["event_type", "user_id"]  # output sorted by column name
    tbl = pq.read_table(os.path.join(sf_dir, "events.parquet"), columns=cols)
    return pa.table(
        {
            "column": pa.array(cols, pa.string()),
            "est_distinct": pa.array(
                [hll_estimate(hll_registers(tbl[c])) for c in cols], pa.int64()
            ),
        }
    )


# ------------------------------------------------- content-defined chunking


def expected_cdc_chunking(sf_dir: str) -> pa.Table:
    """Sequential per-document re-chunking (queries.q_cdc_chunking
    semantics): chunk each document ALONE via the single-doc kernel
    (stages/chunking.chunk_spans) — agreement with the engine's
    flattened-batch kernel proves batch composition cannot move a
    boundary."""
    import hashlib

    from .stages.chunking import chunk_spans

    tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    n_chunks, max_len, sigs = [], [], []
    for t in tbl["text"].to_pylist():
        buf = t.encode("utf-8")
        sp = chunk_spans(buf)
        digests = b"".join(
            hashlib.blake2b(buf[s:e], digest_size=8).digest() for s, e in sp
        )
        n_chunks.append(len(sp))
        max_len.append(max((e - s for s, e in sp), default=0))
        sigs.append(hashlib.blake2b(digests, digest_size=8).hexdigest())
    return pa.table(
        {
            "doc_id": tbl["doc_id"],
            "n_chunks": pa.array(n_chunks, pa.int64()),
            "max_chunk_len": pa.array(max_len, pa.int64()),
            "chunk_sig": pa.array(sigs, pa.string()),
        }
    )


def expected_chunk_dedup(sf_dir: str) -> pa.Table:
    """Sequential chunk-store stats: one dict over every chunk of every
    document, chunked per-document via the single-doc kernel."""
    import hashlib

    from .stages.chunking import chunk_spans

    tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    store: dict[str, int] = {}
    total_chunks = total_bytes = 0
    for t in tbl["text"].to_pylist():
        buf = t.encode("utf-8")
        for s, e in chunk_spans(buf):
            h = hashlib.blake2b(buf[s:e], digest_size=8).hexdigest()
            store.setdefault(h, e - s)
            total_chunks += 1
            total_bytes += e - s
    return pa.table(
        {
            "total_chunks": pa.array([total_chunks], pa.int64()),
            "unique_chunks": pa.array([len(store)], pa.int64()),
            "total_bytes": pa.array([total_bytes], pa.int64()),
            "unique_bytes": pa.array([sum(store.values())], pa.int64()),
        }
    )


def expected_count_min(sf_dir: str) -> pa.Table:
    """Sequential Count-Min (queries.q_count_min semantics): build ONE
    counter matrix in a single pass over the whole column — the
    engine's per-block sum-merged partials must equal it exactly
    (elementwise sum is associative/commutative), so the min-over-depth
    estimates coincide bit-for-bit. Exact counts come from a plain
    Python Counter, independent of the engine's combiner groupby."""
    from collections import Counter

    from .stages.sketch import cms_counts, cms_estimate

    tbl = pq.read_table(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type"]
    )
    counts = cms_counts(tbl["event_type"], 4096)
    exact = Counter(v for v in tbl["event_type"].to_pylist() if v is not None)
    keys = sorted(exact)
    karr = pa.array(keys, pa.string())
    est = cms_estimate(counts, karr, 4096)
    return pa.table(
        {
            "event_type": karr,
            "n_exact": pa.array([exact[k] for k in keys], pa.int64()),
            "n_est": pa.array(est, pa.int64()),
        }
    )


def expected_windowed_hll(sf_dir: str, window_sec: int = 86400) -> pa.Table:
    """Sequential dual of q_windowed_hll: bucket events by tumbling
    window, build ONE register array per window over the whole column,
    estimate. Max-merge associativity means the engine's per-batch
    partial registers must equal this single-pass array exactly."""
    import numpy as np

    from .stages.sketch import hll_estimate, hll_registers

    tbl = pq.read_table(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )
    epoch = tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    size_us = window_sec * 1_000_000
    wstart = (epoch // size_us) * size_us
    uid = tbl["user_id"]
    wins, ests = [], []
    for w in np.unique(wstart):
        mask = pa.array(wstart == w)
        wins.append(int(w) // 1_000_000)
        ests.append(hll_estimate(hll_registers(uid.filter(mask))))
    return pa.table(
        {
            "window_start": pa.array(wins, pa.int64()),
            "est_distinct": pa.array(ests, pa.int64()),
        }
    )


def expected_rocchio_classify(sf_dir: str) -> pa.Table:
    """Sequential scalar dual of q_rocchio_classify: per-label members
    in vec_id order → normalized-row sums (numpy pairwise summation
    over the same-ordered matrix reproduces the engine's
    order-canonical groupby reduction bitwise) → unit centroids
    rounded to 9 dp → full-matrix argmax assignment → (label, pred, n)
    Counter. No Ray."""
    from collections import Counter

    import numpy as np

    tbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"],
    ).sort_by("vec_id")
    X = np.vstack(tbl["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    X = X / np.clip(np.linalg.norm(X, axis=1, keepdims=True), 1e-12, None)
    y = [int(v) for v in tbl["label"].to_pylist()]
    labels = sorted(set(y))
    C = np.zeros((len(labels), X.shape[1]), np.float64)
    for i, lab in enumerate(labels):
        m = np.array([v == lab for v in y])
        S = X[m].sum(axis=0)  # rows already in vec_id order
        norm = np.linalg.norm(S)
        if norm > 1e-12:
            C[i] = S / norm
    C = np.round(C, 9)
    pred = np.argmax(X @ C.T, axis=1)
    counts = Counter(zip(y, (labels[i] for i in pred)))
    keys = sorted(counts)
    return pa.table(
        {
            "label": pa.array([k[0] for k in keys], pa.int64()),
            "pred": pa.array([k[1] for k in keys], pa.int64()),
            "n": pa.array([counts[k] for k in keys], pa.int64()),
        }
    )


def expected_kll_quantiles(sf_dir: str) -> pa.Table:
    """Sequential scalar replay of q_kll_quantiles' shard-canonical
    plan: numpy-partition events by event_id // 4096, build each
    shard's sketch from rows sorted by (event_id, value), fold in
    ascending shard order. Same KLLSketch kernel, zero Ray — agreement
    proves the DISTRIBUTED orchestration (groupby sharding, partial
    serialization, driver fold order) moved nothing."""
    import numpy as np

    from .stages.sketch import KLLSketch

    tbl = pq.read_table(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "value"]
    )
    eid = tbl["event_id"].to_numpy(zero_copy_only=False)
    val = tbl["value"].to_numpy(zero_copy_only=False)
    shard = eid // 4096
    acc = KLLSketch()
    for s in np.unique(shard):  # ascending — the canonical fold order
        m = shard == s
        order = np.lexsort((val[m], eid[m]))
        sk = KLLSketch()
        sk.add_many(val[m][order])
        acc.merge(sk)
    q_pct = [1, 5, 10, 25, 50, 75, 90, 95, 99]
    est = acc.quantiles([p / 100.0 for p in q_pct])
    return pa.table(
        {
            "q_pct": pa.array(q_pct, pa.int64()),
            "est": pa.array(np.round(est, 9), pa.float64()),
            "n": pa.array([acc.n] * len(q_pct), pa.int64()),
        }
    )


def expected_dsir_resample(sf_dir: str, k: int = 32) -> pa.Table:
    """Sequential DSIR replay (queries.q_dsir_resample semantics): the
    bucket counts are re-derived one document at a time with the scalar
    hashing chain (zlib.crc32 → _mix64 mod B — independent of the
    engine's vectorized crc32_of_strings/mix_u64), the per-doc weights
    by a scalar Python sum. The log-ratio table and the Gumbel keys are
    the repo's shared deterministic conventions (one 4096-wide numpy
    expression / md5-uniform), identical on both sides by design."""
    import hashlib
    import re

    from .stages.packing import DSIR_B, dsir_log_ratio_micro

    tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )
    # scalar word fold: Arrow utf8_lower (the ONE shared fold) applied
    # per document, ASCII regex split identical to split_pattern_regex
    import pyarrow.compute as _pc

    def doc_buckets(text: str) -> list[int]:
        low = _pc.utf8_lower(pa.scalar(text or "", pa.string())).as_py()
        return [
            _mix64(zlib.crc32(w.encode()) & 0xFFFFFFFF) % DSIR_B
            for w in re.split(r"[^a-z0-9]+", low)
            if w
        ]

    docs = tbl.to_pylist()
    per_doc = [doc_buckets(d["text"]) for d in docs]
    tgt = np.zeros(DSIR_B, np.int64)
    raw = np.zeros(DSIR_B, np.int64)
    for d, bks in zip(docs, per_doc):
        for b in bks:
            raw[b] += 1
            if d["lang"] == "en":
                tgt[b] += 1
    lr = dsir_log_ratio_micro(tgt, raw)

    ids = [d["doc_id"] for d in docs]
    w = np.array([sum(int(lr[b]) for b in bks) for bks in per_doc], np.int64)
    hu = np.array(
        [int.from_bytes(hashlib.md5(str(v).encode()).digest()[:4], "big")
         for v in ids],
        np.float64,
    )
    u = (hu + 0.5) / 2.0**32
    g = -np.log(-np.log(u)) * 1e6
    g_int = (np.sign(g) * np.floor(np.abs(g) + 0.5)).astype(np.int64)
    key = w + g_int
    order = sorted(range(len(ids)), key=lambda i: (-int(key[i]), ids[i]))[:k]
    return pa.table(
        {
            "doc_id": pa.array([ids[i] for i in order], pa.int64()),
            "dsir_w": pa.array([int(w[i]) for i in order], pa.int64()),
            "dsir_key": pa.array([int(key[i]) for i in order], pa.int64()),
        }
    )


def expected_compression_ratio(sf_dir: str) -> pa.Table:
    """Per-doc zlib compression-ratio gate
    (stages/quality.compression_stats semantics): n_bytes = utf8 byte
    length, n_zlib = len(zlib.compress(bytes, 6)), keep = 1 iff
    10*n_zlib >= 3*n_bytes or n_bytes < 64. Sequential scalar loop;
    both sides call the one deterministic zlib C library."""
    ids, n_bytes, n_zlib, keep = [], [], [], []
    for r in _read_docs(sf_dir):
        raw = (r["text"] or "").encode()
        nb, nz = len(raw), len(zlib.compress(raw, 6))
        ids.append(str(r["doc_id"]))
        n_bytes.append(nb)
        n_zlib.append(nz)
        keep.append(1 if (10 * nz >= 3 * nb or nb < 64) else 0)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.string()),
            "n_bytes": pa.array(n_bytes, pa.int64()),
            "n_zlib": pa.array(n_zlib, pa.int64()),
            "keep": pa.array(keep, pa.int32()),
        }
    )


EXPECTED_BUILDERS = {
    "compression_ratio": expected_compression_ratio,
    "cdc_chunking": expected_cdc_chunking,
    "chunk_dedup": expected_chunk_dedup,
    "kmeans_train": expected_kmeans_train,
    "hll_distinct": expected_hll_distinct,
    "monitor_lag": expected_monitor_lag,
    "mime_identify": expected_mime_identify,
    "listing_watermark": expected_listing_watermark,
    "evtx_parse": expected_evtx_parse,
    "ftp_roundtrip": expected_ftp_roundtrip,
    "email_parse": expected_email_parse,
    "hl7_parse": expected_hl7_parse,
    "http_fetch": expected_http_fetch,
    "mp4_metadata": expected_mp4_metadata,
    "streaming_neardup": expected_streaming_neardup,
    "doc_history": expected_doc_history,
    "ann_maintained": expected_ann_search,
    "export_shards": expected_export_shards,
    "simhash": expected_simhash,
    "simhash_pairs": expected_simhash_pairs,
    "dedup_spans": expected_dedup_spans,
    "pagerank": expected_pagerank,
    "winnow_fingerprints": expected_winnow,
    "lang_id": expected_lang_id,
    "embedding_neardup": expected_embedding_neardup,
    "multimodal_decode": lambda _sf: expected_multimodal_decode(),
    "image_decode": expected_image_decode,
    "image_resize": expected_image_resize,
    "audio_decode": expected_audio_decode,
    "video_frames": expected_video_frames,
    "minhash_pairs": expected_minhash_pairs,
    "minhash_dup_groups": expected_minhash_dup_groups,
    "neardup_keep": expected_neardup_keep,
    "knn_ivf": expected_knn_ivf,
    "semdedup": expected_semdedup,
    "bpe_train": expected_bpe_train,
    "bpe_encode": expected_bpe_encode,
    "count_min": expected_count_min,
    "dsir_resample": expected_dsir_resample,
    "kll_quantiles": expected_kll_quantiles,
    "mp4_codec_routing": expected_mp4_codec_routing,
    "rocchio_classify": expected_rocchio_classify,
    "windowed_hll": expected_windowed_hll,
}


def expected_table_path(name: str, sf_dir: str) -> str:
    """Materialize ONE expected table as parquet (skip-if-exists,
    atomic rename) and return its path. The single cache entry point:
    oracle SQL and the schema-parity lint both read through it, so a
    builder runs at most once per (name, sf, source hash) on a machine — the
    lint previously called builders directly and re-ran every scalar
    dual (incl. the pure-Python JPEG decodes) on EVERY pytest run."""
    sf_tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    out_dir = os.path.join(tempfile.gettempdir(), f"nifi_ray_expected_{sf_tag}_r{_REV}")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.parquet")
    if not os.path.exists(path):
        tbl = EXPECTED_BUILDERS[name](sf_dir)
        tmp = path + f".tmp.{os.getpid()}"
        pq.write_table(tbl, tmp)
        os.replace(tmp, path)
    return path


def expected_oracle_sql(sf_dir: str) -> dict[str, str]:
    """DuckDB SQL reading each expected table's cached parquet.
    Failure isolation is PER NAME: one raising builder un-grades only
    its own query (loud traceback to stderr) — before r5 the whole
    expected family was one builder group, so a single broken fixture
    silently downgraded every ☆-query to rows-only grading."""
    import sys
    import traceback

    out = {}
    for name in EXPECTED_BUILDERS:
        try:
            out[name] = (
                f"SELECT * FROM read_parquet('{expected_table_path(name, sf_dir)}')"
            )
        except Exception:
            print(
                f"[nifi_ray] EXPECTED BUILDER {name!r} FAILED — this query "
                "will grade without an oracle:\n" + traceback.format_exc(),
                file=sys.stderr,
            )
    return out
