"""ISO BMFF (mp4) container codec: box walker, moov metadata, stbl
sample-span expansion, QuickTime raw-RGB sample decode, and the
SampleFrames / ExtractMediaMetadata stage dispatch — all as plain
callables over pa.Table (no Ray session)."""

import struct

import numpy as np
import pyarrow as pa
import pytest

from nifi_ray.stages import bmff as B
from nifi_ray.stages.multimodal import (
    ExtractMediaMetadata,
    SampleFrames,
    _synth_rgb,
    decode_ppm,
    encode_ppm,
    synth_mp4_table,
    synth_video_table,
)


def _frames(n, w=16, h=12, seed=3):
    return [_synth_rgb(w, h, seed * 7919 + f) for f in range(n)]


def test_roundtrip_metadata_and_samples():
    frames = _frames(9)
    data = B.encode_mp4_raw_video(frames, fps=25)
    meta = B.parse_mp4(data)
    assert meta["brand"] == "isom"
    assert meta["duration_ms"] == (9 * 1000) // 25
    (tr,) = meta["tracks"]
    assert tr["handler"] == "vide" and tr["codec"] == "raw "
    assert (tr["width"], tr["height"]) == (16, 12)
    assert tr["n_samples"] == 9 and tr["media_timescale"] == 25
    spans = B.sample_spans(tr)
    assert spans.shape == (9, 2)
    for i, (off, size) in enumerate(spans):
        rgb = B.decode_raw_sample(data[off:off + size], 16, 12)
        assert np.array_equal(rgb, frames[i])


def test_chunked_sample_table_is_exercised():
    """The 3/2 alternating chunking must produce >1 stsc entry — a
    single-chunk encoding would not test chunk expansion at all."""
    data = B.encode_mp4_raw_video(_frames(9))
    stbl = B.find_box(data, [b"moov", b"trak", b"mdia", b"minf", b"stbl"])
    assert stbl is not None
    n_stsc = None
    for f, p, e in B.iter_boxes(data, *stbl):
        if f == b"stsc":
            n_stsc = struct.unpack_from(">I", data, p + 4)[0]
    assert n_stsc is not None and n_stsc >= 2


def test_largesize_box():
    inner = B._box(b"free", b"x" * 10)
    large = struct.pack(">I", 1) + b"wrap" + struct.pack(">Q", 16 + len(inner)) + inner
    boxes = list(B.iter_boxes(large))
    assert boxes == [(b"wrap", 16, len(large))]


def test_bad_payloads_raise():
    with pytest.raises(ValueError):
        B.parse_mp4(b"\x00" * 32)
    with pytest.raises(ValueError):
        # truncated box: declared size overruns the buffer
        list(B.iter_boxes(struct.pack(">I", 100) + b"mdat" + b"xx"))


def test_sampleframes_mp4_equals_ppm_stream():
    """Same pixel pattern through both containers → identical sampled
    PPM payload sets (the mp4 path must not re-encode pixels)."""
    frames = _frames(7, w=8, h=6)
    ppm_stream = b"".join(encode_ppm(f) for f in frames)
    mp4 = B.encode_mp4_raw_video(frames)
    batch = pa.table(
        {
            "media_id": pa.array(["p", "m"]),
            "payload": pa.array([ppm_stream, mp4], pa.binary()),
        }
    )
    out = SampleFrames(every=3)(batch)
    rows = {
        (mid, idx): pay
        for mid, idx, pay in zip(
            out["media_id"].to_pylist(),
            out["frame_idx"].to_pylist(),
            out["payload"].to_pylist(),
        )
    }
    assert sorted(i for m, i in rows if m == "p") == [0, 3, 6]
    for idx in (0, 3, 6):
        a = decode_ppm(rows[("p", idx)])
        b = decode_ppm(rows[("m", idx)])
        assert np.array_equal(a, b) and np.array_equal(a, frames[idx])


def test_transform_coded_track_raises_loudly():
    data = bytearray(B.encode_mp4_raw_video(_frames(3)))
    i = data.index(b"raw ")
    data[i:i + 4] = b"avc1"
    # metadata still parses — only sample DECODE is the seam
    meta = B.parse_mp4(bytes(data))
    assert meta["tracks"][0]["codec"] == "avc1"
    batch = pa.table(
        {"media_id": pa.array(["v"]), "payload": pa.array([bytes(data)], pa.binary())}
    )
    with pytest.raises(NotImplementedError):
        SampleFrames()(batch)


def test_codec_fourcc_encoder_param_and_router():
    """r5: the encoder's codec_fourcc param labels the stsd entry, and
    Mp4FrameRouter turns the decode seam into routed status rows —
    raw files decode (frame count + pixel sum), avc1 files come back
    as data with status='unsupported_codec' instead of raising."""
    from nifi_ray.stages.multimodal import Mp4FrameRouter, decode_ppm

    frames = _frames(4)
    raw_p = B.encode_mp4_raw_video(frames)
    avc_p = B.encode_mp4_raw_video(frames, codec_fourcc=b"avc1")
    assert B.parse_mp4(avc_p)["tracks"][0]["codec"] == "avc1"
    with pytest.raises(ValueError):
        B.encode_mp4_raw_video(frames, codec_fourcc=b"toolong")
    batch = pa.table(
        {
            "media_id": pa.array(["ok1", "bad", "ok2"]),
            "payload": pa.array([raw_p, avc_p, raw_p], pa.binary()),
        }
    )
    out = Mp4FrameRouter(every=2)(batch)
    assert out["status"].to_pylist() == ["ok", "unsupported_codec", "ok"]
    assert out["codec"].to_pylist() == ["raw ", "avc1", "raw "]
    assert out["n_frames_sampled"].to_pylist() == [2, 0, 2]  # frames 0, 2
    want = sum(int(f.sum(dtype=np.int64)) for f in (frames[0], frames[2]))
    assert out["psum"].to_pylist() == [want, 0, want]
    # SampleFrames on the same avc1 payload still raises (loud seam)
    with pytest.raises(NotImplementedError):
        SampleFrames()(batch.slice(1, 1))


def test_extract_media_metadata_stage():
    t = synth_mp4_table(7, seed=11)
    out = ExtractMediaMetadata()(t)
    assert out.num_rows == 7
    assert out["codec"].to_pylist() == ["raw "] * 7
    assert out["n_samples"].to_pylist() == [5 + (i % 7) for i in range(7)]
    assert out["duration_ms"].to_pylist() == [
        ((5 + (i % 7)) * 1000) // 25 for i in range(7)
    ]


def test_synth_video_table_rotates_containers():
    t = synth_video_table(4, frames=3, seed=1)
    types = t["media_type"].to_pylist()
    assert types == ["video/x-ppm-stream", "video/mp4"] * 2
    out = SampleFrames(every=1)(t.select(["media_id", "payload"]))
    # 4 videos x 3 frames, every frame sampled from either container
    assert out.num_rows == 12


def _box(fourcc: bytes, payload: bytes) -> bytes:
    import struct as st

    return st.pack(">I", 8 + len(payload)) + fourcc + payload


def test_find_box_scans_sibling_subtrees():
    # the path may be absent from the FIRST matching child (e.g. a hint
    # trak before the video trak): later siblings must still be scanned
    from nifi_ray.stages.bmff import find_box

    inner = _box(b"trgt", b"PAYLOAD")
    first_a = _box(b"boxa", _box(b"othr", b"x"))     # no trgt inside
    second_a = _box(b"boxa", inner)                  # trgt lives here
    data = _box(b"root", first_a + second_a)
    span = find_box(data, [b"root", b"boxa", b"trgt"])
    assert span is not None
    ps, pe = span
    assert data[ps:pe] == b"PAYLOAD"


def test_frame_geometry_comes_from_stsd_not_tkhd():
    # tkhd carries DISPLAY dims (scaled matrices / zero in some
    # writers); pixel-buffer geometry must come from the stsd sample
    # entry. Zero out tkhd's width/height and decoding must still work.
    import struct as st

    import numpy as np

    from nifi_ray.stages.bmff import (
        decode_raw_sample,
        encode_mp4_raw_video,
        iter_mp4_video_frames,
        parse_mp4,
    )

    frames = [
        np.arange(16 * 12 * 3, dtype=np.uint8).reshape(12, 16, 3)
        for _ in range(3)
    ]
    blob = bytearray(encode_mp4_raw_video(frames, fps=5))
    # find the tkhd payload and zero the trailing width/height (16.16)
    i = bytes(blob).index(b"tkhd")
    size = st.unpack_from(">I", blob, i - 4)[0]
    blob[i - 4 + size - 8 : i - 4 + size] = b"\x00" * 8
    meta = parse_mp4(bytes(blob))
    tr = meta["tracks"][0]
    assert (tr["width"], tr["height"]) == (0, 0)          # display dims gone
    codec, w, h, spans = iter_mp4_video_frames(bytes(blob))
    assert (w, h) == (16, 12)                             # coded dims hold
    got = decode_raw_sample(bytes(blob)[spans[1][0]:spans[1][0] + spans[1][1]], w, h)
    assert np.array_equal(got, frames[1])


def test_mp4_router_routes_truncated_container_per_file():
    """A truncated mp4 comes back as status='parse_error' while the
    rest of the batch still decodes (no batch crash)."""
    from nifi_ray.stages.multimodal import Mp4FrameRouter

    raw_p = B.encode_mp4_raw_video(_frames(4))
    cuts = [raw_p[:10], raw_p[:60], raw_p[: len(raw_p) // 2]]
    batch = pa.table(
        {
            "media_id": pa.array(["ok", "t10", "t60", "thalf"]),
            "payload": pa.array([raw_p, *cuts], pa.binary()),
        }
    )
    out = Mp4FrameRouter(every=2)(batch)
    assert out["status"].to_pylist() == ["ok"] + ["parse_error"] * 3
    assert out["n_frames_sampled"].to_pylist() == [2, 0, 0, 0]
    assert out["psum"].to_pylist()[1:] == [0, 0, 0]
