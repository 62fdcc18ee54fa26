"""HyperLogLog sketch: accuracy, mergeability, batch-composition
invariance, exact clz."""

import numpy as np
import pyarrow as pa

from nifi_ray.stages.sketch import (
    HLL_P,
    _clz64,
    hll_estimate,
    hll_merge,
    hll_partials_fn,
    hll_registers,
)


def test_clz64_exact():
    vals = np.array(
        [0, 1, 2, 3, 2**31, 2**32 - 1, 2**63, 2**64 - 1, 2**52], np.uint64
    )
    expect = [64 - int(v).bit_length() for v in vals.tolist()]
    assert _clz64(vals).tolist() == expect


def test_hll_accuracy_strings_and_ints():
    n = 50_000
    strs = pa.array([f"user_{i % 20000}" for i in range(n)])
    ints = pa.array(np.arange(n) % 7777)
    for col, exact in ((strs, 20000), (ints, 7777)):
        est = hll_estimate(hll_registers(col))
        assert abs(est - exact) / exact < 0.05  # p=12 → σ ≈ 1.6 %


def test_hll_merge_equals_single_pass_any_split():
    vals = [f"k{i}" for i in range(30_000)]
    whole = hll_registers(pa.array(vals))
    for cut in (1, 999, 15_000, 29_999):
        merged = hll_merge(
            [hll_registers(pa.array(vals[:cut])), hll_registers(pa.array(vals[cut:]))]
        )
        assert np.array_equal(merged, whole)  # batch composition can't matter


def test_hll_duplicates_and_empty():
    regs = hll_registers(pa.array(["a"] * 10_000 + ["b"]))
    assert hll_estimate(regs) == 2  # linear counting regime is exact-ish here
    assert hll_estimate(hll_registers(pa.array([], pa.string()))) == 0


def test_hll_partials_fn_shapes():
    t = pa.table({"u": pa.array([1, 2, 2, None], pa.int64()), "s": ["x", "y", "x", "z"]})
    out = hll_partials_fn(["u", "s"])(t)
    assert out.column_names == ["column", "registers"]
    assert out.num_rows == 2
    assert len(out["registers"][0].as_py()) == 1 << HLL_P


# ----------------------------------------------------------- count-min


def test_cms_upper_bound_and_exact_on_sparse():
    from collections import Counter

    from nifi_ray.stages.sketch import cms_counts, cms_estimate

    rng = np.random.default_rng(7)
    vals = [f"k{int(v)}" for v in rng.zipf(1.5, 20_000) % 500]
    exact = Counter(vals)
    counts = cms_counts(pa.array(vals), 4096)
    keys = sorted(exact)
    est = cms_estimate(counts, pa.array(keys), 4096)
    for k, e in zip(keys, est.tolist()):
        assert e >= exact[k]  # one-sided error, always
        assert e <= exact[k] + (np.e / 4096) * len(vals) * 4  # loose ε·N


def test_cms_merge_equals_single_pass_any_split():
    from nifi_ray.stages.sketch import cms_counts, cms_merge

    vals = [f"v{i % 300}" for i in range(10_000)]
    whole = cms_counts(pa.array(vals), 4096)
    for cut in (1, 333, 5_000, 9_999):
        merged = cms_merge(
            [
                cms_counts(pa.array(vals[:cut]), 4096).ravel().tolist(),
                cms_counts(pa.array(vals[cut:]), 4096).ravel().tolist(),
            ]
        )
        assert np.array_equal(merged, whole)


def test_cms_absent_key_bounded():
    from nifi_ray.stages.sketch import cms_counts, cms_estimate

    vals = [f"k{i % 50}" for i in range(5_000)]
    counts = cms_counts(pa.array(vals), 4096)
    est = cms_estimate(counts, pa.array(["never-seen"]), 4096)
    assert est[0] <= (np.e / 4096) * 5_000 * 4


def test_windowed_hll_floors_pre_1970_windows(ray_session, tmp_path):
    """A negative epoch falls in the window that starts at or before it
    (floor division), on the engine side as in the oracle."""
    import pyarrow.parquet as pq

    from nifi_ray.oracle_expected import expected_windowed_hll
    from nifi_ray.pipelines.queries import q_windowed_hll

    secs = np.array([-5, -5, -3, -1, 0, 1, 3, 4], np.int64)
    pq.write_table(
        pa.table(
            {
                "user_id": pa.array(np.arange(len(secs)), pa.int64()),
                "ts": pa.array(secs * 1_000_000, pa.timestamp("us")),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    got = q_windowed_hll(str(tmp_path), window_sec=2)
    assert got["window_start"].to_pylist() == [-6, -4, -2, 0, 2, 4]
    assert got["est_distinct"].to_pylist() == [2, 1, 1, 2, 1, 1]
    assert got.equals(expected_windowed_hll(str(tmp_path), window_sec=2))
