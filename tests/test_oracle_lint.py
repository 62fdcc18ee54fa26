"""Registry-representation lint: no graded oracle table may carry a
full-range uint64 column. Driver-side value hashing coerces through
signed/float paths, so values > 2^63 flip on one side — queries must
ship 64-bit signatures as fixed-width hex strings (the r3 simhash /
winnow_fingerprints driver hash-fails). This pins the EXPECTED side;
tools/check_correctness.py applies the same lint to the query side."""

import pyarrow as pa
import pyarrow.parquet as pq

from nifi_ray.oracle_expected import EXPECTED_BUILDERS, expected_table_path

SF = "/root/testdata/sf0.001"


def _expected_schema(name: str) -> pa.Schema:
    """Schema of the CACHED expected parquet (built at most once per
    machine via expected_table_path — calling builders directly here
    re-ran every scalar dual, incl. the pure-Python JPEG decodes, on
    every pytest invocation). The parquet roundtrip is also what the
    driver's DuckDB oracle actually reads, so it is the more faithful
    schema to lint."""
    return pq.read_schema(expected_table_path(name, SF))


def test_no_uint64_in_expected_tables():
    bad = {}
    for name in EXPECTED_BUILDERS:
        u64 = [
            f.name for f in _expected_schema(name)
            if f.type in (pa.uint64(), pa.uint32())
        ]
        if u64:
            bad[name] = u64
    assert not bad, f"unsigned-wide columns in expected tables: {bad}"


def _canon_type(t: pa.DataType) -> str:
    """Collapse an Arrow type to its driver-visible hash class. The
    driver stringifies values after a native-dtype row sort, so the
    classes that can flip its hash are exactly: string-vs-numeric
    (sort order), float-vs-int ("5.0" vs "5"), bool-vs-int ("True" vs
    "1"), and temporal-vs-string. Width within a class (int32/int64,
    string/large_string) is a non-event and is collapsed so this lint
    stays noise-free."""
    if pa.types.is_large_string(t) or pa.types.is_string(t):
        return "str"
    if pa.types.is_large_binary(t) or pa.types.is_binary(t):
        return "bin"
    if pa.types.is_boolean(t):
        return "bool"
    if pa.types.is_integer(t):
        return "int"
    if pa.types.is_floating(t) or pa.types.is_decimal(t):
        return "float"
    if pa.types.is_timestamp(t):
        return "ts"
    if pa.types.is_date(t):
        return "date"
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        return f"list<{_canon_type(t.value_type)}>"
    if pa.types.is_struct(t):
        inner = ",".join(f"{f.name}:{_canon_type(f.type)}" for f in t)
        return f"struct<{inner}>"
    if pa.types.is_dictionary(t):
        return _canon_type(t.value_type)
    return str(t)


def _canon_schema(schema: pa.Schema) -> dict:
    return {f.name: _canon_type(f.type) for f in schema}


def _result_schema(res) -> pa.Schema:
    import pandas as pd

    if isinstance(res, pa.Table):
        return res.schema
    if isinstance(res, pd.DataFrame):
        return pa.Schema.from_pandas(res)
    return res.schema().base_schema  # ray Dataset


def test_expected_query_schema_parity(ray_session):
    """Every ☆-query (expected-table oracle) must emit EXACTLY its
    expected table's schema, canonicalized to driver-visible classes.
    The r4 driver failed `simhash`/`winnow_fingerprints` on a
    str-oracle-vs-int64-query doc_id that the value checkers coerced
    away — schema parity is the static catch for that whole class
    (r4 VERDICT ask #2b)."""
    from nifi_ray.pipelines.queries import QUERIES

    bad = {}
    for name in EXPECTED_BUILDERS:
        want = _canon_schema(_expected_schema(name))
        got = _canon_schema(_result_schema(QUERIES[name](SF)))
        if got != want:
            bad[name] = {"query": got, "expected": want}
    assert not bad, f"query/expected schema drift: {bad}"


def test_no_duplicate_toplevel_defs_or_dict_keys():
    """A same-named top-level def/class silently shadows the earlier
    one (this broke session_windows/lag_prev_value in round 4 when a
    second sessionize_fn/lag_fn was appended); a repeated literal dict
    key silently drops the earlier entry. Reject both everywhere."""
    import ast
    import glob
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "nifi_ray")
    bad = []
    for f in glob.glob(os.path.join(root, "**", "*.py"), recursive=True):
        tree = ast.parse(open(f).read())
        seen = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name in seen:
                    bad.append((f, node.name))
                seen.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
                bad.extend((f, k) for k in {k for k in keys if keys.count(k) > 1})
    assert not bad, bad


def test_expected_builder_failure_isolated_per_name(monkeypatch, capsys):
    """r5: one raising expected builder un-grades ONLY its own query
    (loud traceback), never the whole ☆ family — before the fix the
    entire expected group shared one try/except and a single broken
    fixture silently downgraded every expected-table query to
    rows-only grading."""
    import os
    import shutil
    import tempfile

    from nifi_ray import oracle_expected as oe

    def boom(_sf):
        raise RuntimeError("fixture exploded")

    monkeypatch.setattr(
        oe,
        "EXPECTED_BUILDERS",
        {
            "broken_fixture": boom,
            "fine_fixture": lambda _sf: pa.table({"x": pa.array([1], pa.int64())}),
        },
    )
    # unique sf tag → cold cache, so builders genuinely run
    sf_dir = tempfile.mkdtemp(prefix="nifi_ray_isol_sf_")
    try:
        sqls = oe.expected_oracle_sql(sf_dir)
        assert "broken_fixture" not in sqls
        assert "fine_fixture" in sqls  # neighbor survives the explosion
        err = capsys.readouterr().err
        assert "broken_fixture" in err and "fixture exploded" in err
    finally:
        shutil.rmtree(sf_dir, ignore_errors=True)
        tag = oe.os.path.basename(sf_dir)
        shutil.rmtree(
            os.path.join(tempfile.gettempdir(), f"nifi_ray_expected_{tag}_r{oe._REV}"),
            ignore_errors=True,
        )


def test_oracle_caches_follow_tempdir(monkeypatch, tmp_path):
    """The expected-table cache and the as-of rates table are written
    under ``tempfile.gettempdir()``, so a run given its own temporary
    directory neither reuses nor leaves files outside it."""
    import datetime
    import tempfile

    from nifi_ray import oracle_expected as oe
    from nifi_ray.pipelines import queries

    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.setattr(
        oe, "EXPECTED_BUILDERS", {"stub": lambda _sf: pa.table({"x": [1, 2]})}
    )
    sf = tmp_path / "sf_stub"
    sf.mkdir()
    t0 = datetime.datetime(2024, 1, 1)
    pq.write_table(
        pa.table({"ts": pa.array([t0, t0 + datetime.timedelta(hours=1)])}),
        str(sf / "events.parquet"),
    )

    path = expected_table_path("stub", str(sf))
    assert path.startswith(str(tmp) + "/")
    assert pq.read_table(path)["x"].to_pylist() == [1, 2]
    rates = queries._rates_fixture(str(sf))
    assert rates.startswith(str(tmp) + "/")
    assert pq.read_table(rates).num_rows == 5 * 16
