"""Self-test of the benchmark itself (not of nifi_ray).

    python3 perfbench/selftest.py [workload ...]

1. BENCHMARK.json has the contract's shape and names exactly the
   workloads and metrics the code reports.
2. A directory holding only BENCHMARK.json and perfbench/ (no engine)
   makes the benchmark exit non-zero without printing a result.
3. Each workload (default: all) runs traced with ``/`` as cwd, outside
   the repository, and must pass its correctness gate and report every
   per-layer metric; the untraced figures ride along in ``info``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_manifest() -> dict:
    from perfbench.layers import metric_names
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(bench)
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(WORKLOADS), names
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
        assert w["why"] == WORKLOADS[w["name"]].why, w["name"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher"), m
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == metric_names()
    every = bench["end_to_end"] + bench["per_layer"] + bench["workloads"]
    assert all(NAME.match(m["name"]) for m in every)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert len({m["name"] for m in every}) == len(every)
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    return bench


def check_bare_checkout() -> None:
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "backfill",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = p.stdout.strip().splitlines()
    assert p.returncode != 0, "bare checkout must fail"
    assert not (lines and '"correct"' in lines[-1]), "bare checkout printed a result"


def run_traced(workload: str, bench: dict) -> dict:
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(bench["run_seconds"]), "--trace", "1"],
        cwd="/", capture_output=True, text=True, timeout=180,
    )
    lines = p.stdout.strip().splitlines()
    assert p.returncode == 0, (workload, p.stderr[-2000:])
    info, res = json.loads(lines[-2])["info"], json.loads(lines[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res
    assert set(res["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert list(info["untraced_e2e"]) == [m["name"] for m in bench["end_to_end"]]
    return {"workload": workload, "selfchecks": info["trace_selfchecks"],
            "overhead": res["metrics"]["trace.overhead_frac"]["value"]}


def main(argv: list[str]) -> int:
    bench = check_manifest()
    print("BENCHMARK.json: ok")
    check_bare_checkout()
    print("bare checkout fails without a result: ok")
    for w in argv or [w["name"] for w in bench["workloads"]]:
        out = run_traced(w, bench)
        print(f"{w} traced from cwd /: ok", json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
