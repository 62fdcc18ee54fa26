"""CDC ingest benchmark for nifi_ray: one closed-loop workload per run.

    python3 perfbench/run.py --workload backfill --seed 1 --seconds 20 --trace 0

Run from anywhere; every file it writes lives under ``.perfbench/``
(inputs cache, lakes, spans) and ``.pbray/`` (the Ray session, kept
short for Unix socket path limits; see ``ray_temp_dir``) at the
repository root.

A run: build or reuse the seed's inputs and DuckDB reference; then,
three times over, start Ray with ``num_cpus`` = ``nproc()``, run an
untimed warm-up round (``setup_s`` is the median of the three), and run
a third of the measured rounds. Rounds go on until ``--seconds`` of
measuring and the workload's minimum round count are both reached; each
round's lake is checked against the reference. The end-to-end metrics
use the rounds the hypervisor left alone (see ``quiet_rounds``).
``--trace 1`` measures untraced for half of
``--seconds``, then restarts Ray with every layer wrapped, runs the same
rounds for the other half and reports per-layer metrics instead of
end-to-end ones (see README.md for the layer -> end-to-end map).

The last stdout line is the result object; the line before it is an
``info`` object (environment, sizes, samples, self-checks). Exit code is
non-zero when any operation or correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

SETUPS = 3  # Ray start + warm-up repetitions; setup_s is their median
# A round is "quiet" when the hypervisor took at most this many CPU
# seconds per wall second from the VM (all its CPUs) while it ran.
QUIET_STEAL = 0.05


def nproc() -> int:
    """CPUs for Ray, as coreutils ``nproc`` counts them: the affinity set,
    lowered to OMP_NUM_THREADS when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def ray_temp_dir() -> str | None:
    """Ray's session dir inside the checkout, unless its Unix socket paths
    (<dir>/session_<date>_<pid>/sockets/plasma_store, at most 107 bytes)
    would not fit there; then None, which is Ray's own default."""
    d = os.path.join(ROOT, ".pbray")
    return d if len(d.encode()) + 64 <= 107 else None


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (25/50/75) as statistics.quantiles computes it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4)[q // 25 - 1]


class Session:
    """One Ray session per start; tracks worker processes for RSS and cleanup."""

    def __init__(self, ray_dir: str | None):
        from perfbench.procs import WorkerWatch

        self.ray_dir = ray_dir
        self.watch = WorkerWatch()

    def start(self, span_dir: str | None = None) -> None:
        """Start Ray; with ``span_dir``, every worker runs the tracing hook.

        Workers find nifi_ray and this package through PYTHONPATH, set in
        the environment the raylet and its workers inherit: they import
        relative to the driver's cwd, not its sys.path, so a run from
        outside the repository would otherwise fail to import nifi_ray.
        (A runtime_env env_vars entry would do the same but makes Ray
        start a second, cold worker pool.)"""
        import ray
        from ray.data import DataContext

        path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if ROOT not in path:
            os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + [p for p in path if p])
        runtime_env = None
        if span_dir is not None:
            from perfbench.tracing import SPAN_DIR_ENV

            runtime_env = {
                "env_vars": {SPAN_DIR_ENV: span_dir},
                "worker_process_setup_hook": "perfbench.tracing.install_worker",
            }
        ray.init(
            num_cpus=nproc(),
            object_store_memory=512 * 1024 * 1024,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            _temp_dir=self.ray_dir,
            runtime_env=runtime_env,
        )
        DataContext.get_current().enable_progress_bars = False

    def stop(self) -> None:
        import ray

        self.watch.snapshot()
        ray.shutdown()
        self.watch.reap()


def quiet_rounds(res) -> list[int]:
    """The measured rounds the end-to-end metrics use: the quiet ones, or,
    when none is quiet, the one with the least steal.

    Steal is time the hypervisor ran another guest while this VM wanted
    the CPU. On a shared host it comes in bursts of seconds to minutes
    that slow every operation alike; rounds inside a burst measure the
    host."""
    rate = [s / w for s, w in zip(res["round_steal"], res["round_walls"])]
    quiet = [i for i, r in enumerate(rate) if r <= QUIET_STEAL]
    return quiet or [min(range(len(rate)), key=rate.__getitem__)]


def e2e_metrics(w, res, used, setup_s, peak_rss_mb) -> dict:
    by = lambda k: [o.dur for o in res["ops"] if o.kind == k and o.round in used]  # noqa: E731
    ticks, lookups = by("tick"), by("lookup")
    rates = [w.events_per_round() / res["round_ingest"][i] for i in used]
    vals = {
        "setup_s": (setup_s, "s"),
        "init_s": (statistics.median(by("init")), "s"),
        "events_per_s": (statistics.median(rates), "1/s"),
        "tick_p50_s": (percentile(ticks, 50), "s"),
        "tick_p75_s": (percentile(ticks, 75), "s"),
        "lookup_p50_s": (percentile(lookups, 50), "s"),
        "lookup_p75_s": (percentile(lookups, 75), "s"),
        "scan_s": (statistics.median(by("scan")), "s"),
        "peak_worker_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in vals.items()}


def versions() -> dict:
    import duckdb
    import pyarrow
    import ray

    return {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "duckdb": duckdb.__version__, "python": sys.version.split()[0]}


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import nifi_ray  # noqa: F401  (fail before any work if the engine is absent)
    from perfbench import data
    from perfbench.procs import host_cpu
    from perfbench.workloads import load_reference, measure, run_round, warm_spec

    w = WORKLOADS[args.workload]
    state_dir = os.path.join(ROOT, ".perfbench")
    work = os.path.join(state_dir, "work", str(os.getpid()))
    ray_dir = ray_temp_dir()
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    t = time.perf_counter()
    ds = data.ensure(os.path.join(state_dir, "data"), w.name, args.seed, w.sizes())
    warm = warm_spec(w)
    warm_ds = data.ensure(os.path.join(state_dir, "data"), warm.name, 0, warm.sizes())
    reference = load_reference(ds)
    gen_s = time.perf_counter() - t

    session = Session(ray_dir)
    attempted = failed = 0
    info = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc(), "versions": versions(),
            "sizes": w.sizes(), "partitions": w.partitions, "mode": w.mode,
            "why": w.why, "data_gen_s": gen_s, "closed_loop_clients": 1,
            "ray_temp_dir": ray_dir,
            "scaling": "N->4N CPU scaling is not measured (sized for one CPU)"}
    try:
        # Each set-up is followed by a share of the measuring in the same
        # Ray session, so the rounds sample three sessions spread over the
        # run, not one stretch of the host's load.
        seconds = args.seconds / 2 if args.trace else args.seconds
        setups, setup_steal, session_rounds = [], [], []
        res, busy, steal = None, 0.0, 0.0
        for i in range(SETUPS):
            t, s0 = time.perf_counter(), host_cpu()[1]
            session.start()
            run_round(warm, warm_ds, 0, os.path.join(work, f"warm{i}"), [])
            setups.append(time.perf_counter() - t)
            setup_steal.append(host_cpu()[1] - s0)
            session.watch.start_polling()
            busy0, steal0 = host_cpu()
            share = (i + 1) / SETUPS
            res = measure(w, ds, args.seed, seconds * share, work, reference, res=res,
                          min_rounds=math.ceil(w.min_rounds * share))
            busy1, steal1 = host_cpu()
            busy, steal = busy + busy1 - busy0, steal + steal1 - steal0
            session_rounds.append(res["rounds"] - sum(session_rounds))
            session.watch.stop_polling()
            session.stop()
        traced = None
        if args.trace:
            from perfbench import layers

            traced = layers.traced_run(session, w, ds, warm, warm_ds, args.seed,
                                       seconds, work, reference, res, nproc())
            res["checks"].extend(traced["checks"])
        attempted = len(res["ops"]) + len(res["checks"])
        failed = sum(not ok for _, ok in res["checks"])
        used = quiet_rounds(res)
        info.update({
            "setup_s_samples": setups, "setup_steal_s": setup_steal,
            "rounds": res["rounds"], "session_rounds": session_rounds,
            "round_walls_s": res["round_walls"], "round_steal_s": res["round_steal"],
            "rounds_used": used,
            "ops": [[o.kind, o.round, o.dur, o.steal] for o in res["ops"]],
            "samples": {k: sum(o.kind == k and o.round in used for o in res["ops"])
                        for k in ("init", "tick", "lookup", "compact", "scan")},
            "failed_checks": sorted({n for n, ok in res["checks"] if not ok}),
            "measured_host_cpu_s": busy, "measured_host_steal_s": steal,
        })
        metrics = e2e_metrics(w, res, used, statistics.median(setups), session.watch.peak_mb)
        info["all_rounds_e2e"] = {  # the timings again, over every measured round
            k: v for k, v in e2e_metrics(w, res, range(res["rounds"]), 0.0, 0.0).items()
            if k not in ("setup_s", "peak_worker_rss_mb")}
        if traced is not None:
            info["untraced_e2e"] = metrics
            info["trace_selfchecks"] = traced["selfchecks"]
            metrics = traced["metrics"]
            attempted += len(traced["ops"])
    except Exception as exc:  # report the failed operation, then fail the run
        import traceback

        traceback.print_exc()
        failed += 1
        attempted += 1
        metrics = {}
        info["error"] = repr(exc)
    finally:
        import ray

        if ray.is_initialized():
            session.stop()
        shutil.rmtree(work, ignore_errors=True)
        if ray_dir is not None:
            shutil.rmtree(ray_dir, ignore_errors=True)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
