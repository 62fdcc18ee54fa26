"""Outside-in tracing for the traced run.

The engine is not instrumented. Instead, the functions each layer
exposes are wrapped where their callers look them up, in the driver and
(through Ray's ``worker_process_setup_hook``, see ``install_worker``) in
every worker process. A wrapper records one span per call: wall time,
process CPU time (process, not thread: Arrow decodes on its own thread
pool), self time net of nested wrapped calls, the Ray task id it ran
under, and a few counts (rows in/out, bytes).

Task-level spans (busy time, argument fetch, output store, scheduling
wait) come from Ray's own task events, read from the GCS after the run.

Remote functions pickled by value capture the driver's module globals,
so a wrapped name in the driver must unpickle as the worker's own
wrapper: ``Traced.__reduce__`` resolves it by module and attribute name
in the receiving process.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"

# (module the caller looks the name up in, attribute, span name).
# cdc.py imports the kernels by name; the replay tick imports the binlog
# and metrics functions inside the function body, and init's write task
# imports conform from its home module, so those are wrapped there.
TARGETS = (
    ("nifi_ray.pipelines.cdc", "collapse_last_writer", "stages.lww.collapse"),
    ("nifi_ray.pipelines.cdc", "merge_into_base", "stages.lww.merge"),
    ("nifi_ray.pipelines.cdc", "add_partition_column", "util.hashing.partition"),
    ("nifi_ray.pipelines.cdc", "state_checksum", "util.hashing.checksum"),
    ("nifi_ray.pipelines.cdc", "unify", "stages.evolve.unify"),
    ("nifi_ray.pipelines.cdc", "conform", "stages.evolve.conform"),
    ("nifi_ray.stages.evolve", "conform", "stages.evolve.conform"),
    ("nifi_ray.pipelines.cdc", "publish_part", "state.manifest.publish"),
    ("nifi_ray.pipelines.cdc", "commit_manifest", "state.manifest.commit"),
    ("nifi_ray.pipelines.cdc", "load_manifest", "state.manifest.load"),
    ("nifi_ray.sources.binlog", "list_event_files", "sources.binlog.list"),
    ("nifi_ray.sources.binlog", "prune_event_files", "sources.binlog.prune"),
    ("nifi_ray.state.metrics", "append_tick_metrics", "state.metrics.append"),
    ("pyarrow.parquet", "read_table", "parquet.read"),
    ("pyarrow.parquet", "write_table", "parquet.write"),
)
# the driver also times its waits on task results
DRIVER_TARGETS = (("ray", "get", "ray.get"),)


def _counts(name: str, args: tuple, out) -> tuple[int, int]:
    """Per-call counts recorded with the span (0 where none apply)."""
    if name == "stages.lww.collapse":
        return args[0].num_rows, out.num_rows
    if name == "util.hashing.partition":
        return out.num_rows, 0
    if name == "parquet.read":
        return out.nbytes, 0  # decoded bytes
    if name == "parquet.write":
        return os.path.getsize(args[1]), 0
    if name == "sources.binlog.prune":
        return out[1].kept, out[1].skipped_by_footer
    if name == "state.manifest.commit":
        return os.path.getsize(out), 0
    return 0, 0


class Tracer:
    """Collects spans for one process, in memory or appended to a file."""

    def __init__(self, path: str | None = None, task_id=None):
        self.spans: list[list] = []
        self._file = open(path, "a", buffering=1) if path else None
        self.task_id = task_id or (lambda: "")
        self._local = threading.local()

    def stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def record(self, span: list) -> None:
        if self._file is not None:
            self._file.write(json.dumps(span) + "\n")
        else:
            self.spans.append(span)


def _resolve(module: str, attr: str):
    return getattr(importlib.import_module(module), attr)


class Traced:
    """A wrapped layer function: one span per call."""

    def __init__(self, fn, module: str, attr: str, name: str, tracer: Tracer):
        self.fn, self.module, self.attr, self.name = fn, module, attr, name
        self.tracer = tracer

    def __reduce__(self):
        return _resolve, (self.module, self.attr)

    def __call__(self, *args, **kwargs):
        tr = self.tracer
        st = tr.stack()
        st.append([0.0, 0.0])
        t0 = time.time()
        p0, c0 = time.perf_counter(), time.process_time()
        out, ok = None, False
        try:
            out = self.fn(*args, **kwargs)
            ok = True
            return out
        finally:
            wall = time.perf_counter() - p0
            cpu = time.process_time() - c0
            child_wall, child_cpu = st.pop()
            if st:
                st[-1][0] += wall
                st[-1][1] += cpu
            n1, n2 = _counts(self.name, args, out) if ok else (0, 0)
            tr.record([self.name, t0, wall, cpu, wall - child_wall,
                       cpu - child_cpu, tr.task_id(), n1, n2])


def patch(tracer: Tracer, targets=TARGETS):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for module, attr, name in targets:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)
        if isinstance(fn, Traced):  # already wrapped in this process
            continue
        saved.append((mod, attr, fn))
        setattr(mod, attr, Traced(fn, module, attr, name, tracer))

    def undo():
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)

    return undo


def install_worker() -> None:
    """Ray worker_process_setup_hook: trace this worker into the span dir."""
    import ray

    ctx = ray.get_runtime_context()
    path = os.path.join(os.environ[SPAN_DIR_ENV], f"{os.getpid()}.jsonl")
    patch(Tracer(path, task_id=lambda: ctx.get_task_id() or ""))


def read_worker_spans(span_dir: str) -> list[list]:
    spans = []
    for f in sorted(os.listdir(span_dir)):
        with open(os.path.join(span_dir, f)) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


# ------------------------------------------------------------ Ray tasks
TASK_KINDS = {
    "_cdc_map_task": "map",
    "_cdc_apply_task": "apply",
    "_cdc_delta_task": "delta",
    "_compact_task": "compact",
    "_lookup_task": "lookup",
    "_rescale_map_task": "init",
    "_rescale_write_task": "init",
}


def task_kind(func_name: str) -> str:
    return TASK_KINDS.get(func_name.rsplit(".", 1)[-1], "other")


def ray_tasks() -> list[dict]:
    """Finished tasks of this job from the GCS task-event store.

    Each: task_id, kind, start (epoch s, worker clock), busy (task span
    incl. argument fetch and output store), arg_fetch, store, sched_wait
    (PENDING_NODE_ASSIGNMENT → RUNNING)."""
    from ray._private.state import state
    from ray.core.generated import common_pb2, gcs_pb2

    status = common_pb2.TaskStatus
    merged: dict[str, dict] = {}
    for raw in state.global_state_accessor.get_task_events():
        ev = gcs_pb2.TaskEvents.FromString(raw)
        t = merged.setdefault(ev.task_id.hex(), {"prof": {}, "ts": {}, "name": ""})
        if ev.HasField("task_info") and ev.task_info.func_or_class_name:
            t["name"] = ev.task_info.func_or_class_name
        if ev.HasField("state_updates"):
            t["ts"].update(dict(ev.state_updates.state_ts_ns))
        for p in ev.profile_events.events:
            t["prof"][p.event_name] = (p.start_time, p.end_time)
    out = []
    for tid, t in merged.items():
        span = next((v for k, v in t["prof"].items() if k.startswith("task::")), None)
        if span is None or status.Value("FINISHED") not in t["ts"]:
            continue
        dur = lambda k: (  # noqa: E731
            (t["prof"][k][1] - t["prof"][k][0]) / 1e9 if k in t["prof"] else 0.0
        )
        ts = t["ts"]
        run, pend = ts.get(status.Value("RUNNING")), ts.get(
            status.Value("PENDING_NODE_ASSIGNMENT"))
        out.append({
            "task_id": tid,
            "kind": task_kind(t["name"]),
            "start": span[0] / 1e9,
            "busy": (span[1] - span[0]) / 1e9,
            "arg_fetch": dur("task:deserialize_arguments"),
            "store": dur("task:store_outputs"),
            "sched_wait": (run - pend) / 1e9 if run and pend else 0.0,
        })
    return out


def wait_for_tasks(settle_s: float = 1.2, timeout_s: float = 15.0) -> list[dict]:
    """Poll the task-event store until two reads a report interval apart agree."""
    deadline = time.monotonic() + timeout_s
    prev = -1
    while True:
        tasks = ray_tasks()
        if len(tasks) == prev or time.monotonic() > deadline:
            return tasks
        prev = len(tasks)
        time.sleep(settle_s)
