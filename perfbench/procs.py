"""Ray worker processes of this run: peak RSS polling and cleanup; host
CPU counters.

Workers are descendants of this process (driver -> raylet -> workers)
and rename themselves ``ray::<task>``. Peak RSS is each worker's
``VmHWM`` from /proc, polled because idle workers can exit before the
run ends. After ``ray.shutdown`` every process seen is waited for, and
killed if it outlives a grace period.
"""

from __future__ import annotations

import os
import signal
import threading
import time


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children_map(), [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


def vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def host_cpu() -> tuple[float, float]:
    """(busy, steal) CPU seconds of this machine since boot, all CPUs.

    Steal is time the hypervisor ran something else while a CPU of this
    VM was runnable: one way a shared host slows a whole run."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    hz = os.sysconf("SC_CLK_TCK")
    return (v[0] + v[1] + v[2] + v[5] + v[6]) / hz, v[7] / hz


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class WorkerWatch:
    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self.seen: set[int] = set()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def poll(self) -> None:
        for pid in descendants(os.getpid()):
            self.seen.add(pid)
            if _is_worker(pid):
                self.peak_mb = max(self.peak_mb, vm_hwm_mb(pid))

    def start_polling(self) -> None:
        self._stop.clear()

        def loop():
            while not self._stop.wait(self.interval_s):
                self.poll()

        self.poll()
        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()

    def stop_polling(self) -> None:
        self.poll()
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def snapshot(self) -> None:
        self.seen.update(descendants(os.getpid()))

    def reap(self, grace_s: float = 10.0) -> None:
        """Wait for every process seen to end; kill stragglers."""
        deadline = time.monotonic() + grace_s
        while any(_alive(p) for p in self.seen) and time.monotonic() < deadline:
            time.sleep(0.1)
        for p in self.seen:
            if _alive(p):
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        while any(_alive(p) for p in self.seen) and time.monotonic() < deadline + 5:
            time.sleep(0.1)
        self.seen.clear()
