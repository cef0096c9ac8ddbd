"""Measurement plumbing for the h3ray benchmark.

Everything here observes the engine from outside: process-tree CPU time,
the driver's peak RSS, the machine it ran on, the Ray session lifecycle and
in-memory spans. No h3ray module is modified; traced passes wrap
`ops.reduce.driver_merge` for the duration of one pass and restore it.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Object store sized for the benchmark's inputs (tens of MB), not for the
#: machine: other tenants share its memory.
OBJECT_STORE_BYTES = 512 * 2**20

#: Unix socket paths are limited to 107 bytes; Ray puts its sockets under
#: <temp_dir>/session_<timestamp>_<pid>/sockets/, which adds up to 64.
_MAX_RAY_TEMP_DIR_CHARS = 40


def median(values):
    return statistics.median(values) if values else float("nan")


# --------------------------------------------------------------- environment

def nproc() -> int:
    """What `nproc` reports (it honours OMP_NUM_THREADS), else affinity."""
    exe = shutil.which("nproc")
    if exe:
        out = subprocess.run([exe], capture_output=True, text=True,
                             timeout=30, check=False)
        if out.returncode == 0 and out.stdout.strip().isdigit():
            return int(out.stdout.strip())
    return len(os.sched_getaffinity(0))


def affinity_cpus() -> int:
    return len(os.sched_getaffinity(0))


def tenancy_probe() -> float:
    """`bench.tenancy_probe()` run in a child interpreter.

    A child process keeps the probe's ~0.5 GB of temporaries out of the
    driver's peak RSS and its CPU out of the measured process tree."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bench; "
            "print(bench.tenancy_probe())")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT)],
                         capture_output=True, text=True, timeout=120,
                         cwd=ROOT, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _status_mb(field: str) -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/self/status")


def rss_mb() -> float:
    """The driver's resident set now (VmRSS)."""
    return _status_mb("VmRSS")


def peak_rss_mb() -> float:
    """The driver's resident-set high-water mark (VmHWM) since the last
    `reset_peak_rss`."""
    return _status_mb("VmHWM")


def reset_peak_rss() -> None:
    """Lower the driver's VmHWM to its current RSS (Linux clear_refs 5), so
    the next `peak_rss_mb` covers only what ran in between."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


# ------------------------------------------------------------------ CPU time

def machine_cpu_s() -> tuple[float, float]:
    """(busy, steal) CPU seconds of the whole machine so far, from
    /proc/stat: busy is user + nice + system + irq + softirq, steal is
    the time the hypervisor ran something else on this guest's vCPUs."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    tick = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / tick, steal / tick


class CpuMeter:
    """CPU seconds of the driver plus every process it started (Ray's GCS,
    raylet, agents and workers are all descendants of the driver).

    Per-pid deltas: a process alive at both samples contributes its own
    user+system delta, a process born in between contributes its total.
    A process that exits between samples is not counted."""

    def __init__(self):
        import ray  # noqa: F401  (puts ray/thirdparty_files on sys.path)
        import psutil

        self._psutil = psutil
        self._me = psutil.Process()

    def snapshot(self) -> dict:
        snap = {}
        for proc in [self._me] + self._me.children(recursive=True):
            try:
                t = proc.cpu_times()
                snap[(proc.pid, proc.create_time())] = t.user + t.system
            except self._psutil.Error:
                continue
        return snap

    @staticmethod
    def delta(before: dict, after: dict) -> float:
        return sum(cpu - before.get(key, 0.0) for key, cpu in after.items())

    def reap_descendants(self, timeout: float = 20.0) -> None:
        """Wait for every descendant to end; kill what outlives timeout."""
        procs = self._me.children(recursive=True)
        _, alive = self._psutil.wait_procs(procs, timeout=timeout)
        for proc in alive:
            try:
                proc.kill()
            except self._psutil.Error:
                pass
        self._psutil.wait_procs(alive, timeout=timeout)


# --------------------------------------------------------------- Ray session

def ray_temp_dir(work: Path) -> str | None:
    """A Ray temp dir inside the checkout when its socket paths fit."""
    path = work / "ray"
    if len(str(path)) <= _MAX_RAY_TEMP_DIR_CHARS:
        path.mkdir(parents=True, exist_ok=True)
        return str(path)
    return None


def start_ray(num_cpus: int, temp_dir: str | None) -> None:
    import logging

    import ray
    import ray.data as rd

    # Workers import h3ray and __ray_entry__ from the checkout root.
    paths = os.environ.get("PYTHONPATH", "")
    if str(ROOT) not in paths.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT), paths) if p)
    kwargs = {"address": "local", "num_cpus": num_cpus,
              "include_dashboard": False, "logging_level": "ERROR",
              "log_to_driver": False,
              "object_store_memory": OBJECT_STORE_BYTES}
    if temp_dir is not None:
        kwargs["_temp_dir"] = temp_dir
    ray.init(**kwargs)
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


# ------------------------------------------------------------------- tracing

class Tracer:
    """In-memory spans (name, start, end, parent), written out when the run
    ends, plus a wrapper that times the driver-merge root from outside."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter() - self._t0, "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def total(self, name: str, field: str = "duration", since: int = 0):
        """Sum of a span field (or of durations) over spans named `name`."""
        out = 0.0
        for rec in self.spans[since:]:
            if rec["name"] == name and rec["end"] is not None:
                out += (rec["end"] - rec["start"]) if field == "duration" \
                    else rec.get(field, 0)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, default=str, indent=0))

    @contextmanager
    def wrapped(self):
        """Wrap `ops.reduce.driver_merge` in a span for the duration of the
        `with` block, in every module that bound it by name (e.g. `from
        .reduce import driver_merge`). The span records the rows fed to the
        merge root, a child span times the merge itself, and the input
        Dataset's `stats()` is kept for the operator breakdown."""
        from h3ray.ops import reduce

        original = reduce.driver_merge
        tracer = self

        def driver_merge(ds, merge_fn, schema=None):
            with tracer.span("ops.reduce.driver_merge") as rec:
                def timed_merge(table):
                    rec["rows_in"] = rec.get("rows_in", 0) + table.num_rows
                    with tracer.span("ops.reduce.driver_merge.merge_fn"):
                        return merge_fn(table)

                out = original(ds, timed_merge, schema=schema)
                rec["ray_data_stats"] = ds.stats()
            return out

        patched = [mod for mod in list(sys.modules.values())
                   if (getattr(mod, "__name__", "") or "").startswith(
                       ("h3ray", "__ray_entry__"))
                   and getattr(mod, "driver_merge", None) is original]
        for mod in patched:
            mod.driver_merge = driver_merge
        try:
            yield
        finally:
            for mod in patched:
                mod.driver_merge = original


# ------------------------------------------------------------ Ray Data stats

def parse_ray_data_stats(text: str) -> list[dict]:
    """Per-operator wall, rows out and bytes out from `Dataset.stats()`."""
    import re

    ops = []
    head = re.compile(r"^Operator \d+ (.+?): \d+ tasks executed, \d+ blocks "
                      r"produced in ([0-9.]+)s")
    total = re.compile(r"([0-9.]+) total")
    cur = None
    for line in text.splitlines():
        m = head.match(line.strip())
        if m:
            cur = {"operator": m.group(1), "wall_s": float(m.group(2)),
                   "rows_out": 0, "bytes_out": 0}
            ops.append(cur)
            continue
        if cur is None:
            continue
        if "Output num rows per block" in line:
            t = total.search(line)
            cur["rows_out"] = int(float(t.group(1))) if t else 0
        elif "Output size bytes per block" in line:
            t = total.search(line)
            cur["bytes_out"] = int(float(t.group(1))) if t else 0
    return ops
