#!/usr/bin/env python3
"""h3ray benchmark: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--toy]

Workloads: encode_counts, spatial_join, driver_queries (see
perfbench/README.md). One driver process submits one pipeline pass at a
time to a local Ray session sized to `nproc`.

A run (1) records the machine (nproc, CPU affinity, tenancy probe), (2)
builds the inputs from the seed, then (3) three times: starts Ray, makes
one untimed warm-up pass (Ray start + warm-up = one set-up), and makes
timed passes for a third of --seconds (at least two), then stops Ray.
Every pass output is checked. The last line of stdout is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are the end-to-end ones (rows_per_s,
cpu_s_per_mrow, setup_s, driver_peak_rss_mb); with --trace 1 timed passes
alternate traced/untraced and the per-layer ladder runs after them. Spans
and per-pass records are written to .perfbench_out/ when the run ends.
--toy shrinks the page inputs and uses one session (for selftest.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SESSIONS, TOY_SESSIONS = 3, 1
#: Timed passes each session makes at least (one traced and one untraced
#: with --trace 1).
PASSES_PER_SESSION = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["encode_counts", "driver_queries",
                            "spatial_join"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy-size inputs and one setup (self-test only)")
    return p.parse_args(argv)


class Run:
    """One benchmark run; owns the work directory and the Ray session."""

    def __init__(self, args, work: Path):
        import harness
        import workloads

        self.args = args
        self.work = work
        self.h = harness
        self.workload = workloads.WORKLOADS[args.workload]()
        self.tracer = harness.Tracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.record: dict = {"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "toy": args.toy}

    # ------------------------------------------------------------- passes
    def one_pass(self, label: str, traced: bool = False):
        """Run and check one pass. Returns (wall_s, cpu_s, peak_rss_mb,
        start_rss_mb, others_cpu_s, steal_s, extra) for a pass that
        completed, wrong output included, or None if it raised. Raised and
        wrong passes are both recorded as failures. others_cpu_s (CPU the
        rest of the machine used) and steal_s (vCPU time the hypervisor
        gave elsewhere) are noise records.

        The driver's RSS high-water mark is reset just before the pass and
        read as soon as it returns, so it covers the pass alone: not the
        imports, the input building or the output check."""
        self.attempted += 1
        since = len(self.tracer.spans)
        before = self.cpu.snapshot()
        machine_before = self.h.machine_cpu_s()
        start_rss = self.h.rss_mb()
        self.h.reset_peak_rss()
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.wrapped(), \
                        self.tracer.span("pass", label=label):
                    out, drained = self.workload.run_pass()
            else:
                out, drained = self.workload.run_pass()
        except Exception:  # noqa: BLE001 -- a failed pass is a result
            self.failures.append(f"{label}: {traceback.format_exc()}")
            print(self.failures[-1], file=sys.stderr)
            return None
        wall = time.perf_counter() - t0
        peak = self.h.peak_rss_mb()
        cpu = self.h.CpuMeter.delta(before, self.cpu.snapshot())
        busy, steal = (b - a for a, b in zip(machine_before,
                                             self.h.machine_cpu_s()))
        reason = self.workload.check(out)
        if reason is not None:
            self.failures.append(f"{label}: {reason}")
            print(f"pass {label} wrong: {reason}", file=sys.stderr)
        extra = {}
        if traced:
            extra = self.pass_layers(drained, since)
        return wall, cpu, peak, start_rss, busy - cpu, steal, extra

    def pass_layers(self, drained, since: int) -> dict:
        """driver_merge and Ray Data operator figures of one traced pass."""
        ops = []
        for ds in drained:
            ops += self.h.parse_ray_data_stats(ds.stats())
        for rec in self.tracer.spans[since:]:
            if rec["name"] == "ops.reduce.driver_merge":
                ops += self.h.parse_ray_data_stats(
                    rec.pop("ray_data_stats", ""))
        self.record.setdefault("operators", []).append(ops)
        return {
            "ops.reduce.driver_merge.s": self.tracer.total(
                "ops.reduce.driver_merge.merge_fn", since=since),
            "ops.reduce.driver_merge.rows_in": self.tracer.total(
                "ops.reduce.driver_merge", "rows_in", since=since),
            "ray_data.operators.count": float(len(ops)),
            "ray_data.operators.wall_s": sum(o["wall_s"] for o in ops),
            "ray_data.operators.rows_out": float(
                sum(o["rows_out"] for o in ops)),
            "ray_data.operators.bytes_out": float(
                sum(o["bytes_out"] for o in ops)),
        }

    # ---------------------------------------------------------------- run
    def execute(self) -> dict:
        h, args, med = self.h, self.args, self.h.median
        toy = args.toy
        env = {"env.nproc": float(h.nproc()),
               "env.affinity_cpus": float(h.affinity_cpus())}
        env["env.ray_num_cpus"] = env["env.nproc"]
        env["env.probe_before_s"] = h.tenancy_probe()
        self.cpu = h.CpuMeter()

        # Inputs come from the seed before any clock starts.
        with self.tracer.span("prepare"):
            self.workload.prepare(args.seed, self.work, toy)
            ladder = None
            if args.trace:
                import ladder as ladder_mod

                ladder = ladder_mod.Ladder(args.seed, self.work, toy)
        temp_dir = h.ray_temp_dir(self.work)

        # Three Ray sessions, each set up (start + untimed warm-up pass) and
        # then timed for a third of --seconds: the timed passes sample the
        # whole run and three sessions, not only its last seconds.
        sessions = TOY_SESSIONS if toy else SESSIONS
        setups, plain, traced = [], [], []
        for i in range(sessions):
            if i:
                h.stop_ray()
            with self.tracer.span("setup", index=i):
                t0 = time.perf_counter()
                h.start_ray(int(env["env.ray_num_cpus"]), temp_dir)
                t1 = time.perf_counter()
                res = self.one_pass(f"warmup-{i}")
                setups.append((t1 - t0, res[0] if res is not None
                               else time.perf_counter() - t1))
            deadline = time.perf_counter() + args.seconds / sessions
            made = 0
            while made < PASSES_PER_SESSION \
                    or time.perf_counter() < deadline:
                use_trace = bool(args.trace) and len(traced) <= len(plain)
                res = self.one_pass(f"timed-{self.attempted}",
                                    traced=use_trace)
                made += 1
                if res is not None:
                    (traced if use_trace else plain).append(res)
                elif made > 4 * PASSES_PER_SESSION \
                        and not (plain or traced):
                    raise RuntimeError("every pass raised; no timing")

        rows = self.workload.rows
        metrics: dict = {}
        if args.trace:
            extras = [e for *_, e in traced]
            metrics.update({k: med([e[k] for e in extras])
                            for k in (extras[0] if extras else {})})
            metrics.update(env)
            metrics["setup.ray_init_s"] = med([s[0] for s in setups])
            metrics["setup.warmup_pass_s"] = med([s[1] for s in setups])
            t_rate = rows / med([p[0] for p in traced])
            u_rate = rows / med([p[0] for p in plain])
            metrics["trace.traced_rows_per_s"] = t_rate
            metrics["trace.untraced_rows_per_s"] = u_rate
            metrics["trace.overhead_ratio"] = u_rate / t_rate
            self.attempted += 1
            try:
                with self.tracer.span("ladder"):
                    metrics.update(ladder.run(self.tracer))
                if ladder.failures:
                    self.failures.append("ladder: "
                                         + "; ".join(ladder.failures))
            except Exception:  # noqa: BLE001 -- reported as a failure
                self.failures.append(f"ladder: {traceback.format_exc()}")
                print(self.failures[-1], file=sys.stderr)
        else:
            metrics["rows_per_s"] = rows / med([p[0] for p in plain])
            metrics["cpu_s_per_mrow"] = med([p[1] / rows * 1e6
                                             for p in plain])
            metrics["setup_s"] = med([a + b for a, b in setups])
            metrics["driver_peak_rss_mb"] = med([p[2] for p in plain])
        h.stop_ray()
        self.cpu.reap_descendants()
        env["env.probe_after_s"] = h.tenancy_probe()
        if args.trace:
            metrics["env.probe_after_s"] = env["env.probe_after_s"]

        self.record.update({
            "env": env, "rows_per_pass": rows, "setups": setups,
            "timed_plain": [p[:6] for p in plain],
            "timed_traced": [p[:6] for p in traced],
            "failures": self.failures, "metrics": metrics})
        return metrics


def units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not ((ROOT / "h3ray" / "__init__.py").is_file()
            and (ROOT / "__ray_entry__.py").is_file()):
        print(f"h3ray sources not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT)]
    unit_of = units()

    # Everything but the result line goes to stderr, including output of
    # the processes Ray starts (they inherit fd 1).
    real_stdout = os.dup(1)
    os.dup2(2, 1)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = None
    try:
        run = Run(args, work)
        metrics = run.execute()
    finally:
        import harness

        harness.stop_ray()
        if run is not None and hasattr(run, "cpu"):
            run.cpu.reap_descendants()
        shutil.rmtree(work, ignore_errors=True)
        sys.stdout.flush()
        os.dup2(real_stdout, 1)
        os.close(real_stdout)
    out_dir = ROOT / ".perfbench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run.tracer.dump(out_dir / f"{stem}.spans.json")
    (out_dir / f"{stem}.run.json").write_text(
        json.dumps(run.record, indent=1, default=str))
    unknown = [k for k in metrics if k not in unit_of]
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}")
    unmeasured = [k for k, v in metrics.items() if not math.isfinite(v)]
    if unmeasured:
        raise RuntimeError(f"metrics without a finite value: {unmeasured}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": float(v), "unit": unit_of[k]}
                    for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
