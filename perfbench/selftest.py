#!/usr/bin/env python3
"""Toy-size self-test of the benchmark's output contract.

For every workload in BENCHMARK.json, runs run.py at toy size with
--trace 0 and --trace 1 and checks that the last stdout line is one JSON
object with exactly correct/attempted/failed/metrics, that the run was
correct, and that every named metric (end_to_end, resp. per_layer) is
printed, with its unit, as a finite number and nothing else is. Then
checks that run.py fails, printing no result, in a directory holding only
BENCHMARK.json and the benchmark's own files.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


def check_result(proc, names: dict) -> list[str]:
    errors = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return ["no stdout"]
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"top-level keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        errors.append(f"correct={res.get('correct')} "
                      f"failed={res.get('failed')}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        errors.append(f"attempted={res.get('attempted')}")
    metrics = res.get("metrics", {})
    if set(metrics) != set(names):
        errors.append(f"missing {sorted(set(names) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(names))}")
    for name, unit in names.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{name}: unit {m.get('unit')!r} != {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{name}: value {v!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = 0
    for w in spec["workloads"]:
        for trace, names in ((0, e2e), (1, layer)):
            errors = check_result(run(ROOT, w["name"], trace), names)
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']} trace={trace}: {status} "
                  f"({len(names)} metrics)", flush=True)
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
        print(f"bare checkout: {'ok' if ok else 'FAIL'} "
              f"(exit {proc.returncode})")
        failures += not ok
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
