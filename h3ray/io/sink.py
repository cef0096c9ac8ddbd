"""Resumable partitioned parquet sink with per-partition lineage manifests.

North-rule requirement: runs over 10^12 documents must be resumable from
checkpoint with per-partition lineage + metrics. Layout:

    out_dir/
      part=<key>/...parquet        (hive-partitioned data, one dir per key)
      _manifests/<key>.json        (row count, fingerprint, kernel version,
                                    input signature, wall time)
      _manifests/_job.json         (job-level summary, written last)

A partition is "done" iff its manifest exists and carries the same input
signature. `resume_plan` returns the keys still to do; `write_partitioned`
processes only those, so a re-submitted `ray job` skips finished work.
Manifests are written from the driver after each partition group commits —
parquet files land before the manifest, so a crash mid-partition leaves no
manifest and the partition is redone (at-least-once, idempotent overwrite).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pyarrow as pa

KERNEL_VERSION = "h3ray-0.1"


def _manifest_dir(out_dir: str) -> Path:
    d = Path(out_dir) / "_manifests"
    d.mkdir(parents=True, exist_ok=True)
    return d


def finished_partitions(out_dir: str, input_signature: str) -> set[str]:
    """Keys with a valid manifest for this input signature."""
    done = set()
    mdir = Path(out_dir) / "_manifests"
    if not mdir.exists():
        return done
    for mf in mdir.glob("*.json"):
        if mf.name == "_job.json":
            continue
        try:
            meta = json.loads(mf.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if meta.get("input_signature") == input_signature and \
                meta.get("kernel_version") == KERNEL_VERSION:
            done.add(meta["partition"])
    return done


def resume_plan(keys, out_dir: str, input_signature: str):
    """Partition keys that still need processing."""
    done = finished_partitions(out_dir, input_signature)
    return [k for k in keys if str(k) not in done]


def write_manifest(out_dir: str, key, num_rows: int, input_signature: str,
                   wall_s: float, extra: dict | None = None) -> None:
    meta = {
        "partition": str(key),
        "num_rows": int(num_rows),
        "input_signature": input_signature,
        "kernel_version": KERNEL_VERSION,
        "wall_s": round(wall_s, 3),
        "ts": time.time(),
    }
    if extra:
        meta.update(extra)
    path = _manifest_dir(out_dir) / f"{key}.json"
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(meta))
    tmp.rename(path)  # atomic publish: manifest appears only when complete


def write_partitioned(ds, out_dir: str, partition_col: str,
                      input_signature: str) -> dict:
    """Resumable partitioned write of a keyed Dataset.

    The dataset streams once through `write_parquet(partition_cols=...)`;
    per-partition row counts are accumulated on the fly (tiny map side-
    channel) and manifests published afterwards. On resume, rows whose key
    already has a valid manifest are filtered out BEFORE the write, so
    finished partitions cost nothing but the filter scan.
    """
    t0 = time.time()
    done = finished_partitions(out_dir, input_signature)
    # Drop partition dirs that have data but no valid manifest (crash
    # leftovers): write_parquet appends uniquely-named files, so redoing a
    # partition on top of orphaned files would double-count its rows.
    out_path = Path(out_dir)
    prefix = f"{partition_col}="
    if out_path.exists():
        import shutil

        for pdir in out_path.iterdir():
            if pdir.is_dir() and pdir.name.startswith(prefix) \
                    and pdir.name[len(prefix):] not in done:
                shutil.rmtree(pdir)
    if done:
        done_list = sorted(done)

        def drop_done(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            keys = pc.cast(batch[partition_col], pa.string())
            keep = pc.invert(pc.is_in(keys, value_set=pa.array(done_list)))
            return batch.filter(keep)

        ds = ds.map_batches(drop_done, batch_format="pyarrow")

    # Single streaming pass; row counts come from the parquet footers
    # afterwards (metadata-only reads, no data scan).
    ds.write_parquet(out_dir, partition_cols=[partition_col])
    wall = time.time() - t0
    counts = partition_row_counts(out_dir, partition_col, exclude=done)
    for k, c in counts.items():
        write_manifest(out_dir, k, c, input_signature, wall)
    job = {
        "partitions": len(counts),
        "skipped": len(done),
        "rows": int(sum(counts.values())),
        "input_signature": input_signature,
        "wall_s": round(wall, 3),
    }
    (_manifest_dir(out_dir) / "_job.json").write_text(json.dumps(job))
    return job


def checkpoint_dataset(ds, out_dir: str, input_signature: str, *,
                       key_col: str, num_parts: int = 16,
                       columns: list[str] | None = None):
    """Durable mid-pipeline checkpoint: hash-partitioned resumable parquet.

    The scale-correct replacement for a mid-pipeline `.materialize()`
    (which pins the whole intermediate in object-store memory): rows get a
    deterministic partition from mix64(key_col) % num_parts, stream through
    `write_partitioned` (per-partition lineage manifests, finished
    partitions skipped on resume), and the returned Dataset READS BACK from
    parquet — downstream consumers re-scan storage instead of holding the
    checkpoint in memory, and a re-submitted job resumes from the manifest
    state. The partition column is internal and dropped on read-back.
    """
    import numpy as np

    from .pages import _mix64

    def add_part(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        part = (_mix64(keys) % np.uint64(num_parts)).astype(np.int32)
        return batch.append_column("ckpt_part", pa.array(part))

    keyed = ds.map_batches(add_part, batch_format="pyarrow")
    job = write_partitioned(keyed, out_dir, "ckpt_part", input_signature)
    import ray.data as rd

    if not (job["rows"] or job["skipped"]):  # no file to read back
        schema = ds.schema().base_schema
        return rd.from_arrow(schema.empty_table().select(
            columns or schema.names))
    back = rd.read_parquet(out_dir, columns=columns)
    if columns is not None:
        return back
    from ..ops.reduce import typed_map

    return typed_map(back, lambda b: b.drop_columns(["ckpt_part"]))


def partition_row_counts(out_dir: str, partition_col: str,
                         exclude: set[str] | None = None) -> dict[str, int]:
    """Per-partition row counts from parquet footers (metadata-only)."""
    import pyarrow.parquet as pq

    exclude = exclude or set()
    counts: dict[str, int] = {}
    prefix = f"{partition_col}="
    for pdir in Path(out_dir).glob(f"{prefix}*/"):  # none if no dir yet
        key = pdir.name[len(prefix):]
        if key in exclude:
            continue
        total = 0
        for f in pdir.rglob("*.parquet"):
            total += pq.read_metadata(f).num_rows
        counts[key] = total
    return counts
