#!/usr/bin/env python3
"""Local stand-in for the driver's correctness gate.

Runs each `queries()` entry and its `oracle_sql()` (DuckDB) side-by-side on
$1 (default /root/testdata/sf0.01) and compares row counts, sorted column
names, and value hashes (columns sorted by name, rows sorted, like the
driver). A query without an oracle is compared against its entry in
tests/data/query_golden.json for the scale directory's name (OK or DIFF);
one with no entry there reports its row count and value hash, so two builds
can be compared on it.

Usage: python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import duckdb
import pandas as pd
import pyarrow.parquet as pq

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

GOLDEN = ROOT / "tests" / "data" / "query_golden.json"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(out) -> pd.DataFrame:
    if hasattr(out, "to_pandas"):
        return out.to_pandas()
    return out


def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    # Hash dtype *kinds* alongside values: the driver's hash distinguishes
    # int64 12 from float64 12.0, but "%.10g" prints both as "12" — without
    # the kind line this gate passed oracles the driver fails (round-4
    # docs_pack_assign incident). Kinds, not exact dtypes, so int32/int64
    # stay interchangeable while int/float divergence is caught.
    df = norm(df)
    kinds = ",".join(f"{c}:{df[c].dtype.kind}" for c in df.columns)
    payload = (kinds + "\n").encode() + \
        df.to_csv(index=False, float_format="%.10g").encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 and "/" in sys.argv[1] \
        else "/root/testdata/sf0.01"
    only = [a for a in sys.argv[1:] if "/" not in a]

    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * "
                    f"FROM '{sf_dir}/{t}.parquet'")
    qs = entry.queries()
    # Data-dependent oracles (emb_kmeans_assign's centroid fit) must read
    # the same dir the views point at, not the driver's sf0.01 default —
    # unless it has no embeddings to fit (an empty-table parity check).
    if pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows:
        os.environ["GRAFT_ORACLE_SF"] = sf_dir
    oracles = entry.oracle_sql()
    scale = Path(sf_dir).name
    golden = {q: h[scale] for q, h in
              json.loads(GOLDEN.read_text())["entries"].items()
              if scale in h}
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            print(f"{name}: RAY ERROR {type(exc).__name__}: {exc}")
            failures += 1
            continue
        if name not in oracles:
            got = value_hash(ray_df)
            if name not in golden:
                print(f"{name}: rows={len(ray_df)} value_hash={got} "
                      f"(no oracle)")
            elif got == golden[name]:
                print(f"{name}: OK rows={len(ray_df)} (golden)")
            else:
                failures += 1
                print(f"{name}: DIFF rows={len(ray_df)} value_hash={got} "
                      f"golden={golden[name]}")
            continue
        try:
            ora_df = con.execute(oracles[name]).fetchdf()
        except Exception as exc:  # noqa: BLE001
            print(f"{name}: ORACLE ERROR {type(exc).__name__}: {exc}")
            failures += 1
            continue
        rows_ok = len(ray_df) == len(ora_df)
        cols_ok = sorted(ray_df.columns) == sorted(ora_df.columns)
        hash_ok = cols_ok and value_hash(ray_df) == value_hash(ora_df)
        status = "OK" if (rows_ok and cols_ok and hash_ok) else "FAIL"
        if status == "FAIL":
            failures += 1
            print(f"{name}: {status} rows {len(ray_df)}/{len(ora_df)} "
                  f"cols_ok={cols_ok} hash_ok={hash_ok}")
            if cols_ok and rows_ok:
                a, b = norm(ray_df), norm(ora_df)
                diff = (a != b) & ~(a.isna() & b.isna())
                bad = diff.any(axis=1)
                print("  first diffs (ray vs oracle):")
                print(pd.concat([a[bad].head(3), b[bad].head(3)],
                                keys=["ray", "oracle"]))
            else:
                print(f"  ray cols: {sorted(ray_df.columns)}")
                print(f"  ora cols: {sorted(ora_df.columns)}")
        else:
            print(f"{name}: OK rows={len(ray_df)}")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
