#!/usr/bin/env python3
"""Record the reference answers of the table-driven passes.

Runs every driver query of the benchmark and `curation_pipeline` on the
UNPERMUTED sf0.01 copies in data/sf0.01, hashes each output with
`tools/check_oracles.value_hash`, cross-checks each hash against the
DuckDB oracle from `__ray_entry__.oracle_sql()`, records the digests of
the encode kernels' canary (`workloads.encode_canary`, refused unless the
kernels reproduce H3's documented goldens), and writes data/expected.json
plus data/MANIFEST.json (sha256 of every copy).

Run from the repository root:  python3 perfbench/make_expected.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent)]

import harness  # noqa: E402
import workloads  # noqa: E402

#: The oracle_sql() entry that mirrors `curation_pipeline` on sf_dir.
CURATION_ORACLE = "docs_curation_pipeline"


def main() -> int:
    import duckdb

    manifest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(workloads.DATA.glob("*.parquet"))}
    (HERE / "data" / "MANIFEST.json").write_text(
        json.dumps(manifest, indent=1) + "\n")

    harness.start_ray(harness.nproc(), None)
    try:
        import __ray_entry__
        from h3ray.pipelines.curation import curation_pipeline
        from tools import check_oracles

        con = duckdb.connect()
        for p in workloads.DATA.glob("*.parquet"):
            con.execute(f"CREATE VIEW {p.stem} AS SELECT * FROM '{p}'")
        oracles = __ray_entry__.oracle_sql()
        fns = __ray_entry__.queries()
        hashes, status = {}, 0
        with tempfile.TemporaryDirectory() as ckpt:
            runs = {q: lambda q=q: fns[q](str(workloads.DATA))
                    for q in workloads.QUERIES}
            runs[CURATION_ORACLE] = lambda: curation_pipeline(
                str(workloads.DATA), checkpoint_dir=ckpt)
            for name, fn in runs.items():
                hashes[name] = workloads.value_hash(workloads.collect(fn()))
                oracle = check_oracles.value_hash(
                    con.execute(oracles[name]).fetchdf())
                if hashes[name] != oracle:
                    print(f"{name}: engine hash differs from its oracle",
                          file=sys.stderr)
                    status = 1
    finally:
        harness.stop_ray()
    golden = workloads.golden_error()
    if golden is not None:
        print(golden, file=sys.stderr)
        status = 1
    if status == 0:
        curation = hashes.pop(CURATION_ORACLE)
        workloads.EXPECTED.write_text(json.dumps(
            {"source": "unpermuted data/sf0.01 copies; every hash equals "
                       "its DuckDB oracle's",
             "curation": curation, "queries": hashes,
             "encode_canary": workloads.encode_canary()}, indent=1) + "\n")
        print(f"wrote {workloads.EXPECTED}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
