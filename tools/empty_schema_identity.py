#!/usr/bin/env python3
"""Result identity of every driver query against another git revision,
at a scale directory and over an all-empty copy of its tables.

Exports <git-rev> with `git archive` into a temporary directory and runs
every `queries()` entry there and in this working tree, each side in its
own process, on the scale directory and on a directory holding an empty
table of each of its tables' schemas. For each query it records the row
count, the Arrow schema, the pandas dtypes and `check_oracles.value_hash`
(or the exception a query raised), and prints only the queries whose
record differs between the two sides.

Usage: python tools/empty_schema_identity.py <git-rev> [--sf DIR] [query ...]
Exit status 0 when no query differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def record(out) -> dict:
    """Row count, Arrow schema, pandas dtypes and value hash of a query
    result (Dataset, pyarrow Table or pandas DataFrame)."""
    import pandas as pd
    import pyarrow as pa
    from check_oracles import value_hash

    if isinstance(out, pd.DataFrame):
        schema, df = pa.Schema.from_pandas(out, preserve_index=False), out
    elif isinstance(out, pa.Table):
        schema, df = out.schema, out.to_pandas()
    else:
        out = out.materialize()
        s = out.schema()
        schema, df = getattr(s, "base_schema", s), out.to_pandas()
    return {"rows": len(df),
            "schema": str(schema.remove_metadata()).replace("\n", ", ")
            if schema is not None else None,
            "dtypes": [f"{c}:{t}" for c, t in df.dtypes.items()],
            "value_hash": value_hash(df)}


def compute(tree: Path, sf_dir: str, out: Path, only: list) -> None:
    """Run the queries of the `__ray_entry__` in `tree` on `sf_dir`;
    write {query: record} as JSON."""
    import ray

    sys.path[:0] = [str(tree), str(ROOT / "tools")]
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    import __ray_entry__ as entry

    got = {}
    for name, fn in entry.queries().items():
        if only and name not in only:
            continue
        try:
            got[name] = record(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            # type and last message line: a Ray task error's first lines
            # name a worker pid and the path of the tree
            last = str(exc).strip().splitlines()[-1:]
            got[name] = {"error": f"{type(exc).__name__}: {''.join(last)}"
                         [:300]}
    ray.shutdown()
    out.write_text(json.dumps(got, indent=1, sort_keys=True))


def empty_copy(sf_dir: str, dest: Path) -> None:
    """An empty table of each of `sf_dir`'s parquet schemas, in `dest`."""
    import pyarrow.parquet as pq

    for f in sorted(Path(sf_dir).glob("*.parquet")):
        pq.write_table(pq.read_schema(f).empty_table(), dest / f.name)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", nargs="?")
    ap.add_argument("queries", nargs="*")
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--compute", nargs=3, metavar=("TREE", "SF_DIR", "OUT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.compute:
        tree, sf_dir, out = args.compute
        # no revision here: every positional is a query name
        compute(Path(tree), sf_dir, Path(out),
                [q for q in [args.rev, *args.queries] if q])
        return 0
    if not args.rev:
        ap.error("a git revision is required")

    with tempfile.TemporaryDirectory(prefix="empty_schema_identity_") as tmp:
        tmp = Path(tmp)
        old_tree, empty = tmp / "tree", tmp / "empty"
        for d in (old_tree, empty):
            d.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(old_tree)], input=archive,
                       check=True)
        empty_copy(args.sf, empty)
        total = 0
        for label, sf_dir in ((args.sf, args.sf), ("all-empty", str(empty))):
            runs = []
            for side, tree in (("old", old_tree), ("new", ROOT)):
                out = tmp / f"{side}.json"
                # Ray workers import h3ray from the working directory
                subprocess.run([sys.executable, __file__, "--compute",
                                str(tree), sf_dir, str(out),
                                *args.queries], cwd=tree, check=True,
                               env={**os.environ, "PYTHONPATH": str(tree)})
                runs.append(json.loads(out.read_text()))
                out.unlink()
            old, new = runs
            names = sorted(set(old) | set(new))
            diff = [n for n in names if old.get(n) != new.get(n)]
            total += len(diff)
            print(f"{label}: {len(diff)} of {len(names)} queries differ "
                  f"({args.rev} vs working tree)")
            for n in diff:
                print(f"  {n}")
                for side, rec in (("old", old.get(n)), ("new", new.get(n))):
                    rec = rec or {"missing": True}
                    keys = [k for k in rec
                            if (old.get(n) or {}).get(k)
                            != (new.get(n) or {}).get(k)] or list(rec)
                    print(f"    {side}: " + "; ".join(
                        f"{k}={rec.get(k)}" for k in keys))
    return 0 if total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
