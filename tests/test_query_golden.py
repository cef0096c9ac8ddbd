"""Golden value hashes of the spatial driver queries that have no oracle.

`tests/data/query_golden.json` holds `tools/check_oracles.value_hash` (rows
sorted, columns sorted by name, dtype kinds hashed) of each query in
`QUERIES` at each scale in `SCALES`. Its `provenance` field names the build
the hashes were recorded from. A refactor of the PIP or kNN join, the
polygon tiler or the coverage table must reproduce them: no SQL oracle
checks these queries, and `tools/check_oracles.py` compares against the
same entries.

Re-record (only when an output change is intended and explained):

    python tests/test_query_golden.py "<why the outputs changed>"

which writes the commit and that reason to `provenance`.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "tools"))

import __ray_entry__ as entry  # noqa: E402
from check_oracles import to_pandas, value_hash  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "data" / "query_golden.json"
QUERIES = ("h3_pip_join", "h3_knn_join", "h3_polygon_coverage",
           "h3_coverage_modes")
SCALES = ("sf0.001", "sf0.01")


def compute(query: str, scale: str) -> str:
    sf_dir = str(Path(entry.SF0001).parent / scale)
    return value_hash(to_pandas(entry.queries()[query](sf_dir)))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["entries"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(QUERIES)
    assert all(sorted(golden[q]) == sorted(SCALES) for q in QUERIES)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("query", QUERIES)
def test_query_matches_golden(ray_session, golden, query, scale):
    assert compute(query, scale) == golden[query][scale]


if __name__ == "__main__":
    import argparse
    import subprocess

    import ray

    ap = argparse.ArgumentParser(description="Re-record the query goldens.")
    ap.add_argument("reason", help="why the outputs changed")
    reason = ap.parse_args().reason
    rev = subprocess.run(["git", "describe", "--always", "--dirty"],
                         capture_output=True, text=True, check=True,
                         cwd=GOLDEN.parent).stdout.strip()
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    entries = {q: {s: compute(q, s) for s in SCALES} for q in QUERIES}
    ray.shutdown()
    GOLDEN.write_text(json.dumps({
        "provenance": f"recorded from commit {rev}: {reason}",
        "entries": entries}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
