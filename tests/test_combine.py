"""ops.reduce.combine: the declarative combiner + driver-merge root."""
import ast
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from h3ray.ops.reduce import combine


def test_combine_matches_pandas_groupby(ray_session):
    rng = np.random.default_rng(5)
    n = 6000
    df = pd.DataFrame({"a": rng.integers(0, 4, n),
                       "b": rng.choice(["x", "y", "z"], n),
                       "v": rng.integers(-50, 50, n),
                       "w": rng.integers(0, 1000, n)})
    ds = rd.from_pandas(np.array_split(df, 7))  # several blocks
    aggs = dict(n=("v", "size"), v=("v", "sum"), w=("w", "min"),
                w_max=("w", "max"))

    # keyed GROUP BY, and the keyless scalar root (keys=[])
    for key in (["a", "b"], []):
        out = combine(ds, key, count="n", sums=("v",), mins=("w",),
                      maxs=("w_max",),
                      prep=lambda t: t.append_column("w_max", t["w"]),
                      batch_size=500).to_pandas()
        exp = df.groupby(key).agg(**aggs).reset_index() if key \
            else df.assign(_k=0).groupby("_k").agg(**aggs) \
            .reset_index(drop=True)
        assert list(out.columns) == key + ["n", "v", "w", "w_max"]
        if key:
            out = out.sort_values(key).reset_index(drop=True)
            exp = exp.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(out, exp, check_dtype=False)
        assert (out.dtypes[["n", "v", "w", "w_max"]] == np.int64).all()

    # keyless over zero rows: finish sees SQL's scalar-aggregate row
    # (COUNT 0, SUM / MIN NULL) and decides what the result is
    seen = []

    def finish(g: pa.Table) -> pa.Table:
        seen.append(g.to_pylist())
        return g if g["n"][0].as_py() else g.slice(0, 0)

    schema = pa.schema([("n", pa.int64()), ("v", pa.int64()),
                        ("w", pa.int64())])
    empties = [rd.from_pandas(df.iloc[:0]),
               ds.filter(expr="v > 1000")]
    for empty in empties:
        seen.clear()
        out = combine(empty, [], count="n", sums=("v",), mins=("w",),
                      finish=finish, schema=schema)
        assert seen == [[{"n": 0, "v": None, "w": None}]]
        assert out.num_rows == 0 and out.schema == schema


def test_brand_small_qty_revenue_matches_oracle(ray_session):
    """The two-pass keyless combine (per-part stats, then a scalar SUM)
    against its DuckDB mirror."""
    import duckdb

    import __ray_entry__ as entry

    sf = entry.SF0001
    con = duckdb.connect()
    for t in ("part", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    exp = con.execute(
        entry.oracle_sql()["brand_small_qty_revenue"]).fetchdf()
    out = entry.queries()["brand_small_qty_revenue"](sf).to_pandas()
    assert list(out.columns) == ["revenue_cents"]
    assert out["revenue_cents"].tolist() == exp["revenue_cents"].tolist()
    assert out["revenue_cents"][0] > 0


def test_exact_moments_survive_int64_overflow(ray_session):
    """grouped_var_exact / grouped_corr_exact / grouped_regr_slope_exact
    per key over inputs whose sums of products pass 2^63 (values near
    1e7 at scale 100, ints near 2e9): the decimal128 (HUGEINT) sums must
    equal a Python-int reference bit for bit."""
    import math

    from h3ray.ops.reduce import (grouped_corr_exact,
                                  grouped_regr_slope_exact,
                                  grouped_var_exact)

    rng = np.random.default_rng(23)
    n = 240
    keys = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    v = rng.integers(990_000_000, 1_000_000_000, n) / 100.0
    x = rng.integers(1_900_000_000, 2_000_000_000, n)
    y = rng.integers(-2_000_000_000, 2_000_000_000, n)
    ds = rd.from_arrow(pa.table({"k": keys, "v": v, "x": x, "y": y})) \
        .repartition(3)

    def groups():
        for k in ("a", "b", "c"):
            m = keys == k
            xs = [int(t) for t in np.floor(v[m] * 100 + 0.5)]
            yield k, xs, [int(t) for t in x[m]], [int(t) for t in y[m]]

    for _, xs, xi, _ in groups():  # every key's sum of squares wraps int64
        assert min(sum(t * t for t in xs), sum(a * a for a in xi)) >= 2 ** 63

    var = grouped_var_exact(ds, "k", "v", scale=100).to_pylist()
    corr = grouped_corr_exact(ds, "k", "x", "y").to_pylist()
    slope = grouped_regr_slope_exact(ds, "k", "x", "y").to_pylist()
    assert [r["k"] for r in var] == ["a", "b", "c"]
    for (k, xs, xi, yi), rv, rc, rs in zip(groups(), var, corr, slope):
        cnt, s, ss = len(xs), sum(xs), sum(t * t for t in xs)
        exp_var = float(cnt * ss - s * s) / float(cnt * (cnt - 1)) / 1e4
        assert rv == {"k": k, "n_rows": cnt, "var_value": exp_var,
                      "stddev_value": math.sqrt(exp_var)}
        sx, sy = sum(xi), sum(yi)
        sxx = sum(a * a for a in xi)
        syy = sum(b * b for b in yi)
        sxy = sum(a * b for a, b in zip(xi, yi))
        assert rc["corr"] == float(cnt * sxy - sx * sy) / (
            math.sqrt(float(cnt * sxx - sx * sx))
            * math.sqrt(float(cnt * syy - sy * sy)))
        assert rs["slope"] == float(cnt * sxy - sx * sy) / float(
            cnt * sxx - sx * sx)


# Library roots that stay on a hand-written driver_merge: every bounded
# SUM / MIN / MAX / COUNT / DISTINCT grouping goes through combine, so a
# new grouping root fails here. (module, enclosing top-level function)
DRIVER_MERGE_ALLOWLIST = sorted([
    ("ops/reduce.py", "combine"),               # the one combine root
    ("ops/bloom.py", "bloom_build"),            # bitwise OR of words
    ("ops/reduce.py", "table_fingerprint"),     # XOR fold
    ("ops/reduce.py", "skyline_2d"),            # dominance filter
    ("ops/reduce.py", "ohlc_daily"),            # open/close tie rule
    ("ops/sketch.py", "cm_topk"),               # top-k
    ("ops/sketch.py", "bottomk_quantiles"),     # bottom-k sample
    ("ops/sketch.py", "mg_heavy_hitters"),      # Misra-Gries compression
    ("text/analysis.py", "top_terms"),          # top-k
    ("text/analysis.py", "bigram_topk"),        # top-k
    ("text/analysis.py", "bigram_familiarity"),  # lambda t: t collector
    ("text/analysis.py", "inverted_postings"),  # lambda t: t collector
    ("pipelines/relational.py", "orders_by_segment"),    # collector
    ("pipelines/relational.py", "orders_revenue_topk"),  # collector
    ("pipelines/relational.py", "orders_revenue_topk"),  # top-k
    ("pipelines/ann.py", "top_dot_pairs"),      # top-k
    ("pipelines/knn.py", "rank_topk"),          # kNN + ANN top-k (gated)
    ("pipelines/geotag.py", "cell_counts"),     # gated workload root
    ("pipelines/tiles.py", "compact_cells_dataset"),  # compaction
])


def test_library_driver_merge_allowlist():
    root = Path(__file__).resolve().parent.parent / "h3ray"
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                f = getattr(node, "func", None)
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if isinstance(node, ast.Call) and name == "driver_merge":
                    found.append((path.relative_to(root).as_posix(),
                                  getattr(top, "name", "<module>")))
    assert sorted(found) == DRIVER_MERGE_ALLOWLIST


# Where a hash-bucket exchange may be built or sized: ops.reduce.exchange
# is the one groupby("_bucket") over hashed keys and the one caller of
# default_num_buckets; ops/scan.py groups by key RANGE and
# ops/pairverify.py routes pairs to verification buckets.
# (file, enclosing top-level function, "groupby" | "default_num_buckets")
EXCHANGE_ALLOWLIST = sorted([
    ("h3ray/ops/reduce.py", "exchange", "default_num_buckets"),
    ("h3ray/ops/reduce.py", "exchange", "groupby"),
    ("h3ray/ops/scan.py", "_scan", "groupby"),
    ("h3ray/ops/pairverify.py", "route_pairs_and_payload",
     "default_num_buckets"),
])


def test_exchange_allowlist():
    root = Path(__file__).resolve().parent.parent
    found = []
    for path in sorted(root.joinpath("h3ray").rglob("*.py")) + [
            root / "__ray_entry__.py"]:
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr",
                                                            None)
                if name == "default_num_buckets" and not isinstance(
                        node, ast.FunctionDef):
                    what = name
                elif (isinstance(node, ast.Call)
                      and getattr(node.func, "attr", None) == "groupby"
                      and node.args
                      and getattr(node.args[0], "value", None) == "_bucket"):
                    what = "groupby"
                else:
                    continue
                found.append((path.relative_to(root).as_posix(),
                              getattr(top, "name", "<module>"), what))
    assert sorted(found) == EXCHANGE_ALLOWLIST


def test_exchange_colocates_keys_by_hash(ray_session, num_buckets):
    """Every row of a key reaches one call of fn, with `_bucket` dropped;
    an integer key lands in bucket _mix64(key) % default_num_buckets(),
    and a two-column key co-locates each (key, key) pair."""
    from h3ray.io.pages import _mix64
    from h3ray.ops.reduce import exchange

    num_buckets(5)
    n = 600
    t = pa.table({"k": np.arange(n, dtype=np.int64) % 37,
                  "s": [f"s{i % 3}" for i in range(n)]})

    def tag(group: pa.Table) -> pa.Table:
        assert group.column_names == ["k", "s"]
        k = group["k"].to_numpy()
        return pa.table({"k": k, "s": group["s"],
                         "g": np.full(k.shape[0], k.min())})

    out = exchange(rd.from_arrow(t).repartition(4), "k", tag).to_pandas()
    assert len(out) == n
    assert (out.groupby("k")["g"].nunique() == 1).all()
    bucket = _mix64(out["k"].to_numpy().astype(np.uint64)) % np.uint64(5)
    assert (out.assign(b=bucket).groupby("g")["b"].nunique() == 1).all()
    assert out["g"].nunique() <= 5
    pairs = exchange(rd.from_arrow(t).repartition(4), ["k", "s"], tag) \
        .to_pandas()
    assert len(pairs) == n
    assert (pairs.groupby(["k", "s"])["g"].nunique() == 1).all()


# Inputs whose Ray schema is known before anything runs: over no rows
# combine types its partial from them, so a `schema=` beside one is a
# hand copy of what combine derives.
TYPED_INPUTS = {"read_parquet", "hash_join", "semi_join", "anti_join",
                "seed_schema"}


def _callee(call: ast.Call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_no_declared_schema_on_typed_inputs():
    root = Path(__file__).resolve().parent.parent
    found = []
    for path in sorted(root.joinpath("h3ray").rglob("*.py")) + [
            root / "__ray_entry__.py"]:
        tree = ast.parse(path.read_text())
        for top in tree.body:
            bound = {}
            for node in ast.walk(top):
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            bound.setdefault(t.id, []).append(node.value)
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call)
                        and _callee(node) == "combine" and node.args
                        and any(k.arg == "schema" for k in node.keywords)):
                    continue
                arg = node.args[0]
                inputs = bound.get(arg.id, []) \
                    if isinstance(arg, ast.Name) else [arg]
                if any(isinstance(v, ast.Call)
                       and _callee(v) in TYPED_INPUTS for v in inputs):
                    found.append((path.relative_to(root).as_posix(),
                                  node.lineno))
    assert found == []
