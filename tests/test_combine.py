"""ops.reduce.combine: the declarative combiner + driver-merge root."""
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
