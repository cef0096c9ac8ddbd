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

    out = combine(ds, ["a", "b"], count="n", sums=("v",), mins=("w",),
                  maxs=("w_max",),
                  prep=lambda t: t.append_column("w_max", t["w"]),
                  batch_size=500).to_pandas()
    exp = df.groupby(["a", "b"]).agg(
        n=("v", "size"), v=("v", "sum"), w=("w", "min"),
        w_max=("w", "max")).reset_index()
    assert list(out.columns) == ["a", "b", "n", "v", "w", "w_max"]
    key = ["a", "b"]
    pd.testing.assert_frame_equal(
        out.sort_values(key).reset_index(drop=True),
        exp.sort_values(key).reset_index(drop=True), check_dtype=False)
    assert (out.dtypes[["n", "v", "w", "w_max"]] == np.int64).all()
