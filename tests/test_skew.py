"""Salted two-phase aggregation equals the direct aggregate."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from h3ray.ops import skew


def test_salted_top_k_equals_direct(ray_session, num_buckets):
    num_buckets(4)
    rng = np.random.default_rng(7)
    n = 30000
    # Hot key 'a' holds ~80% of rows.
    keys = np.where(rng.random(n) < 0.8, 0, rng.integers(1, 20, n))
    key_names = np.array([f"k{v}" for v in range(20)])
    vals = rng.random(n)
    ids = np.arange(n, dtype=np.int64)
    t = pa.Table.from_arrays(
        [pa.array(key_names[keys]), pa.array(vals), pa.array(ids)],
        names=["key", "value", "row_id"])
    out = skew.salted_top_k(rd.from_arrow(t), "key", "value", k=5,
                            tiebreak_col="row_id").to_pandas()
    got = set(zip(out.key, out.row_id))
    exp = set()
    for kv in np.unique(keys):
        mask = keys == kv
        order = np.lexsort((ids[mask], -vals[mask]))[:5]
        exp |= {(key_names[kv], i) for i in ids[mask][order]}
    assert got == exp
    assert (out.groupby("key").size() == 5).all()


def test_detect_hot_keys_and_selective_salting(ray_session, num_buckets):
    """The sampled histogram finds the planted hot key; selective salting
    produces identical top-k results to blanket salting."""
    num_buckets(4)
    rng = np.random.default_rng(17)
    n = 40000
    keys = np.where(rng.random(n) < 0.7, 7,
                    rng.integers(0, 400, n)).astype(np.int64)
    rows = np.arange(n, dtype=np.int64)
    vals = rng.random(n)
    t = pa.Table.from_arrays(
        [pa.array(keys), pa.array(rows), pa.array(vals)],
        names=["key", "row_id", "value"])
    ds = rd.from_arrow(t)
    hot, shares = skew.detect_hot_keys(ds, "key", "row_id",
                                       rate_bp=500, hot_share=0.05)
    assert 7 in hot.tolist()
    assert shares[hot.tolist().index(7)] > 0.5
    assert len(hot) <= 3  # only genuinely hot keys

    blanket = skew.salted_top_k(rd.from_arrow(t), "key", "value", k=4,
                                tiebreak_col="row_id") \
        .to_pandas()
    selective = skew.salted_top_k(rd.from_arrow(t), "key", "value", k=4,
                                  tiebreak_col="row_id",
                                  hot_keys=hot).to_pandas()
    assert set(zip(blanket.key, blanket.row_id)) == \
        set(zip(selective.key, selective.row_id))


def test_detect_hot_keys_string_keys(ray_session, num_buckets):
    """String group keys (the canonical hot-key case) work end-to-end
    through detection and selective salting."""
    num_buckets(4)
    rng = np.random.default_rng(3)
    n = 20000
    kinds = np.where(rng.random(n) < 0.8, 0, rng.integers(1, 6, n))
    names = np.array(["hot", "a", "b", "c", "d", "e"])
    t = pa.Table.from_arrays(
        [pa.array(names[kinds]),
         pa.array(np.arange(n, dtype=np.int64)),
         pa.array(rng.random(n))],
        names=["key", "row_id", "value"])
    hot, shares = skew.detect_hot_keys(rd.from_arrow(t), "key", "row_id",
                                       rate_bp=500, hot_share=0.1)
    assert hot.tolist() == ["hot"]
    out = skew.salted_top_k(rd.from_arrow(t), "key", "value", k=3,
                            tiebreak_col="row_id",
                            hot_keys=hot).to_pandas()
    assert (out.groupby("key").size() == 3).all()
    direct = skew.salted_top_k(rd.from_arrow(t), "key", "value", k=3,
                               tiebreak_col="row_id").to_pandas()
    assert set(zip(out.key, out.row_id)) == set(zip(direct.key,
                                                    direct.row_id))
