"""Regression tests for round-2 advice/verdict findings."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from h3ray.io.pages import url_hash64
from h3ray.kernels import measures
from h3ray.ops import stages


def test_url_hash64_large_types_match_small():
    """Large string/binary arrays use int64 offsets; hashes must agree with
    the plain (int32-offset) types for identical payloads."""
    payloads = ["", "a", "hello world", "x" * 200, "déjà vu ☃"]
    small_s = url_hash64(pa.array(payloads, type=pa.string()))
    large_s = url_hash64(pa.array(payloads, type=pa.large_string()))
    assert (small_s == large_s).all()
    raw = [p.encode() for p in payloads]
    small_b = url_hash64(pa.array(raw, type=pa.binary()))
    large_b = url_hash64(pa.array(raw, type=pa.large_binary()))
    assert (small_b == large_b).all()
    assert (small_s == small_b).all()


def test_url_hash64_large_sliced_offset():
    vals = [f"doc-{i}" for i in range(64)]
    full = url_hash64(pa.array(vals, type=pa.large_string()))
    sliced = pa.array(vals, type=pa.large_string()).slice(10, 20)
    assert (url_hash64(sliced) == full[10:30]).all()


def test_url_hash64_empty_string_positions():
    """Empty strings anywhere (incl. trailing / all-empty) must hash to the
    sentinel value without crashing reduceat or shrinking the output."""
    sentinel = url_hash64(pa.array([""]))
    assert sentinel.shape == (1,)
    for payload in (["abc", ""], ["", "abc"], ["", "", ""],
                    ["a", "", "b", ""], [""]):
        h = url_hash64(pa.array(payload))
        assert h.shape == (len(payload),)
        for i, s in enumerate(payload):
            if s == "":
                assert h[i] == sentinel[0]
            else:
                assert h[i] == url_hash64(pa.array([s]))[0]


def test_segmented_top_k_integer_dtypes():
    """value=0 must not sort as the maximum for unsigned columns; int64
    extremes must not overflow."""
    from h3ray.ops.skew import _segmented_top_k

    t = pa.Table.from_arrays(
        [pa.array(np.zeros(4, np.int64)),
         pa.array(np.array([0, 5, 3, 9], dtype=np.uint64)),
         pa.array(np.arange(4, dtype=np.int64))],
        names=["key", "value", "tb"])
    out = _segmented_top_k(t, "key", "value", 2, "tb")
    assert sorted(out["value"].to_pylist()) == [5, 9]
    t2 = pa.Table.from_arrays(
        [pa.array(np.zeros(3, np.int64)),
         pa.array(np.array([np.iinfo(np.int64).min, -1, 7],
                           dtype=np.int64)),
         pa.array(np.arange(3, dtype=np.int64))],
        names=["key", "value", "tb"])
    out2 = _segmented_top_k(t2, "key", "value", 2, "tb")
    assert sorted(out2["value"].to_pylist()) == [-1, 7]


def test_cell_area_empty_input():
    assert measures.cell_area_rads2(np.empty(0, np.int64)).shape == (0,)
    empty = pa.Table.from_arrays([pa.array(np.empty(0, np.uint64))],
                                 names=["cell"])
    out = stages.area_stage("cell", unit="km2")(empty)
    assert out.num_rows == 0 and "area_km2" in out.column_names


def test_shuffle_stage_outputs_are_int64_safe():
    """Full-range uint64 columns overflow Ray's sort-shuffle int conversion
    and silently degrade blocks to pickled Python objects — every stage that
    feeds a groupby must emit int64 (bit-view) hashes instead."""
    from h3ray.text.analysis import fingerprint_stage
    from h3ray.text.dedup import minhash_bands_stage, simhash_stage

    batch = pa.Table.from_arrays(
        [pa.array(np.arange(4, dtype=np.int64)),
         pa.array(["aa bb cc dd ee", "ff gg hh", "aa bb cc dd ee", "zz"])],
        names=["doc_id", "text"])
    for fn in (fingerprint_stage(), minhash_bands_stage("doc_id"),
               simhash_stage()):
        out = fn(batch)
        bad = [f.name for f in out.schema if f.type == pa.uint64()]
        assert not bad, f"uint64 shuffle-hazard columns: {bad}"
    # Bit-view keeps dedup semantics: equal texts, equal fingerprints.
    fp = fingerprint_stage()(batch)["fingerprint"].to_numpy()
    assert fp[0] == fp[2] and fp[0] != fp[1]


def test_asof_join_tie_at_equal_ts(ray_session, tmp_path):
    """A right ('view') event sharing the left's timestamp must match even
    when it follows the left in file order (ASOF `l.ts >= r.ts`)."""
    from h3ray.pipelines.relational import events_asof_join

    ts = pa.array(np.array([100, 100, 50, 200], dtype="datetime64[s]")
                  .astype("datetime64[us]"), type=pa.timestamp("us"))
    tbl = pa.Table.from_arrays(
        [pa.array([10, 11, 12, 13], type=pa.int64()),
         ts,
         pa.array([1, 1, 2, 2], type=pa.int64()),
         pa.array(["purchase", "view", "view", "purchase"])],
        names=["event_id", "ts", "user_id", "event_type"])
    pq.write_table(tbl, tmp_path / "events.parquet")
    out = events_asof_join(str(tmp_path)).to_pandas() \
        .sort_values("left_event_id").reset_index(drop=True)
    # user 1: purchase@100 matches view@100 (equal-ts tie, later in file).
    assert out.loc[0, "left_event_id"] == 10
    assert out.loc[0, "right_event_id"] == 11
    # user 2: purchase@200 matches view@50.
    assert out.loc[1, "right_event_id"] == 12


def test_bucket_count_invariance(ray_session, tmp_path, num_buckets):
    """Sessionization / asof results are identical for any reducer bucket
    count (the count only controls shuffle granularity)."""
    from h3ray.pipelines.relational import events_asof_join, user_sessions

    rng = np.random.default_rng(5)
    n = 2000
    ts = pa.array(rng.integers(0, 100000, n).astype("datetime64[s]")
                  .astype("datetime64[us]"), type=pa.timestamp("us"))
    tbl = pa.Table.from_arrays(
        [pa.array(np.arange(n, dtype=np.int64)), ts,
         pa.array(rng.integers(0, 37, n), type=pa.int64()),
         pa.array(rng.choice(["view", "purchase", "click"], n))],
        names=["event_id", "ts", "user_id", "event_type"])
    pq.write_table(tbl, tmp_path / "events.parquet")

    def canon(df):
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    def both(num):
        num_buckets(num)
        return (canon(user_sessions(str(tmp_path)).to_pandas()),
                canon(events_asof_join(str(tmp_path)).to_pandas()))

    (s7, a7), (s32, a32) = both(7), both(32)
    assert s7.equals(s32) and len(s7) > 37
    assert a7.equals(a32) and len(a7) > 0


def test_polygon_mode_guard_and_monotonicity():
    """Unknown containment modes must raise (they silently took the
    intersects path), and the four real modes nest:
    boundary <= centroid <= intersects <= covers."""
    import pytest

    from h3ray.kernels import region
    from h3ray.pipelines import pip

    geom = pip.city_polygons(1)[0]
    with pytest.raises(ValueError, match="unknown containment mode"):
        region.polygon_to_cells(geom, 6, mode="contains")
    sizes = {m: np.unique(region.polygon_to_cells(geom, 6, mode=m)).size
             for m in ("boundary", "centroid", "intersects", "covers")}
    assert sizes["boundary"] <= sizes["centroid"] \
        <= sizes["intersects"] <= sizes["covers"]


def test_hash_sample_and_split_consistency(ray_session):
    """Sampling is key-stable and hash_sample == test side of the split."""
    import ray.data as rd

    from h3ray.ops.sample import hash_sample, train_test_split

    keys = pa.Table.from_arrays(
        [pa.array(np.arange(5000, dtype=np.int64))], names=["doc_id"])
    s1 = set(hash_sample(rd.from_arrow(keys), "doc_id", 1000)
             .to_pandas().doc_id)
    s2 = set(hash_sample(rd.from_arrow(keys).repartition(7), "doc_id", 1000)
             .to_pandas().doc_id)
    assert s1 == s2  # partitioning-independent
    assert 0.06 < len(s1) / 5000 < 0.14  # ~10%
    split = train_test_split(rd.from_arrow(keys), "doc_id", 1000).to_pandas()
    test_side = set(split[split.split == "test"].doc_id)
    assert test_side == s1
    # Different salts give (near-)independent membership.
    s3 = set(hash_sample(rd.from_arrow(keys), "doc_id", 1000, salt=9)
             .to_pandas().doc_id)
    assert s3 != s1


def test_stratified_sample_rates_nest_and_default(ray_session):
    """Per-group thresholds: full-rate group passes whole, rates nest on
    the shared hash stream, unlisted/null groups use default_bp."""
    import ray.data as rd

    from h3ray.ops.sample import hash_sample, stratified_sample

    n = 6000
    labels = np.array(["a", "b", "c"])[np.arange(n) % 3].astype(object)
    labels[::97] = None  # sprinkle null groups
    tbl = pa.Table.from_arrays(
        [pa.array(np.arange(n, dtype=np.int64)), pa.array(labels)],
        names=["doc_id", "lang"])
    out = stratified_sample(rd.from_arrow(tbl), "doc_id", "lang",
                            {"a": 10000, "b": 1000},
                            default_bp=0).to_pandas()
    got = dict(out.groupby("lang").doc_id.agg(set))
    # 'a' at 10000 bp keeps every non-null-'a' row.
    assert got["a"] == {i for i in range(0, n, 3) if labels[i] == "a"}
    # 'b' members == plain hash_sample at the same rate, restricted to b.
    flat = set(hash_sample(rd.from_arrow(tbl), "doc_id", 1000)
               .to_pandas().doc_id)
    assert got["b"] == {i for i in flat if labels[i] == "b"}
    # 'c' and null groups use default_bp=0 -> absent entirely.
    assert "c" not in got and len(out) == len(got["a"]) + len(got["b"])
    # Rates nest: 500 bp b-sample is a subset of the 1000 bp one.
    tighter = stratified_sample(rd.from_arrow(tbl), "doc_id", "lang",
                                {"b": 500}, default_bp=0).to_pandas()
    assert set(tighter.doc_id) <= got["b"]


def test_repeat_by_group_counts_and_rep_index(ray_session):
    """Factors repeat rows with rep=0..k-1, factor 0 drops, default=1
    passes through; row payloads ride every copy."""
    import ray.data as rd

    from h3ray.ops.sample import repeat_by_group

    tbl = pa.Table.from_arrays(
        [pa.array([0, 1, 2, 3], type=pa.int64()),
         pa.array(["a", "b", "c", None]),
         pa.array([10.0, 20.0, 30.0, 40.0])],
        names=["doc_id", "lang", "val"])
    out = repeat_by_group(rd.from_arrow(tbl), "lang",
                          {"a": 3, "b": 0}).to_pandas()
    got = sorted(zip(out.doc_id, out.rep, out.val))
    assert got == [(0, 0, 10.0), (0, 1, 10.0), (0, 2, 10.0),
                   (2, 0, 30.0), (3, 0, 40.0)]


def test_cap_per_group_hash_order_winners(ray_session):
    """Per-group cap keeps the k smallest-hash keys per group, matching a
    brute-force reference, independent of partitioning; groups with fewer
    than k rows pass through whole."""
    import ray.data as rd

    from h3ray.io.pages import _mix64
    from h3ray.ops.sample import cap_per_group

    n = 3000
    keys = np.arange(n, dtype=np.int64)
    groups = np.array(["g%d" % (i % 7) for i in range(n)], dtype=object)
    groups[:3] = "tiny"  # a group smaller than k
    tbl = pa.Table.from_arrays(
        [pa.array(keys), pa.array(groups)], names=["doc_id", "source"])
    out = cap_per_group(rd.from_arrow(tbl).repartition(5),
                        "source", "doc_id", k=10).to_pandas()
    h = _mix64(_mix64(keys.astype(np.uint64)))
    expected = set()
    for g in set(groups):
        members = np.flatnonzero(groups == g)
        order = members[np.lexsort((keys[members], h[members]))]
        expected |= set(keys[order[:10]])
    assert set(out.doc_id) == expected
    assert set(out[out.source == "tiny"].doc_id) == {0, 1, 2}
    assert set(out.columns) == {"doc_id", "source"}


def test_grouped_mode_ties_and_counts(ray_session):
    """Mode per key with count-tie broken by smallest value; counts merge
    across partitions."""
    import ray.data as rd

    from h3ray.ops.reduce import grouped_mode

    tbl = pa.table({"k": ["a"] * 5 + ["b"] * 4,
                    "v": ["y", "y", "x", "x", "z", "q", "p", "q", "p"]})
    out = grouped_mode(rd.from_arrow(tbl).repartition(4), "k", "v") \
        .to_pandas().sort_values("k")
    assert list(out.k) == ["a", "b"]
    assert list(out.mode_value) == ["x", "p"]  # x ties y -> x; p ties q -> p
    assert list(out.mode_count) == [2, 2]


def test_pivot_counts_fixed_columns(ray_session):
    """Fixed declared columns, absent cells zero, out-of-range dropped."""
    import ray.data as rd

    from h3ray.ops.reduce import pivot_counts

    tbl = pa.table({"t": ["a", "a", "b", "a", "b"],
                    "h": pa.array([0, 1, 1, 9, 1], type=pa.int64())})
    out = pivot_counts(rd.from_arrow(tbl).repartition(3), "t", "h",
                       [0, 1, 2], prefix="h").to_pandas().sort_values("t")
    assert list(out.columns) == ["t", "h0", "h1", "h2"]
    assert out[out.t == "a"].iloc[0].tolist() == ["a", 1, 1, 0]  # h9 dropped
    assert out[out.t == "b"].iloc[0].tolist() == ["b", 0, 2, 0]


def test_profile_numeric_nulls_and_all_null(ray_session):
    """Profiler merges exact micro stats across partitions; nulls counted;
    an all-null column keeps null min/max/sum."""
    import ray.data as rd

    from h3ray.ops.reduce import profile_numeric

    tbl = pa.table({
        "a": pa.array([1.5, None, -2.25, 0.0], type=pa.float64()),
        "b": pa.array([None, None, None, None], type=pa.float64())})
    out = profile_numeric(rd.from_arrow(tbl).repartition(2),
                          ["a", "b"]).to_pandas().set_index("column")
    ra = out.loc["a"]
    assert (ra.n_rows, ra.n_null) == (4, 1)
    assert (ra.min_micro, ra.max_micro) == (-2250000, 1500000)
    assert ra.sum_micro == -750000
    rb = out.loc["b"]
    assert (rb.n_rows, rb.n_null) == (4, 4)
    import pandas as pd
    assert pd.isna(rb.min_micro) and pd.isna(rb.max_micro) \
        and pd.isna(rb.sum_micro)


def test_redact_stage_patterns(ray_session):
    import ray.data as rd

    from h3ray.text.analysis import redact_stage

    tbl = pa.table({"doc_id": [0, 1], "text": ["w12 34x", "no digits"]})
    out = rd.from_arrow(tbl).map_batches(
        redact_stage(), batch_format="pyarrow").to_pandas()
    assert list(out.sort_values("doc_id").text) == ["w# #x", "no digits"]
    out2 = rd.from_arrow(tbl).map_batches(
        redact_stage(pattern="[aeiou]", replacement="_",
                     out_col="scrubbed"),
        batch_format="pyarrow").to_pandas()
    assert "scrubbed" in out2.columns and "text" in out2.columns


def test_weighted_sample_per_row_thresholds(ray_session):
    """Weight 0 never keeps, weight 10000 always keeps, and membership at
    weight w equals hash_sample at rate w for the same keys."""
    import ray.data as rd

    from h3ray.ops.sample import hash_sample, weighted_sample

    n = 4000
    keys = np.arange(n, dtype=np.int64)
    w = np.zeros(n, dtype=np.int64)
    w[keys % 3 == 0] = 10000
    w[keys % 3 == 1] = 2500
    tbl = pa.table({"doc_id": keys, "weight_bp": w})
    out = weighted_sample(rd.from_arrow(tbl).repartition(5),
                          "doc_id", "weight_bp").to_pandas()
    got = set(out.doc_id)
    assert {k for k in got if k % 3 == 2} == set()          # w=0 drops all
    assert {int(k) for k in keys[keys % 3 == 0]} <= got     # w=1 keeps all
    flat = set(hash_sample(rd.from_arrow(tbl), "doc_id", 2500)
               .to_pandas().doc_id)
    assert {k for k in got if k % 3 == 1} == \
        {k for k in flat if k % 3 == 1}


def test_unpivot_stacks_columns(ray_session):
    import ray.data as rd

    from h3ray.ops.reduce import unpivot

    tbl = pa.table({"id": pa.array([1, 2], type=pa.int64()),
                    "a": pa.array([10, 20], type=pa.int64()),
                    "b": pa.array([30, 40], type=pa.int64())})
    out = unpivot(rd.from_arrow(tbl), "id", ["a", "b"]) \
        .to_pandas().sort_values(["metric", "id"])
    assert list(map(tuple, out.itertuples(index=False))) == [
        (1, "a", 10), (2, "a", 20), (1, "b", 30), (2, "b", 40)]
