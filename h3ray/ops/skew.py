"""Skew handling: salted two-phase aggregation for hot keys.

Web pages cluster on ~urban H3 cells (the generator plants 80% of mass in 50
city clusters precisely to exercise this). A plain groupby(key) sends every
row of a hot cell to one reducer; salting splits each key into `salt_mod`
sub-keys for the first (heavy) aggregation round, then merges the tiny
per-key partials in a second round:

    groupby((key, salt)) -> partial agg -> groupby(key) -> final merge

The combiner-first pipelines (geotag.cell_counts) sidestep the issue for
algebraic aggregates by pre-reducing inside map_batches; salting is for
aggregations whose per-group work is non-algebraic or memory-heavy (top-k
per hot key, per-group model state), where group size itself must be
bounded.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io.pages import _mix64


def default_num_buckets() -> int:
    """Reducer bucket count for hash-bucketed groupbys: ~4x cluster cores so
    no reducer holds more than ~1/(4 cores) of the data and parallelism is
    never capped by a fixed constant."""
    import ray

    if ray.is_initialized():
        return max(32, int(4 * ray.cluster_resources().get("CPU", 8)))
    return 128


def _key_hash(col) -> np.ndarray:
    """uint64 hash of a key column (shared with ops.sample)."""
    from .sample import _key_hash as impl

    return impl(col)


def _desc_sort_key(vals: np.ndarray) -> np.ndarray:
    """Ascending sort key that orders `vals` DESCENDING for any numeric
    dtype. Plain negation is wrong for unsigned ints (0 wraps to 0 and
    sorts as the maximum) and overflows at int64 min."""
    kind = vals.dtype.kind
    if kind == "u":
        return np.iinfo(vals.dtype).max - vals
    if kind == "i":
        # Order-preserving signed->unsigned map, then reverse.
        u = vals.astype(np.int64).view(np.uint64) ^ np.uint64(1 << 63)
        return np.uint64(0xFFFFFFFFFFFFFFFF) - u
    return -vals


def _segmented_top_k(tbl: pa.Table, key_col: str, value_col: str, k: int,
                     tiebreak_col: str | None) -> pa.Table:
    """Vectorized per-key top-k by (value DESC, tiebreak ASC): one lexsort,
    segment boundaries, rank-within-segment filter — no per-group callback."""
    keys = tbl[key_col].to_numpy(zero_copy_only=False)
    vals = tbl[value_col].to_numpy(zero_copy_only=False)
    n = keys.shape[0]
    if n == 0:
        return tbl
    tb = (tbl[tiebreak_col].to_numpy(zero_copy_only=False)
          if tiebreak_col else np.zeros(n, np.int8))
    order = np.lexsort((tb, _desc_sort_key(vals), keys))
    ks = keys[order]
    new = np.ones(n, dtype=bool)
    new[1:] = ks[1:] != ks[:-1]
    seg_start = np.flatnonzero(new)
    rank = np.arange(n) - seg_start[np.cumsum(new) - 1]
    return tbl.take(pa.array(order[rank < k]))


def detect_hot_keys(ds, key_col: str, row_key_col: str, *,
                    rate_bp: int = 100, hot_share: float = 0.01):
    """Estimate hot keys from a deterministic row-sample histogram.

    The §4 skew design: a cheap pre-pass samples ~rate_bp/10000 of the rows
    (by hash of `row_key_col`, a per-row-unique column like url/event_id, so
    the sample is uniform over ROWS and stable across partitionings),
    counts per key with the combiner pattern, and returns the keys whose
    sampled share exceeds `hot_share` — the only keys worth salting.
    Returns (hot_keys sorted int64 array, their estimated row shares);
    both empty (int64, float64) when the sample holds no rows."""
    from .reduce import combine
    from .sample import hash_sample

    sampled = hash_sample(ds.select_columns([row_key_col, key_col]),
                          row_key_col, rate_bp)
    hist = combine(sampled, key_col, count="_n", batch_size=131072)
    if key_col not in hist.column_names:  # no partial reached the root
        return np.empty(0, np.int64), np.empty(0, np.float64)
    keys = hist[key_col].to_numpy(zero_copy_only=False)
    counts = hist["_n"].to_numpy(zero_copy_only=False)
    total = max(int(counts.sum()), 1)
    shares = counts / total
    hot = shares > hot_share
    order = np.argsort(keys[hot])  # native dtype (int or string) preserved
    return keys[hot][order], shares[hot][order]


def salted_top_k(ds, key_col: str, value_col: str, k: int,
                 salt_mod: int = 16, num_buckets: int | None = None,
                 tiebreak_col: str | None = None,
                 hot_keys: np.ndarray | None = None):
    """Per-key top-k rows by value with bounded reducer fan-in.

    Top-k is non-algebraic (needs the rows, not a running scalar), so a hot
    key cannot be pre-reduced by a combiner — this is exactly where salting
    earns its keep: round 1 spreads each key's rows over `salt_mod` salted
    hash buckets and takes per-(key,salt) partial top-k (a hot key
    contributes at most ~rows/salt_mod to any one reducer); round 2 merges
    the <= salt_mod*k surviving rows per key. Both rounds use the bucketed
    segmented-top-k reducer, never a per-key Python callback. Determinism:
    ties broken by `tiebreak_col` ascending.

    With `hot_keys` (a sorted int64 array from `detect_hot_keys`), only
    those keys are salted: cold keys keep salt 0, so their round-1 partial
    output is k rows instead of up to salt_mod*k — the sampled-histogram
    skew design (SURVEY §4) instead of blanket salting.
    """
    nb = num_buckets or default_num_buckets()
    # Hot membership is tested in HASH space (dtype-agnostic: works for
    # string keys too; a hash collision merely salts one extra key, which
    # never affects correctness — salting is performance-only).
    hot_hashes = None
    if hot_keys is not None and len(hot_keys):
        hot_hashes = np.sort(_key_hash(pa.array(list(hot_keys))))

    def bucket1(batch: pa.Table) -> pa.Table:
        h = _key_hash(batch[key_col])
        pos = np.arange(h.shape[0], dtype=np.uint64)
        salt = _mix64(h ^ _mix64(pos)) % np.uint64(salt_mod)
        if hot_keys is not None:
            if hot_hashes is not None:
                idx = np.minimum(np.searchsorted(hot_hashes, h),
                                 hot_hashes.shape[0] - 1)
                is_hot = hot_hashes[idx] == h
            else:
                is_hot = np.zeros(h.shape[0], dtype=bool)
            salt = np.where(is_hot, salt, np.uint64(0))
        b = (h + salt * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(nb)
        return batch.append_column("_bucket",
                                   pa.array(b.astype(np.int32)))

    def topk1(group: pa.Table) -> pa.Table:
        out = _segmented_top_k(group, key_col, value_col, k, tiebreak_col)
        return out.drop_columns(["_bucket"])

    partial = ds.map_batches(bucket1, batch_format="pyarrow") \
        .groupby("_bucket").map_groups(topk1, batch_format="pyarrow")

    def bucket2(batch: pa.Table) -> pa.Table:
        h = _key_hash(batch[key_col])
        return batch.append_column(
            "_bucket", pa.array((h % np.uint64(nb)).astype(np.int32)))

    return partial.map_batches(bucket2, batch_format="pyarrow") \
        .groupby("_bucket").map_groups(topk1, batch_format="pyarrow")
