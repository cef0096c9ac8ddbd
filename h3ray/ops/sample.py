"""Deterministic sampling / splitting for training-data pipelines.

Hash-based, not RNG-based: membership is a pure function of the key, so
samples are reproducible across runs, machines, and re-partitioning, and a
key never migrates between train and test when the corpus grows — the
properties that matter for 100-TB dataset curation. Rates are expressed in
basis points of the 64-bit hash space (exact integer thresholds, no float
boundary ambiguity between engines).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io.pages import _mix64, url_hash64

SAMPLE_SPACE = 10_000  # basis points


def _key_hash(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        return _mix64(col.to_numpy(zero_copy_only=False).astype(np.uint64))
    return url_hash64(col)


def hash_sample(ds, key_col: str, rate_bp: int, salt: int = 0):
    """Keep rows whose key hashes into the first `rate_bp`/10000 of the
    space. Deterministic, key-stable, composable (different salts give
    independent samples)."""

    def fn(batch: pa.Table) -> pa.Table:
        h = _mix64(_key_hash(batch[key_col]) + np.uint64(salt))
        keep = (h % np.uint64(SAMPLE_SPACE)) < rate_bp
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")


def train_test_split(ds, key_col: str, test_bp: int, salt: int = 0,
                     out_col: str = "split"):
    """Label every row 'test' (first `test_bp`/10000 of hash space) or
    'train'. Same hash stream as hash_sample, so hash_sample(rate_bp=x)
    == the test side of train_test_split(test_bp=x)."""

    def fn(batch: pa.Table) -> pa.Table:
        h = _mix64(_key_hash(batch[key_col]) + np.uint64(salt))
        is_test = (h % np.uint64(SAMPLE_SPACE)) < test_bp
        return batch.append_column(
            out_col, pa.array(np.where(is_test, "test", "train")))

    return ds.map_batches(fn, batch_format="pyarrow")


def stratified_sample(ds, key_col: str, group_col: str,
                      rates_bp: dict, default_bp: int = 0, salt: int = 0):
    """Per-group sampling rates (corpus mixing / language rebalancing):
    keep a row iff its key hashes below its GROUP's threshold.

    Same key-stable hash stream as hash_sample — the group only selects
    the threshold — so per-group samples nest (rate x is a subset of rate
    y > x at the same salt) and survive repartitioning. The rate table is
    a tiny closure constant (bounded label space): no shuffle, no state,
    one vectorized equality mask per labelled group. Unlisted / null
    groups fall back to `default_bp`.
    """
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        h = _mix64(_key_hash(batch[key_col]) + np.uint64(salt))
        bucket = (h % np.uint64(SAMPLE_SPACE)).astype(np.int64)
        thr = np.full(batch.num_rows, default_bp, dtype=np.int64)
        g = batch[group_col]
        for gv, bp in rates_bp.items():
            m = pc.fill_null(pc.equal(g, gv), False)
            thr[m.combine_chunks().to_numpy(zero_copy_only=False)] = bp
        return batch.filter(pa.array(bucket < thr))

    return ds.map_batches(fn, batch_format="pyarrow")


def repeat_by_group(ds, group_col: str, factors: dict, default: int = 1,
                    rep_col: str = "rep"):
    """Deterministic upsampling (epoch mixing): emit each row `factor`
    times for its group (0 drops the group), with `rep_col` = 0..factor-1
    so downstream shuffles/splits can distinguish copies.

    The dual of stratified_sample for factors > 1: high-value groups are
    repeated, not re-weighted, which is how LLM data mixes express >1
    epochs. Pure per-batch np.repeat — no shuffle, no state; factors is a
    tiny closure constant (bounded label space).
    """
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        out_schema = batch.schema.append(pa.field(rep_col, pa.int64()))
        if batch.num_rows == 0:
            return out_schema.empty_table()
        counts = np.full(batch.num_rows, default, dtype=np.int64)
        g = batch[group_col]
        for gv, k in factors.items():
            m = pc.fill_null(pc.equal(g, gv), False)
            counts[m.combine_chunks().to_numpy(zero_copy_only=False)] = k
        idx = np.repeat(np.arange(batch.num_rows), counts)
        ends = np.cumsum(counts)
        rep = np.arange(int(ends[-1])) - np.repeat(ends - counts, counts)
        return batch.take(pa.array(idx)).append_column(
            rep_col, pa.array(rep, type=pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def cap_per_group(ds, group_col: str, key_col: str, k: int, salt: int = 0):
    """Per-group quota cap (e.g. at most k documents per source/domain —
    the anti-boilerplate crawl cap): keep the k rows whose key hash is
    SMALLEST within each group. Winners are a deterministic, key-stable
    'random' subset — repartition-proof and reproducible like hash_sample.

    Rides the bucketed segmented-top-k skew machinery (per-group partial
    top-k per bucket, two salted rounds), so a hot group never funnels all
    its rows through one reducer. The ranking column is an ORDER-PRESERVING
    int64 image of the complemented hash — ~h maps h-ascending to
    uint64-descending, and XOR with the sign bit maps uint64 order onto
    int64 order (a plain bit-view would wrap the top half negative) —
    so the top-k machinery's value-DESC == hash-ASC, and the column is
    never a full-range uint64 on a shuffle. Hash ties break by key
    ascending in both engines.
    """
    from .skew import salted_top_k

    def add_rank(batch: pa.Table) -> pa.Table:
        h = _mix64(_key_hash(batch[key_col]) + np.uint64(salt))
        g = ~h ^ np.uint64(1 << 63)
        return batch.append_column("_hash_desc",
                                   pa.array(g.view(np.int64)))

    ranked = ds.map_batches(add_rank, batch_format="pyarrow")
    out = salted_top_k(ranked, group_col, "_hash_desc", k,
                       tiebreak_col=key_col)

    def strip(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["_hash_desc"])

    return out.map_batches(strip, batch_format="pyarrow")


def weighted_sample(ds, key_col: str, weight_bp_col: str, salt: int = 0):
    """Importance sampling: keep a row with probability
    weight_bp/10000 taken from a PER-ROW column (quality scores, domain
    weights) — same key-stable mix64 stream as hash_sample, so the kept
    set is deterministic, repartition-proof, and nests as a row's weight
    grows. Weights are integer basis points (clip to [0, 10000] upstream);
    no shuffle, no state."""

    def fn(batch: pa.Table) -> pa.Table:
        wc = batch[weight_bp_col]
        if wc.null_count:
            # A null weight is an unknown probability: drop the row rather
            # than let NaN->int64 produce a platform-defined sentinel that
            # keeps/drops nondeterministically.
            batch = batch.filter(pa.compute.is_valid(wc))
        h = _mix64(_key_hash(batch[key_col]) + np.uint64(salt))
        w = batch[weight_bp_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = (h % np.uint64(SAMPLE_SPACE)).astype(np.int64) < w
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")
