"""Distributed prefix scan and sequence packing.

A global ordered cumulative sum is the primitive behind sequence packing
(assigning documents to fixed-token-budget context windows), offset
assignment, and ordered chunking. The classic two-pass scan maps to Ray
Data directly:

  pass 1 (combiner): per-batch partial sums per contiguous KEY-RANGE
    bucket (`key // bucket_width`) — a bounded (n_buckets)-row partial
    set merged on the driver (see ops.reduce for why that beats
    repartition(1)); an exclusive scan over the ordered bucket totals
    gives each bucket's global carry, broadcast via ray.put.
  pass 2: groupby bucket -> one vectorized sort + cumsum per bucket plus
    its carry. Every bucket is independent, so the wide step is one
    range-bucket groupby, never a global sort. (A range bucket holds a
    contiguous key range, not a hash of the key, so it is not an
    ops.reduce.exchange.)

Scale assumptions (documented, matching the repo's other bucketed ops):
the order key is int64 and roughly uniform over its range, so
`bucket_width` bounds per-bucket rows (pick width ~ target rows per
reducer); the number of buckets is key_range / bucket_width, bounded by
construction — at 100 TB with 1e12 docs and width 2^20 that is ~1e6
bucket totals on the driver, a few MB.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .reduce import _record_schema, arrow_schema, combine, typed_map


def _bucket_carries(ds, order_col: str, value_col: str, bucket_width: int,
                    agg: str, carry):
    """Pass 1 of the scan: one combine takes the SUM or MAX (`agg` is
    "sums" or "maxs") of the int64 values per key-range bucket
    (`key // bucket_width`), and its finish maps the bucket-ordered
    totals to each bucket's exclusive carry with `carry(totals)`.
    Returns (sorted buckets, carries), the arrays pass 2 broadcasts."""
    def prep(batch: pa.Table) -> pa.Table:
        k = batch[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"_bucket": k // bucket_width, "_v": v})

    def finish(g: pa.Table) -> pa.Table:
        g = g.sort_by("_bucket")
        return pa.table({"_bucket": g["_bucket"],
                         "_carry": carry(g["_v"].to_numpy())})

    t = combine(ds, "_bucket", **{agg: ["_v"]}, prep=prep, finish=finish,
                schema=pa.schema([("_bucket", pa.int64()),
                                  ("_v", pa.int64())]))
    return t["_bucket"].to_numpy(), t["_carry"].to_numpy()


def _scan(ds, order_col: str, value_col: str, bucket_width: int, agg: str,
          carry, scan, out_col: str):
    """Both passes: `_bucket_carries`, then every key-range bucket's rows
    (`key // bucket_width`) to one call of `scan(group, carry)` with
    that bucket's carry. The output's schema is `scan`'s over an empty
    table of the input's (so `scan` must take one), recorded when Ray
    knows the input's before it runs; over an input with no rows the
    result is that empty table."""
    import ray
    import ray.data as rd

    if bucket_width < 1:
        raise ValueError(f"bucket_width must be >= 1, got {bucket_width}")

    def empty(base) -> pa.Table:
        return pa.table({out_col: pa.array([], pa.int64())}) \
            if base is None else scan(base.empty_table(), np.int64(0))

    buckets, carries = _bucket_carries(ds, order_col, value_col,
                                       bucket_width, agg, carry)
    if not buckets.size:
        return rd.from_arrow(empty(arrow_schema(ds)))
    carry_ref = ray.put((buckets, carries))

    def bucketize(batch: pa.Table) -> pa.Table:
        k = batch[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("_bucket",
                                   pa.array(k // bucket_width))

    def per_bucket(group: pa.Table) -> pa.Table:
        bs, cs = ray.get(carry_ref)
        group = group.drop_columns(["_bucket"])
        k = group[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return scan(group, cs[np.searchsorted(bs, k[0] // bucket_width)])

    out = ds.map_batches(bucketize, batch_format="pyarrow") \
        .groupby("_bucket").map_groups(per_bucket, batch_format="pyarrow")
    base = arrow_schema(ds, fetch=False)
    return out if base is None else _record_schema(out, empty(base).schema)


def _exclusive_cumsum(ds, order_col: str, value_col: str, out_col: str,
                      bucket_width: int, fn):
    """`out_col` = fn(exclusive running int64 sum of `value_col`) in
    global `order_col` order."""
    def scan(group: pa.Table, carry) -> pa.Table:
        k = group[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = group[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(k, kind="stable")
        excl = np.cumsum(v[order]) - v[order]
        return group.take(pa.array(order)).append_column(
            out_col, pa.array(fn(excl + carry)))

    return _scan(ds, order_col, value_col, bucket_width, "sums",
                 lambda tot: np.cumsum(tot) - tot, scan, out_col)


def global_exclusive_cumsum(ds, order_col: str, value_col: str,
                            out_col: str = "excl_cumsum",
                            bucket_width: int = 65536):
    """Append `out_col` = sum of `value_col` over all rows with a strictly
    smaller `order_col` (exclusive running total in global key order).
    Keys must be unique int64; values are summed as int64 (exact)."""
    return _exclusive_cumsum(ds, order_col, value_col, out_col,
                             bucket_width, lambda e: e)


def global_exclusive_cummax(ds, order_col: str, value_col: str,
                            out_col: str = "excl_cummax",
                            bucket_width: int = 65536):
    """Append `out_col` = MAX of `value_col` over all rows with a
    strictly smaller `order_col` (exclusive running maximum in global
    key order) — the watermark / out-of-orderness primitive. NULL for
    the globally-first row, exactly like the SQL
    `MAX(v) OVER (ORDER BY k ROWS BETWEEN UNBOUNDED PRECEDING AND
    1 PRECEDING)` frame. Same two-pass shape and scale contract as
    `global_exclusive_cumsum` (max is associative and commutative, so
    bucket partial maxima + an exclusive driver prefix-max carry are
    exact). Keys must be unique int64."""
    NEG = np.iinfo(np.int64).min

    def scan(group: pa.Table, carry) -> pa.Table:
        k = group[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = group[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(k, kind="stable")
        excl = np.full(order.shape[0], NEG)
        excl[1:] = np.maximum.accumulate(v[order])[:-1]
        run = np.maximum(excl, carry)
        return group.take(pa.array(order)).append_column(
            out_col, pa.array(np.where(run == NEG, None, run),
                              pa.int64()))

    return _scan(ds, order_col, value_col, bucket_width, "maxs",
                 lambda tot: np.r_[NEG, np.maximum.accumulate(tot)][:-1],
                 scan, out_col)


def running_total(ds, order_col: str, value_col: str, out_col: str,
                  bucket_width: int = 65536):
    """One row per distinct int64 `order_col`: `value_col` summed over
    its rows and `out_col`, the sum over every row whose key is <= it
    (an inclusive running total in key order). Keys may repeat; each
    bucket nets its rows per key before the cumsum. Same two-pass shape
    and scale contract as `global_exclusive_cumsum`. Output columns:
    order_col, value_col, out_col, all int64."""
    def scan(group: pa.Table, carry) -> pa.Table:
        t = group[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = group[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ut, inv = np.unique(t, return_inverse=True)
        acc = np.zeros(ut.shape[0], dtype=np.int64)
        np.add.at(acc, inv, d)
        return pa.table({order_col: ut, value_col: acc,
                         out_col: np.cumsum(acc) + carry})

    return _scan(typed_map(ds, lambda b: b.select([order_col, value_col])),
                 order_col, value_col, bucket_width, "sums",
                 lambda tot: np.cumsum(tot) - tot, scan, out_col)


def pack_sequences(ds, order_col: str, size_col: str, budget: int,
                   out_col: str = "pack_id",
                   bucket_width: int = 65536):
    """Sequence packing: assign each row (document) to the fixed-budget
    pack in which its span BEGINS under contiguous key-order packing —
    pack_id = floor(exclusive_running_size / budget). Deterministic,
    order-stable, and SQL-mirrorable (a window SUM), unlike greedy
    first-fit bin packing; long documents straddle pack boundaries, which
    is exactly how training-context packing treats them."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    return _exclusive_cumsum(ds, order_col, size_col, out_col, bucket_width,
                             lambda e: e // budget)
