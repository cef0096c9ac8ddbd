"""Distributed shuffle hash join with explicit co-partitioning.

Shape: both sides are bucketed by key hash (co-partitioning), null-padded to
a common schema, tagged with a side flag and unioned; one groupby(bucket)
shuffle co-locates matching keys; inside each bucket a vectorized sorted
merge join (lexsort + searchsorted + ragged expansion) emits the join rows.
No driver materialization; both sides ride one ops.reduce.exchange, so the
reducer count is default_num_buckets() (~4x cluster cores).

Each side's columns come from `ops.reduce.arrow_schema`, free for a read or
a `typed_map`/`exchange` output; an input Ray cannot type without running
(a plain map, a union) is executed up to one block first, so feed joins
typed inputs. The output's schema is recorded (`hash_join` through its
exchange, `semi_join` by `_record_schema`) and a typed empty block leads
its rows (`ops.reduce.typed_rows`), so the joined Dataset answers
`schema()` without a run and keeps its columns over no rows.

Relationship to the native `Dataset.join` (which Ray 2.49 does provide;
the library's shuffle joins, e.g. knn_join_shuffle and pip_join_shuffle,
use this one instead): this explicit variant measured 3.4x faster on the
orders x customer bench (2.2 s vs 7.5 s at sf0.1, 32 cpus, min-of-2) —
one sort shuffle + numpy merge instead of the aggregator-actor repartition —
and its fixed, reusable bucketing is what the iterative label-propagation
loop (text.dedup.duplicate_clusters) builds on. For small-side joins prefer
a broadcast lookup stage (pipelines/relational.orders_by_segment) — it
skips the shuffle entirely.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .reduce import _record_schema, arrow_schema, exchange, typed_rows


def _ragged_take(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat index array [starts[i] .. starts[i]+lengths[i]) per i."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, np.int64)
    bounds = np.cumsum(lengths) - lengths
    pos = np.arange(total, dtype=np.int64) - np.repeat(bounds, lengths)
    return np.repeat(starts, lengths) + pos


def hash_join(left_ds, right_ds, left_key: str, right_key: str,
              how: str = "inner"):
    """Equi-join two Datasets on int64 keys.

    Output columns: `left_key` plus every non-key column of both sides
    (names must not collide — project/rename upstream). how: "inner",
    "left" (unmatched left rows carry nulls in right columns) or "full"
    (additionally, unmatched RIGHT rows survive with nulls in left columns
    and their own key in `left_key` — SQL COALESCE(l.key, r.key)). Null
    join keys are dropped on BOTH sides before bucketing (SQL equi-join
    semantics: null never matches; note this also drops null-key outer
    rows — pre-split them upstream if they must be retained).
    """
    if how not in ("inner", "left", "full"):
        raise ValueError(f"unsupported how={how!r}")

    lschema = arrow_schema(left_ds)
    rschema = arrow_schema(right_ds)
    if lschema is None or rschema is None:
        # An empty upstream aggregate yields a schema-less Dataset; the
        # caller must type it (ops.reduce.typed_map, or a driver_merge +
        # from_arrow) so the join knows its columns.
        raise ValueError("hash_join requires inputs with a known schema; "
                         "an empty upstream aggregate loses its schema — "
                         "type it with ops.reduce.typed_map first")
    lcols = [c for c in lschema.names if c != left_key]
    rcols = [c for c in rschema.names if c != right_key]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"column name collision: {sorted(overlap)}")
    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))
    fields = ([pa.field("_key", pa.int64()), pa.field("_side", pa.int8())]
              + [pa.field(c, ltypes[c]) for c in lcols]
              + [pa.field(c, rtypes[c]) for c in rcols])
    union_schema = pa.schema(fields)

    def pad(key_col: str, side: int):
        def fn(batch: pa.Table) -> pa.Table:
            kc = batch[key_col]
            if kc.null_count:
                # SQL equi-join semantics: null keys never match. Without
                # this filter to_numpy() converts a nullable int column to
                # float64 with NaN, and NaN->int64 yields garbage sentinels
                # that silently join to each other.
                batch = batch.filter(pa.compute.is_valid(kc))
            n = batch.num_rows
            keys = batch[key_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            arrays = [pa.array(keys),
                      pa.array(np.full(n, side, dtype=np.int8))]
            for f in fields[2:]:
                if f.name in batch.column_names:
                    col = batch[f.name]
                    if isinstance(col, pa.ChunkedArray):
                        col = col.combine_chunks()
                    arrays.append(col)
                else:
                    arrays.append(pa.nulls(n, f.type))
            return pa.Table.from_arrays(arrays, schema=union_schema)

        return fn

    out_schema = pa.schema([pa.field(left_key, pa.int64())]
                           + [pa.field(c, ltypes[c]) for c in lcols]
                           + [pa.field(c, rtypes[c]) for c in rcols])

    def merge(group: pa.Table) -> pa.Table:
        side = group["_side"].to_numpy(zero_copy_only=False)
        keys = group["_key"].to_numpy(zero_copy_only=False)
        lrows = np.flatnonzero(side == 0)
        rrows = np.flatnonzero(side == 1)
        rk = keys[rrows]
        rorder = np.argsort(rk, kind="stable")
        rk_sorted = rk[rorder]
        lk = keys[lrows]
        lo = np.searchsorted(rk_sorted, lk, side="left")
        hi = np.searchsorted(rk_sorted, lk, side="right")
        counts = hi - lo
        if how in ("left", "full"):
            # Unmatched lefts emit one row with null right columns.
            take_l = np.repeat(np.arange(lk.shape[0]),
                               np.maximum(counts, 1))
            take_r = np.full(take_l.shape[0], -1, dtype=np.int64)
            fill = _ragged_take(lo, counts)
            has = np.repeat(counts > 0, np.maximum(counts, 1))
            take_r[has] = fill
        else:
            take_l = np.repeat(np.arange(lk.shape[0]), counts)
            take_r = _ragged_take(lo, counts)
        l_idx = pa.array(lrows[take_l])
        r_valid = take_r >= 0
        r_idx_np = np.zeros(take_r.shape[0], dtype=np.int64)
        if r_valid.any():
            # Guarded gather: -1 sentinels must not index (empty) rorder.
            r_idx_np[r_valid] = rrows[rorder[take_r[r_valid]]]
        arrays = [group["_key"].combine_chunks().take(l_idx)
                  if isinstance(group["_key"], pa.ChunkedArray)
                  else group["_key"].take(l_idx)]
        for c in lcols:
            col = group[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            arrays.append(col.take(l_idx))
        r_take = pa.array(np.where(r_valid, r_idx_np, 0))
        for c in rcols:
            col = group[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            taken = col.take(r_take)
            if not r_valid.all():
                taken = pa.compute.if_else(pa.array(r_valid), taken,
                                           pa.nulls(1, col.type)[0])
            arrays.append(taken)
        out = pa.Table.from_arrays(arrays, schema=out_schema)
        if how == "full":
            # Unmatched RIGHT rows: their key in left_key, left cols null.
            ulk = np.unique(lk)
            pos = np.searchsorted(ulk, rk_sorted)
            rmat = (pos < ulk.shape[0]) & (
                ulk[np.minimum(pos, max(ulk.shape[0] - 1, 0))]
                == rk_sorted) if ulk.shape[0] else \
                np.zeros(rk_sorted.shape[0], dtype=bool)
            un = np.flatnonzero(~rmat)
            if un.shape[0]:
                take_u = pa.array(rrows[rorder[un]])
                extra = [pa.array(rk_sorted[un])]
                extra += [pa.nulls(un.shape[0], ltypes[c]) for c in lcols]
                for c in rcols:
                    col = group[c]
                    if isinstance(col, pa.ChunkedArray):
                        col = col.combine_chunks()
                    extra.append(col.take(take_u))
                out = pa.concat_tables(
                    [out, pa.Table.from_arrays(extra, schema=out_schema)])
        return out

    # batch_size coalesces tiny upstream blocks BEFORE the exchange: the
    # sort's per-partition overhead is driven by input block count, and a
    # small table read as 64x ~100-row blocks measurably doubles the
    # shuffle wall. 32K rows keeps payload batches bounded at scale.
    # Zero groups (both inputs empty) yield no typed block at all; a
    # typed empty lead block keeps out_schema in the rows at negligible
    # cost.
    return typed_rows(exchange([left_ds, right_ds], "_key", merge,
                               prep=[pad(left_key, 0), pad(right_key, 1)],
                               batch_size=32768))


def semi_join(left_ds, right_ds, left_key: str, right_key: str,
              anti: bool = False):
    """Distributed semi/anti equi-join on int64 keys.

    Semi: left rows whose key appears on the right (SQL EXISTS). Anti: left
    rows whose key does NOT appear (SQL NOT EXISTS). Output schema == left
    schema; the right side never contributes columns, so it is projected to
    its key column and batch-distincted BEFORE the shuffle — the exchange
    moves left rows plus O(distinct right keys), not the right table.

    Null keys follow EXISTS semantics: a null never matches, so null-key
    left rows are dropped by semi and RETAINED by anti (unlike NOT IN).
    """
    lschema = arrow_schema(left_ds)
    if lschema is None:
        raise ValueError("semi_join/anti_join requires a left input with a "
                         "known schema; an empty upstream aggregate yields "
                         "a schema-less Dataset — type it with "
                         "ops.reduce.typed_map first")
    ltypes = dict(zip(lschema.names, lschema.types))
    lcols = list(lschema.names)
    fields = ([pa.field("_key", pa.int64()), pa.field("_side", pa.int8())]
              + [pa.field(c, ltypes[c]) for c in lcols])
    union_schema = pa.schema(fields)
    out_schema = pa.schema([pa.field(c, ltypes[c]) for c in lcols])

    def pad(key_col: str, side: int):
        def fn(batch: pa.Table) -> pa.Table:
            kc = batch[key_col]
            if kc.null_count:
                batch = batch.filter(pa.compute.is_valid(kc))
            n = batch.num_rows
            keys = batch[key_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if side == 1:
                keys = np.unique(keys)
                n = keys.shape[0]
            arrays = [pa.array(keys),
                      pa.array(np.full(n, side, dtype=np.int8))]
            for f in fields[2:]:
                if side == 0 and f.name in batch.column_names:
                    col = batch[f.name]
                    if isinstance(col, pa.ChunkedArray):
                        col = col.combine_chunks()
                    arrays.append(col)
                else:
                    arrays.append(pa.nulls(n, f.type))
            return pa.Table.from_arrays(arrays, schema=union_schema)

        return fn

    def probe(group: pa.Table) -> pa.Table:
        side = group["_side"].to_numpy(zero_copy_only=False)
        keys = group["_key"].to_numpy(zero_copy_only=False)
        lrows = np.flatnonzero(side == 0)
        rk = np.unique(keys[side == 1])
        lk = keys[lrows]
        pos = np.searchsorted(rk, lk)
        member = (pos < rk.shape[0]) & (rk[np.minimum(pos, max(
            rk.shape[0] - 1, 0))] == lk) if rk.shape[0] else \
            np.zeros(lk.shape[0], dtype=bool)
        take = pa.array(lrows[member != anti])
        arrays = []
        for c in lcols:
            col = group[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            arrays.append(col.take(take))
        return pa.Table.from_arrays(arrays, schema=out_schema)

    result = typed_rows(exchange(
        [left_ds, right_ds.select_columns([right_key])], "_key", probe,
        prep=[pad(left_key, 0), pad(right_key, 1)], batch_size=32768))
    if anti:
        # NOT EXISTS keeps null-key left rows; they bypass the shuffle.
        def nulls_only(batch: pa.Table) -> pa.Table:
            kept = batch.filter(pa.compute.is_null(batch[left_key]))
            return pa.Table.from_arrays(
                [kept[c].combine_chunks() if isinstance(
                    kept[c], pa.ChunkedArray) else kept[c] for c in lcols],
                schema=out_schema)

        result = result.union(left_ds.map_batches(
            nulls_only, batch_format="pyarrow", batch_size=65536))
    return _record_schema(result, out_schema)


def anti_join(left_ds, right_ds, left_key: str, right_key: str):
    """Left rows with no key match on the right (SQL NOT EXISTS)."""
    return semi_join(left_ds, right_ds, left_key, right_key, anti=True)


def range_join_stage(intervals: pa.Table, val_col: str,
                     lo_col: str = "lo", hi_col: str = "hi"):
    """Broadcast range (interval) join as a map_batches stage.

    `intervals` is the SMALL side: rows of [lo, hi) plus any payload
    columns. The stage replicates each left row once per interval
    containing its `val_col` (inner semantics: non-matching rows drop) and
    appends the interval's payload columns. Intervals may OVERLAP — the
    match matrix is a vectorized (batch x intervals) comparison, so keep
    the interval table small (hundreds, not millions; that is what
    "broadcast side" means — a big interval side needs a sort-based
    partitioned approach instead).

    The table is captured in the closure: Ray serializes it once per task
    graph and every actor/task reuses it — same broadcast economics as an
    explicit ray.put for small sides, with no get() plumbing.
    """
    lo = intervals[lo_col].to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    hi = intervals[hi_col].to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    payload_cols = [c for c in intervals.column_names
                    if c not in (lo_col, hi_col)]
    payload = {c: intervals[c].combine_chunks()
               if isinstance(intervals[c], pa.ChunkedArray)
               else intervals[c] for c in payload_cols}

    def fn(batch: pa.Table) -> pa.Table:
        v = batch[val_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        hits = (v[:, None] >= lo[None, :]) & (v[:, None] < hi[None, :])
        row_idx, int_idx = np.nonzero(hits)
        out = batch.take(pa.array(row_idx))
        ii = pa.array(int_idx)
        for c in payload_cols:
            out = out.append_column(c, payload[c].take(ii))
        return out

    return fn
