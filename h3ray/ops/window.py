"""Partitioned SQL window functions (rank family, lag/lead, ntile).

Window functions need every row of a partition co-located and ordered.
One hash exchange on the partition column (ops.reduce.exchange: all rows
of a partition land in one reducer; reducer count scales with cores)
followed by ONE vectorized lexsort per bucket that computes every
requested window column in the same pass — no per-partition Python
callback, no global sort. Per-reducer memory is
~n/default_num_buckets(); a single partition's rows are the irreducible unit
(same co-location argument as exact grouped quantiles).

Semantics match SQL (DuckDB):
- row_number: 1-based position by (order_col ASC|DESC, tiebreak ASC) —
  deterministic because the tiebreak column must be per-row unique.
- rank / dense_rank: ties on order_col only (tiebreak ignored), gaps /
  no gaps.
- ntile(n): first (count % n) tiles get ceil(count/n) rows, rest floor.
- percent_rank: (rank - 1) / (count - 1), 0.0 for single-row partitions
  — one IEEE division of exact ints, bit-identical to the SQL engine.
- cume_dist: (# rows ordered <= current) / count, same exactness.
- lag/lead(value, 1): previous/next row's value in partition order,
  null at the edges.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .reduce import combine, exchange
from .skew import _desc_sort_key


def _partition_order(group: pa.Table, part_col: str, order_col: str,
                     tiebreak_col: str, descending: bool):
    """(sort permutation, inverse-codes-sorted, segment starts, order
    values sorted) for one bucket's rows."""
    parts = group[part_col].to_numpy(zero_copy_only=False)
    ov = group[order_col].to_numpy(zero_copy_only=False)
    tb = group[tiebreak_col].to_numpy(zero_copy_only=False)
    _, inv = np.unique(parts, return_inverse=True)
    key = _desc_sort_key(ov) if descending else ov
    order = np.lexsort((tb, key, inv))
    iv = inv[order]
    n = order.shape[0]
    new_seg = np.ones(n, dtype=bool)
    if n:
        new_seg[1:] = iv[1:] != iv[:-1]
    seg_start = np.flatnonzero(new_seg)
    return order, iv, new_seg, seg_start, ov[order]


def window_rank(ds, part_col: str, order_col: str, *,
                tiebreak_col: str, descending: bool = False,
                ntile: int | None = None, dist: bool = False):
    """Append row_number / rank / dense_rank (and ntile_<n> when `ntile`,
    percent_rank + cume_dist when `dist`) columns, partitioned by
    `part_col`, ordered by `order_col`."""

    def fn(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            out = group
            for c in ["row_number", "rank", "dense_rank"] + (
                    [f"ntile_{ntile}"] if ntile else []):
                out = out.append_column(c, pa.array([], pa.int64()))
            if dist:
                for c in ["percent_rank", "cume_dist"]:
                    out = out.append_column(c, pa.array([], pa.float64()))
            return out
        order, iv, new_seg, seg_start, ov_sorted = _partition_order(
            group, part_col, order_col, tiebreak_col, descending)
        idx = np.arange(n, dtype=np.int64)
        seg_of = np.cumsum(new_seg) - 1
        pos = idx - seg_start[seg_of]          # 0-based within partition
        row_number = pos + 1
        # Tie runs: new value within segment (or new segment).
        new_val = new_seg.copy()
        new_val[1:] |= ov_sorted[1:] != ov_sorted[:-1]
        run_start = np.maximum.accumulate(np.where(new_val, idx, 0))
        rank = run_start - seg_start[seg_of] + 1
        gv = np.cumsum(new_val)
        dense = gv - gv[seg_start[seg_of]] + 1
        cols = {"row_number": row_number, "rank": rank,
                "dense_rank": dense}
        seg_len = np.diff(np.append(seg_start, n))[seg_of]
        if dist:
            denom = np.maximum(seg_len - 1, 1)
            cols["percent_rank"] = np.where(
                seg_len > 1, (rank - 1) / denom, 0.0)
            # cume_dist numerator = last index of this row's tie run,
            # relative to the partition start, + 1.
            run_starts = np.append(np.flatnonzero(new_val), n)
            run_id = np.cumsum(new_val) - 1
            run_end = run_starts[run_id + 1] - 1
            cols["cume_dist"] = (run_end - seg_start[seg_of] + 1) / seg_len
        if ntile:
            q, rem = seg_len // ntile, seg_len % ntile
            big = rem * (q + 1)
            in_big = pos < big
            safe_q = np.maximum(q, 1)  # seg_len < ntile => rem-only tiles
            cols[f"ntile_{ntile}"] = np.where(
                in_big, pos // np.maximum(q + 1, 1),
                rem + (pos - big) // safe_q) + 1
        # Scatter back to input row order.
        out = group
        for name, v in cols.items():
            dt = np.float64 if v.dtype.kind == "f" else np.int64
            scattered = np.empty(n, dtype=dt)
            scattered[order] = v
            out = out.append_column(name, pa.array(scattered))
        return out

    return exchange(ds, part_col, fn, batch_size=131072)


def window_lag_lead(ds, part_col: str, order_col: str, value_col: str, *,
                    tiebreak_col: str, lag_col: str = "lag_value",
                    lead_col: str = "lead_value"):
    """Append lag(value,1) / lead(value,1) over (PARTITION BY part_col
    ORDER BY order_col, tiebreak_col); null at partition edges."""

    def fn(group: pa.Table) -> pa.Table:
        n = group.num_rows
        vtype = group.schema.field(value_col).type
        if n == 0:
            return group.append_column(lag_col, pa.array([], vtype)) \
                .append_column(lead_col, pa.array([], vtype))
        order, iv, new_seg, seg_start, _ = _partition_order(
            group, part_col, order_col, tiebreak_col, descending=False)
        vals = group[value_col].to_numpy(zero_copy_only=False)[order]
        lag_v = np.empty_like(vals)
        lag_v[1:] = vals[:-1]
        lag_mask = ~new_seg                    # first row of segment: null
        lead_v = np.empty_like(vals)
        lead_v[:-1] = vals[1:]
        last = np.zeros(n, dtype=bool)
        last[:-1] = new_seg[1:]
        last[-1] = True
        lead_mask = ~last
        out_lag = np.empty(n, dtype=vals.dtype)
        out_lag[order] = lag_v
        ok_lag = np.empty(n, dtype=bool)
        ok_lag[order] = lag_mask
        out_lead = np.empty(n, dtype=vals.dtype)
        out_lead[order] = lead_v
        ok_lead = np.empty(n, dtype=bool)
        ok_lead[order] = lead_mask
        return group.append_column(
            lag_col, pa.array(out_lag, mask=~ok_lag)) \
            .append_column(lead_col, pa.array(out_lead, mask=~ok_lead))

    return exchange(ds, part_col, fn, batch_size=131072)


def window_first_last(ds, part_col: str, order_col: str, value_col: str,
                      *, tiebreak_col: str, nth: int | None = None,
                      first_col: str = "first_value",
                      last_col: str = "last_value",
                      nth_col: str = "nth_value"):
    """Append FIRST_VALUE / LAST_VALUE (and NTH_VALUE(value, nth) when
    `nth`) over (PARTITION BY part_col ORDER BY order_col, tiebreak_col
    ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) — the full
    partition frame, so every row of a partition sees the same three
    values. Same one-exchange design as the rank family: partitions hash
    into a bounded bucket count, one lexsort per bucket orders every
    partition in it, and the per-row answers are two gathers off the
    segment boundaries (no per-partition Python). NTH_VALUE is NULL when
    the partition has fewer than `nth` rows, as in SQL."""

    def fn(group: pa.Table) -> pa.Table:
        n = group.num_rows
        vtype = group.schema.field(value_col).type
        if n == 0:
            out = group.append_column(first_col, pa.array([], vtype)) \
                .append_column(last_col, pa.array([], vtype))
            if nth:
                out = out.append_column(nth_col, pa.array([], vtype))
            return out
        order, iv, new_seg, seg_start, _ = _partition_order(
            group, part_col, order_col, tiebreak_col, descending=False)
        vals = group[value_col].to_numpy(zero_copy_only=False)[order]
        seg_of = np.cumsum(new_seg) - 1
        starts = seg_start[seg_of]             # per sorted row
        seg_end = np.append(seg_start[1:], n)  # exclusive, per segment
        ends = seg_end[seg_of]
        first_v = vals[starts]
        last_v = vals[ends - 1]
        out_first = np.empty(n, dtype=vals.dtype)
        out_first[order] = first_v
        out_last = np.empty(n, dtype=vals.dtype)
        out_last[order] = last_v
        out = group.append_column(first_col, pa.array(out_first)) \
            .append_column(last_col, pa.array(out_last))
        if nth:
            pos = starts + (nth - 1)
            ok = pos < ends
            nth_v = vals[np.minimum(pos, n - 1)]
            out_nth = np.empty(n, dtype=vals.dtype)
            out_nth[order] = nth_v
            ok_n = np.empty(n, dtype=bool)
            ok_n[order] = ok
            out = out.append_column(nth_col,
                                    pa.array(out_nth, mask=~ok_n))
        return out

    return exchange(ds, part_col, fn, batch_size=131072)


def partitioned_transitions(ds, part_col: str, order_col: str,
                            label_col: str, *, tiebreak_col: str,
                            prev_col: str = "prev_label",
                            count_col: str = "n"):
    """Adjacent-pair (LAG) label transition counts — the Markov-chain /
    clickstream shape: COUNT(*) of (lag(label), label) pairs over
    (PARTITION BY part_col ORDER BY order_col, tiebreak_col), first row
    of each partition excluded (its lag is NULL in SQL).

    Each reducer dictionary-encodes its labels, reads the lag as a
    shifted gather on the sorted code array, and bincounts the composite
    (prev_code * k + code) key — so a reducer emits at most |labels|^2
    rows no matter how many events it saw. The caller folds those
    partials with a tiny groupby/sum (ops.reduce.driver_merge fits: the
    global result is bounded by the label-vocabulary square, not the
    row count)."""

    def fn(group: pa.Table) -> pa.Table:
        lab_type = group.schema.field(label_col).type
        empty = pa.table({
            prev_col: pa.array([], lab_type),
            label_col: pa.array([], lab_type),
            count_col: pa.array([], pa.int64())})
        n = group.num_rows
        if n == 0:
            return empty
        order, _, new_seg, _, _ = _partition_order(
            group, part_col, order_col, tiebreak_col, descending=False)
        enc = pc.dictionary_encode(
            group[label_col].combine_chunks()
            if isinstance(group[label_col], pa.ChunkedArray)
            else group[label_col])
        codes = enc.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)[order]
        keep = ~new_seg                      # rows with an in-partition lag
        if not keep.any():
            return empty
        k = len(enc.dictionary)
        pair = codes[np.flatnonzero(keep) - 1] * k + codes[keep]
        counts = np.bincount(pair, minlength=k * k)
        hit = np.flatnonzero(counts)
        dictionary = enc.dictionary
        return pa.table({
            prev_col: dictionary.take(pa.array(hit // k, pa.int64())),
            label_col: dictionary.take(pa.array(hit % k, pa.int64())),
            count_col: pa.array(counts[hit], pa.int64())})

    return exchange(ds, part_col, fn, batch_size=131072)


def partitioned_trigrams(ds, part_col: str, order_col: str,
                         label_col: str, *, tiebreak_col: str,
                         col_1: str = "t1", col_2: str = "t2",
                         col_3: str = "t3", count_col: str = "n"):
    """Consecutive label TRIPLE counts — the sequence-mining extension
    of `partitioned_transitions`: COUNT(*) of (lag(label, 2),
    lag(label), label) over (PARTITION BY part_col ORDER BY order_col,
    tiebreak_col), rows whose partition holds fewer than 2 predecessors
    excluded (their double-lag is NULL in SQL). Same shape contract:
    reducers emit at most |labels|^3 rows; fold with driver_merge."""

    def fn(group: pa.Table) -> pa.Table:
        lab_type = group.schema.field(label_col).type
        empty = pa.table({
            col_1: pa.array([], lab_type),
            col_2: pa.array([], lab_type),
            col_3: pa.array([], lab_type),
            count_col: pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        order, _, new_seg, _, _ = _partition_order(
            group, part_col, order_col, tiebreak_col, descending=False)
        enc = pc.dictionary_encode(
            group[label_col].combine_chunks()
            if isinstance(group[label_col], pa.ChunkedArray)
            else group[label_col])
        codes = enc.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)[order]
        keep = ~new_seg.copy()
        keep[1:] &= ~new_seg[:-1]       # predecessor also in-partition
        idx = np.flatnonzero(keep)
        if idx.shape[0] == 0:
            return empty
        k = len(enc.dictionary)
        key = (codes[idx - 2] * k + codes[idx - 1]) * k + codes[idx]
        if k * k * k <= (1 << 24):
            counts = np.bincount(key, minlength=k * k * k)
            hit = np.flatnonzero(counts)
            cnt = counts[hit]
        else:                            # huge vocab: sparse path
            hit, cnt = np.unique(key, return_counts=True)
        dictionary = enc.dictionary
        return pa.table({
            col_1: dictionary.take(pa.array(hit // (k * k), pa.int64())),
            col_2: dictionary.take(pa.array((hit // k) % k, pa.int64())),
            col_3: dictionary.take(pa.array(hit % k, pa.int64())),
            count_col: pa.array(cnt.astype(np.int64), pa.int64())})

    return exchange(ds, part_col, fn, batch_size=131072)


def interval_followup_count(ds, part_col: str, ts_col: str,
                            mark_col: str, id_cols: list[str], *,
                            window: int):
    """Big-big RANGE (interval) self-join, counting form: for every row
    with `mark_col` != 0, count partition rows whose `ts_col` lies in
    (t, t + window] — "events within the hour after each purchase".

    Both sides are the same big Dataset, so the broadcast
    `range_join_stage` doesn't apply; instead rows co-locate by ONE
    partition-key hash exchange (the only movement — each row carries
    just the key, int64 timestamp, mark flag and id columns), and each
    bucket resolves every contained partition with a single lexsort +
    two vectorized searchsorted calls. Composite (partition, ts) order
    is packed into one int64 key: pidx * span + (ts - min), where span
    covers the bucket's full timestamp range + window + 2, so a probe at
    key + window can NEVER cross into the next partition — a loud guard
    refuses buckets where the packing would overflow (distinct
    partitions per bucket x span >= 2^63).

    Returns id_cols + (part_col,) + followup_cnt for marked rows only.
    SQL mirror: LEFT self-join on the partition key with ts BETWEEN
    exclusive/inclusive bounds, GROUP BY the marked row's ids.
    """
    def fn(group: pa.Table) -> pa.Table:
        parts = group[part_col].to_numpy(zero_copy_only=False)
        ts = group[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mark = group[mark_col].to_numpy(zero_copy_only=False) != 0
        n = ts.shape[0]
        if n == 0:
            return pa.table(
                {**{c: group[c].slice(0, 0) for c in id_cols},
                 part_col: group[part_col].slice(0, 0),
                 "followup_cnt": pa.array([], pa.int64())})
        _, pidx = np.unique(parts, return_inverse=True)
        tmin = ts.min()
        span = np.int64(ts.max() - tmin) + np.int64(window) + 2
        npart = int(pidx.max()) + 1
        if npart * int(span) >= 2 ** 63:
            raise ValueError(
                "interval_followup_count: packed key overflow "
                f"({npart} partitions x span {int(span)}): the bucket "
                "holds too many partitions for the timestamp span")
        key = pidx.astype(np.int64) * span + (ts - tmin)
        order = np.argsort(key, kind="stable")
        skey = key[order]
        m = np.flatnonzero(mark)
        lo = np.searchsorted(skey, key[m], side="right")
        hi = np.searchsorted(skey, key[m] + np.int64(window),
                             side="right")
        cnt = (hi - lo).astype(np.int64)
        take = pa.array(m.astype(np.int64))
        return pa.table(
            {**{c: group[c].take(take) for c in id_cols},
             part_col: group[part_col].take(take),
             "followup_cnt": cnt})

    return exchange(ds, part_col, fn, batch_size=131072)


def _day_cents(ds, key_col: str, ts_col: str, value_col: str,
               finish) -> pa.Table:
    """The bounded (key, day, cents) combine shared by the day-series
    windows: per (key, calendar day) the exact-cent SUM of value
    (FLOOR(v*100 + 0.5) int64, days as int64 since the epoch), then
    `finish(key, day, cents)` over the root's rows sorted by (key, day)."""
    def prep(batch: pa.Table) -> pa.Table:
        day = batch[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        cents = np.floor(
            batch[value_col].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        return pa.table({"key": batch[key_col], "day": day, "cents": cents})

    def root(g: pa.Table) -> pa.Table:
        key = g["key"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        cents = g["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((day, key.astype(np.str_)))
        return finish(key[order], day[order], cents[order])

    return combine(ds, ["key", "day"], sums=["cents"], prep=prep,
                   finish=root, batch_size=131072,
                   schema=pa.schema([("key", pa.string()),
                                     ("day", pa.int64()),
                                     ("cents", pa.int64())]))


def _key_runs(key: np.ndarray):
    """[start, end) of each run of equal keys in a key-sorted array."""
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]).tolist()
    return zip(starts, starts[1:] + [key.shape[0]])


def _day_strings(day: np.ndarray) -> pa.Array:
    """int64 epoch days as 'YYYY-MM-DD' strings."""
    return pa.array(np.datetime_as_string(day.astype("datetime64[D]")))


def trailing_day_sum(ds, key_col: str, ts_col: str, value_col: str,
                     *, days: int = 7) -> pa.Table:
    """Time-RANGE-framed trailing sum: per (key, day), the exact-cent
    sum of value over the trailing `days`-day window (current day plus
    days-1 preceding), evaluated at each day the key is active — the
    RANGE BETWEEN INTERVAL frame SQL shape. Returns (key str, day
    'YYYY-MM-DD', day_cents int64, trail_cents int64).

    Two-level: batches collapse to |keys| x |days|-bounded (key, day,
    cents) partials (`_day_cents`, zero shuffle), the root prefix-sums
    each key's day series once and answers every window with two
    searchsorted lookups — O(rows) at the root, no per-window rescan,
    no float arithmetic anywhere."""
    def finish(key, day, cents) -> pa.Table:
        if key.shape[0] == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "day": pa.array([], pa.string()),
                             "day_cents": pa.array([], pa.int64()),
                             "trail_cents": pa.array([], pa.int64())})
        trail = np.empty(cents.shape[0], dtype=np.int64)
        for s, e in _key_runs(key):
            d = day[s:e]
            pref = np.r_[0, np.cumsum(cents[s:e])]
            lo = np.searchsorted(d, d - (days - 1), side="left")
            trail[s:e] = pref[np.arange(1, e - s + 1)] - pref[lo]
        return pa.table({
            "key": pa.array(key.tolist(), pa.string()),
            "day": _day_strings(day),
            "day_cents": cents, "trail_cents": trail})

    return _day_cents(ds, key_col, ts_col, value_col, finish)


def gap_fill_daily(ds, key_col: str, ts_col: str,
                   value_col: str) -> pa.Table:
    """Calendar resample + forward fill: per key, ONE row for EVERY
    calendar day between that key's first and last active day; gap days
    carry the latest preceding day's exact-cent sum and was_gap=1 —
    the time-series densification step (SQL mirror: per-key
    generate_series + ASOF JOIN). Returns (key str, day 'YYYY-MM-DD',
    cents int64, was_gap int64).

    Same bounded (key, day, cents) combine as trailing_day_sum; the
    root emits each key's dense range with one searchsorted gather —
    the output is |keys| x |span-days| bounded, never row-count
    bounded."""
    def finish(key, day, cents) -> pa.Table:
        if key.shape[0] == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "day": pa.array([], pa.string()),
                             "cents": pa.array([], pa.int64()),
                             "was_gap": pa.array([], pa.int64())})
        out_k, out_d, out_c, out_gap = [], [], [], []
        for s, e in _key_runs(key):
            d, c = day[s:e], cents[s:e]
            rng = np.arange(d[0], d[-1] + 1, dtype=np.int64)
            pos = np.searchsorted(d, rng, side="right") - 1
            out_k.append(np.repeat(key[s], rng.shape[0]))
            out_d.append(rng)
            out_c.append(c[pos])
            out_gap.append((d[pos] != rng).astype(np.int64))
        return pa.table({
            "key": pa.array(np.concatenate(out_k).tolist(), pa.string()),
            "day": _day_strings(np.concatenate(out_d)),
            "cents": np.concatenate(out_c),
            "was_gap": np.concatenate(out_gap)})

    return _day_cents(ds, key_col, ts_col, value_col, finish)


def moving_day_median(ds, key_col: str, ts_col: str, value_col: str,
                      *, days: int = 7) -> pa.Table:
    """Moving windowed MEDIAN (discrete — the lower-middle order
    statistic, no interpolation ever) of per-day exact-cent sums over a
    trailing `days`-day RANGE frame per key. Returns (key, day,
    day_cents, med_cents int64) — the quantile_disc(0.5) OVER (RANGE
    INTERVAL) SQL shape.

    Same bounded (key, day, cents) combine as trailing_day_sum; the
    root answers each window with one np.partition over its
    searchsorted slice — windows are <= `days` wide, so root cost is
    O(|keys| x |days-present| x days), independent of row count."""
    def finish(key, day, cents) -> pa.Table:
        if key.shape[0] == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "day": pa.array([], pa.string()),
                             "day_cents": pa.array([], pa.int64()),
                             "med_cents": pa.array([], pa.int64())})
        med = np.empty(cents.shape[0], dtype=np.int64)
        for s, e in _key_runs(key):
            d = day[s:e]
            c = cents[s:e]
            lo = np.searchsorted(d, d - (days - 1), side="left")
            for i in range(e - s):
                win = c[lo[i]: i + 1]
                # lower-middle discrete median == quantile_disc(0.5)
                med[s + i] = np.partition(win, (win.shape[0] - 1) // 2)[
                    (win.shape[0] - 1) // 2]
        return pa.table({
            "key": pa.array(key.tolist(), pa.string()),
            "day": _day_strings(day),
            "day_cents": cents, "med_cents": med})

    return _day_cents(ds, key_col, ts_col, value_col, finish)


def partitioned_allocate(ds, part_col: str, weight_col: str,
                         total_col: str, *, tiebreak_col: str,
                         out_col: str = "alloc"):
    """Largest-remainder proration: split each partition's integer
    `total_col` across its rows proportionally to integer `weight_col`,
    rounding so the per-partition allocations sum EXACTLY to the total
    (the financial-allocation invariant floats can never give). Each
    row gets floor(T*w/W); the T - sum(floors) leftover units go +1
    each to the rows with the largest remainders (ties broken by
    tiebreak_col ascending — but note two rows identical in
    (remainder, tiebreak) are interchangeable, so the OUTPUT multiset
    is deterministic regardless). Appends `out_col` int64.

    Partitions hash-bucket into reducers (run detection inside); one
    lexsort per bucket ranks every partition's remainders at once —
    no per-partition Python. total_col must be constant within a
    partition (a joined-in order total)."""
    import numpy as np

    def alloc(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return group.append_column(out_col, pa.array([], pa.int64()))
        parts = group[part_col].to_numpy(zero_copy_only=False)
        w = group[weight_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        t = group[total_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        tb = group[tiebreak_col].to_numpy(zero_copy_only=False)
        _, inv = np.unique(parts, return_inverse=True)
        # per-partition weight sums
        nseg = int(inv.max()) + 1
        ww = np.zeros(nseg, dtype=np.int64)
        np.add.at(ww, inv, w)
        if (ww == 0).any():
            # zero-weight partitions cannot be prorated
            raise ValueError("partitioned_allocate: partition with "
                             "zero total weight")
        base = (t * w) // ww[inv]
        rem = (t * w) % ww[inv]
        fsum = np.zeros(nseg, dtype=np.int64)
        np.add.at(fsum, inv, base)
        extra = t - fsum[inv]           # per-row copy of its run's r
        order = np.lexsort((tb, -rem, inv))
        iv = inv[order]
        seg_start = np.flatnonzero(np.r_[True, iv[1:] != iv[:-1]])
        pos_in_seg = np.arange(iv.shape[0]) \
            - seg_start[np.cumsum(np.r_[True, iv[1:] != iv[:-1]]) - 1]
        bump_sorted = pos_in_seg < extra[order]
        bump = np.zeros(iv.shape[0], dtype=np.int64)
        bump[order] = bump_sorted
        return group.append_column(out_col, pa.array(base + bump))

    return exchange(ds, part_col, alloc, batch_size=131072)
