"""Relational pipelines over the driver's TPC-H-ish tables.

These back the DuckDB-oracle-checked `queries()` entries in __ray_entry__.py:
every aggregate column is named identically to the oracle SQL. Aggregations
use the partial/combiner pattern where the group count is small relative to
rows (pre-reduce per batch, then a tiny groupby).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..ops.reduce import exchange


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def lineitem_agg(sf_dir: str):
    """TPC-H Q1-style pricing summary (no date filter; full table)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        # Fixed-point cents so distributed sums are order-independent and
        # bit-identical to the DuckDB oracle (same FLOOR(x*100+0.5) formula).
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "sum_qty": np.floor(qty + 0.5).astype(np.int64),
            "sum_base_cents": np.floor(ep * 100 + 0.5).astype(np.int64),
            "sum_disc_cents": np.floor(
                ep * (1 - disc) * 100 + 0.5).astype(np.int64)})
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("sum_qty", "sum"), ("sum_base_cents", "sum"),
             ("sum_disc_cents", "sum"), ("sum_qty", "count")])
        return pa.table({
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "sum_qty": g["sum_qty_sum"],
            "sum_base_cents": g["sum_base_cents_sum"],
            "sum_disc_cents": g["sum_disc_cents_sum"],
            "count_order": g["sum_qty_count"]})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=131072)
    return partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_base_cents", alias_name="sum_base_cents"),
        Sum("sum_disc_cents", alias_name="sum_disc_cents"),
        Sum("count_order", alias_name="count_order"))


def orders_by_segment(sf_dir: str):
    """Broadcast hash join orders x customer, grouped by market segment.

    The small side stays Arrow end to end: sorted int64 key array + an
    Arrow string values array (no pandas round-trip, no Python dict, no
    object-dtype arrays), broadcast once via ray.put and probed with a
    vectorized searchsorted + Arrow take per batch."""
    import ray
    from ray.data.aggregate import Sum

    from ..ops.reduce import driver_merge

    cust = driver_merge(
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        lambda t: t)
    keys = cust["c_custkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    order = np.argsort(keys)
    lookup_ref = ray.put({
        "keys": keys[order],
        "vals": cust["c_mktsegment"].combine_chunks().take(pa.array(order))})

    class JoinStage:
        def __init__(self, ref):
            import ray as _ray

            lookup = _ray.get(ref) if not isinstance(ref, dict) else ref
            self.keys = lookup["keys"]
            self.vals = lookup["vals"]  # Arrow string array, sorted by key

        def __call__(self, batch: pa.Table) -> pa.Table:
            ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.keys, ck)
            pos = np.minimum(pos, self.keys.shape[0] - 1)
            hit = self.keys[pos] == ck
            out = batch.filter(pa.array(hit))
            seg = self.vals.take(pa.array(pos[hit]))
            return out.append_column("c_mktsegment", seg)

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    joined = orders.map_batches(JoinStage, fn_constructor_args=(lookup_ref,),
                                batch_format="pyarrow", batch_size=65536,
                                concurrency=2)

    def partial(batch: pa.Table) -> pa.Table:
        price = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "c_mktsegment": batch["c_mktsegment"],
            "total_price_cents": np.floor(
                price * 100 + 0.5).astype(np.int64)})
        g = t.group_by("c_mktsegment").aggregate(
            [("total_price_cents", "sum"), ("total_price_cents", "count")])
        return pa.table({
            "c_mktsegment": g["c_mktsegment"],
            "num_orders": g["total_price_cents_count"],
            "total_price_cents": g["total_price_cents_sum"]})

    return joined.map_batches(partial, batch_format="pyarrow",
                              batch_size=131072) \
        .groupby("c_mktsegment").aggregate(
            Sum("num_orders", alias_name="num_orders"),
            Sum("total_price_cents", alias_name="total_price_cents"))


def events_by_type(sf_dir: str):
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        value = batch["value"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "event_type": batch["event_type"],
            "total_value_micro": np.floor(
                value * 1_000_000 + 0.5).astype(np.int64)})
        g = t.group_by("event_type").aggregate(
            [("total_value_micro", "sum"), ("total_value_micro", "count")])
        return pa.table({
            "event_type": g["event_type"],
            "num_events": g["total_value_micro_count"],
            "total_value_micro": g["total_value_micro_sum"]})

    return ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=131072).groupby("event_type").aggregate(
        Sum("num_events", alias_name="num_events"),
        Sum("total_value_micro", alias_name="total_value_micro"))


def events_hourly_windows(sf_dir: str):
    """Tumbling 1-hour windows per user (stream-shaped workload on a log)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        value = batch["value"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "user_id": batch["user_id"],
            "hour_bucket": ts // 1_000_000 // 3600,
            "total_value_micro": np.floor(
                value * 1_000_000 + 0.5).astype(np.int64)})
        g = t.group_by(["user_id", "hour_bucket"]).aggregate(
            [("total_value_micro", "sum"), ("total_value_micro", "count")])
        return pa.table({
            "user_id": g["user_id"],
            "hour_bucket": g["hour_bucket"],
            "num_events": g["total_value_micro_count"],
            "total_value_micro": g["total_value_micro_sum"]})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=131072)

    # Distributed final merge: the (user, hour) keyspace grows with the data
    # (unlike e.g. cell counts at a fixed resolution), so the combiner
    # partials go through a proper groupby shuffle, not a driver merge.
    return partials.groupby(["user_id", "hour_bucket"]).aggregate(
        Sum("num_events", alias_name="num_events"),
        Sum("total_value_micro", alias_name="total_value_micro"))


def docs_by_lang(sf_dir: str):
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("lang").aggregate(
            [("n_chars", "sum"), ("n_chars", "count")])
        return pa.table({
            "lang": g["lang"],
            "num_docs": g["n_chars_count"],
            "total_chars": g["n_chars_sum"]})

    return ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=131072).groupby("lang").aggregate(
        Sum("num_docs", alias_name="num_docs"),
        Sum("total_chars", alias_name="total_chars"))


def docs_token_counts(sf_dir: str):
    """Per-document whitespace token counts (vectorized Arrow regex)."""
    from ..text.analysis import token_count_stage

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(token_count_stage(), batch_format="pyarrow",
                          batch_size=65536).select_columns(
        ["doc_id", "n_tokens"])


def docs_exact_dedup(sf_dir: str):
    """Survivor doc_ids after exact text dedup (min doc_id per distinct text)."""
    from ..text.dedup import exact_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_dedup(ds, key_col="doc_id")


def user_sessions(sf_dir: str, gap_s: int = 1800):
    """Sessionization: split each user's event stream at inactivity gaps.

    The stream-shaped stateful window op: exchange users by hash (bounded
    group count, ops.reduce.exchange), sort each bucket by (user, ts), start a
    new session when the gap to the previous event exceeds `gap_s`.
    Session ids are per-user cumulative gap counts — identical to the SQL
    LAG/SUM-over-window formulation.
    """
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def sessionize(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False)
        # Microsecond epochs: gap comparisons match the oracle's fractional
        # epoch() exactly; reported epochs floor to whole seconds.
        ts_us = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        order = np.lexsort((ts_us, uid))
        u = uid[order]
        t_us = ts_us[order]
        t = t_us // 1_000_000
        new_user = np.ones(u.shape[0], dtype=bool)
        new_user[1:] = u[1:] != u[:-1]
        gap = np.zeros(u.shape[0], dtype=np.int64)
        gap[1:] = (t_us[1:] - t_us[:-1] > gap_s * 1_000_000) & ~new_user[1:]
        # Per-user cumulative gap count = session id (starts at 0).
        cum = np.cumsum(gap)
        base = np.zeros(u.shape[0], dtype=np.int64)
        start_idx = np.flatnonzero(new_user)
        base[start_idx] = cum[start_idx]
        sess = cum - np.maximum.accumulate(base)
        # Aggregate (user, session): count + span.
        key_change = new_user | (gap == 1)
        seg = np.cumsum(key_change) - 1
        n_seg = seg[-1] + 1
        counts = np.bincount(seg, minlength=n_seg)
        first = np.flatnonzero(key_change)
        return pa.Table.from_arrays(
            [pa.array(u[first]), pa.array(sess[first]),
             pa.array(counts.astype(np.int64)),
             pa.array(t[first]),
             pa.array(t[np.append(first[1:] - 1, u.shape[0] - 1)])],
            names=["user_id", "session_id", "num_events",
                   "start_epoch", "end_epoch"])

    return exchange(ds, "user_id", sessionize, batch_size=131072)


def orders_revenue_topk(sf_dir: str, segment: str = "BUILDING",
                        cutoff: str = "1998-06-01", k: int = 10):
    """TPC-H Q3 shape: top-k unshipped-order revenue for one market segment.

    Composition under one plan: predicate + column pruning at both big
    scans (row-group skipping), a broadcast membership probe for the small
    side (segment customers -> sorted int64 array via ray.put, searchsorted
    per batch — no shuffle for the customer join), a combiner that
    pre-aggregates lineitem revenue by order WITHIN batches before the one
    real shuffle (hash_join orders x lineitem partials), a distributed
    re-aggregate, and a global top-k as per-block partials -> driver-merge
    root (k rows per block, never the full order list)."""
    import datetime as _dt

    import pyarrow.compute as pc
    import ray
    import ray.data as rd
    from ray.data.aggregate import Min, Sum

    from ..ops.join import hash_join, seed_schema
    from ..ops.reduce import driver_merge

    cut = _dt.datetime.fromisoformat(cutoff)
    cust = driver_merge(
        rd.read_parquet(f"{sf_dir}/customer.parquet",
                        columns=["c_custkey"],
                        filter=pc.field("c_mktsegment") == segment),
        lambda t: t)
    member_ref = ray.put(np.sort(
        cust["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)))

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"],
                             filter=pc.field("o_orderdate") < cut)

    def probe(batch: pa.Table) -> pa.Table:
        member = ray.get(member_ref)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(member, ck)
        hit = (pos < member.shape[0]) & (
            member[np.minimum(pos, max(member.shape[0] - 1, 0))] == ck) \
            if member.shape[0] else np.zeros(ck.shape[0], dtype=bool)
        kept = batch.filter(pa.array(hit))
        epoch = kept["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) // 1_000_000
        return pa.table({"o_orderkey": kept["o_orderkey"],
                         "o_epoch": epoch})

    orders_f = seed_schema(orders.map_batches(probe, batch_format="pyarrow",
                                              batch_size=131072),
                           pa.schema([("o_orderkey", pa.int64()),
                                      ("o_epoch", pa.int64())]))

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_extendedprice",
                                  "l_discount"],
                         filter=pc.field("l_shipdate") > cut)

    def li_partial(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1 - disc) * 100 + 0.5).astype(np.int64)
        t = pa.table({"l_orderkey": batch["l_orderkey"],
                      "revenue_cents": cents})
        g = t.group_by("l_orderkey").aggregate([("revenue_cents", "sum")])
        return pa.table({"l_orderkey": g["l_orderkey"],
                         "revenue_cents": g["revenue_cents_sum"]})

    li_p = seed_schema(li.map_batches(li_partial, batch_format="pyarrow",
                                      batch_size=131072),
                       pa.schema([("l_orderkey", pa.int64()),
                                  ("revenue_cents", pa.int64())]))
    joined = hash_join(li_p, orders_f, "l_orderkey", "o_orderkey")
    per_order = joined.groupby("l_orderkey").aggregate(
        Sum("revenue_cents", alias_name="revenue_cents"),
        Min("o_epoch", alias_name="o_epoch"))

    def block_topk(batch: pa.Table) -> pa.Table:
        key = "l_orderkey" if "l_orderkey" in batch.column_names \
            else "o_orderkey"
        rev = batch["revenue_cents"].to_numpy(zero_copy_only=False)
        okey = batch[key].to_numpy(zero_copy_only=False)
        from ..ops.skew import _desc_sort_key

        order = np.lexsort((okey, _desc_sort_key(rev)))[:k]
        kept = batch.take(pa.array(order))
        return pa.table({"o_orderkey": kept[key],
                         "revenue_cents": kept["revenue_cents"],
                         "o_epoch": kept["o_epoch"]})

    return driver_merge(per_order.map_batches(block_topk,
                                              batch_format="pyarrow"),
                        block_topk, schema=pa.schema(
                            [("o_orderkey", pa.int64()),
                             ("revenue_cents", pa.int64()),
                             ("o_epoch", pa.int64())]))


def events_rolling_by_user(sf_dir: str, window: int = 3):
    """Per-user ordered window functions: ROW_NUMBER and a rolling sum over
    the previous `window` rows (ROWS window-1 PRECEDING .. CURRENT ROW).

    Distribution matches user_sessions: users bucket by hash (bounded group
    count), one lexsort per bucket orders (user, ts, event_id), and the
    rolling sum is a segmented prefix-sum difference — cs0[i+1] - cs0[lo]
    with lo clipped to the user's segment start — so no per-user Python
    callback and no full-stream sort anywhere. Values are micro-scaled
    int64 (exact, summation-order-free) to hash-match the SQL window frame.
    """
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])
    w = int(window)
    if w < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    def roll(group: pa.Table) -> pa.Table:
        uid = group["user_id"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        ts_us = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        val = group["value"].to_numpy(zero_copy_only=False)
        v = np.floor(val * 1_000_000 + 0.5).astype(np.int64)
        order = np.lexsort((eid, ts_us, uid))
        u = uid[order]
        n = u.shape[0]
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = u[1:] != u[:-1]
        seg_start = np.flatnonzero(new_user)
        first = seg_start[np.cumsum(new_user) - 1]
        idx = np.arange(n, dtype=np.int64)
        row_idx = idx - first + 1
        cs0 = np.concatenate([[0], np.cumsum(v[order])])
        lo = np.maximum(idx - w + 1, first)
        return pa.Table.from_arrays(
            [pa.array(eid[order]), pa.array(u),
             pa.array(row_idx), pa.array(cs0[idx + 1] - cs0[lo])],
            names=["event_id", "user_id", "row_idx", "roll_value_micro"])

    return exchange(ds, "user_id", roll, batch_size=131072)


def events_median_by_type(sf_dir: str):
    """Exact per-group median (PERCENTILE_DISC 0.5) via distributed
    two-pass selection (ops.quantile) — no reducer ever holds a full
    per-type partition; the driver sees only a bounded |types| x 65536
    histogram. The parquet read re-executes for the selection pass (cheap
    projected scan; cheaper than materializing the column)."""
    from ..ops.quantile import grouped_percentile_disc

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    return grouped_percentile_disc(ds, "event_type", "value", q=0.5,
                                   out_col="median_value")


def events_hopping_windows(sf_dir: str, size_s: int = 7200,
                           hop_s: int = 3600):
    """Hopping-window aggregate: each event lands in size_s/hop_s
    overlapping windows (flat-map combiner emits one partial row per
    covering window, so the shuffle moves per-(user, window) partials,
    not events), then a distributed groupby merge."""
    from ray.data.aggregate import Sum

    assert size_s % hop_s == 0
    k = size_s // hop_s

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64) // 1_000_000
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        micro = np.floor(batch["value"].to_numpy(zero_copy_only=False)
                         * 1_000_000 + 0.5).astype(np.int64)
        # Window starts covering t: hop-aligned starts in
        # (t - size, t] -> the k starts floor(t/hop)*hop - j*hop, j<k,
        # keeping only starts > t - size (exact for t >= 0).
        base = (ts // hop_s) * hop_s
        rows = np.repeat(np.arange(ts.shape[0]), k)
        w = np.tile(np.arange(k, dtype=np.int64), ts.shape[0])
        win_start = base[rows] - w * hop_s
        keep = win_start > ts[rows] - size_s
        keep &= win_start >= 0
        t = pa.table({
            "user_id": uid[rows][keep],
            "window_start": win_start[keep],
            "total_value_micro": micro[rows][keep]})
        g = t.group_by(["user_id", "window_start"]).aggregate(
            [("total_value_micro", "sum"), ("total_value_micro", "count")])
        return pa.table({
            "user_id": g["user_id"],
            "window_start": g["window_start"],
            "num_events": g["total_value_micro_count"],
            "total_value_micro": g["total_value_micro_sum"]})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=131072)
    return partials.groupby(["user_id", "window_start"]).aggregate(
        Sum("num_events", alias_name="num_events"),
        Sum("total_value_micro", alias_name="total_value_micro"))


def events_asof_join(sf_dir: str, left_type: str = "purchase",
                     right_type: str = "view"):
    """As-of join: each `left_type` event matched to the latest prior-or-equal
    `right_type` event of the same user — the temporal join Ray Data lacks
    natively. Exchange users by hash (bounded groups), sort each bucket by
    (user, ts), then a vectorized backward-looking merge.
    """
    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])

    def asof(group: pa.Table) -> pa.Table:
        et = group["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == left_type) | (et == right_type)
        uid = group["user_id"].to_numpy(zero_copy_only=False)[keep]
        eid = group["event_id"].to_numpy(zero_copy_only=False)[keep]
        ts = group["ts"].to_numpy(zero_copy_only=False)[keep].astype(
            "datetime64[us]").astype(np.int64)
        et = et[keep]
        # Tie-break at equal (user, ts): rights sort before lefts so a right
        # event sharing the left's timestamp matches (ASOF `l.ts >= r.ts`).
        is_left_pre = (et == left_type).astype(np.int8)
        order = np.lexsort((is_left_pre, ts, uid))
        uid, eid, ts, et = uid[order], eid[order], ts[order], et[order]
        is_right = et == right_type
        new_user = np.ones(uid.shape[0], dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        # Latest right event id at or before each position, per user.
        idx = np.arange(uid.shape[0])
        last_right = np.where(is_right, idx, -1)
        user_seg = np.cumsum(new_user) - 1
        # Per-segment prefix max: subtract segment base from running max.
        run = np.maximum.accumulate(np.where(new_user & ~is_right, -1,
                                             last_right))
        # Reset at user boundaries: positions before the user's first right
        # event must not see previous users' rights.
        seg_start = np.maximum.accumulate(np.where(new_user, idx, 0))
        run = np.where(run >= seg_start, run, -1)
        lefts = et == left_type
        match = run[lefts]
        out_left = eid[lefts]
        out_user = uid[lefts]
        out_ts = ts[lefts] // 1_000_000
        right_id = np.where(match >= 0, eid[np.maximum(match, 0)], -1)
        return pa.Table.from_arrays(
            [pa.array(out_left), pa.array(out_user),
             pa.array(out_ts), pa.array(right_id)],
            names=["left_event_id", "user_id", "left_epoch",
                   "right_event_id"])

    return exchange(ds, "user_id", asof, batch_size=131072)


def events_funnel(sf_dir: str,
                  steps=("view", "click", "purchase")) -> pa.Table:
    """Ordered funnel analysis: how many users completed each prefix of
    `steps` in order (step k counts users with a step-k event at or
    after their earliest qualifying step-(k-1) time; same-timestamp
    events qualify, >= semantics).

    Shape: users hash into a bounded bucket count (the user_sessions
    discipline), ONE exchange co-locates each user's events, and inside
    each bucket the whole chain is vectorized `np.minimum.at` segment
    reductions over int64 timestamps — no per-user Python, no sort
    needed. Each bucket emits a single counts row; the driver root sums
    integers, so the result is blocking-independent and SQL-exact."""
    from ..ops.reduce import combine

    steps = list(steps)
    if len(steps) < 2:
        raise ValueError("funnel needs at least two steps")
    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_type"])

    imax = np.iinfo(np.int64).max
    cols = [f"n_step{i + 1}" for i in range(len(steps))]

    def funnel(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        et = group["event_type"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(u, return_inverse=True)
        m = uniq.shape[0]
        counts = []
        prev = np.full(m, -np.iinfo(np.int64).max, dtype=np.int64)
        for step in steps:
            t = np.full(m, imax, dtype=np.int64)
            sel = (et == step) & (ts >= prev[inv])
            np.minimum.at(t, inv[sel], ts[sel])
            counts.append(int((t < imax).sum()))
            prev = t
        return pa.table({c: pa.array([n], pa.int64())
                         for c, n in zip(cols, counts)})

    partials = exchange(ds, "user_id", funnel, batch_size=131072)

    return combine(partials, [], sums=cols,
                   finish=lambda g: pa.table({c: pc.fill_null(g[c], 0)
                                              for c in cols}),
                   schema=pa.schema([(c, pa.int64()) for c in cols]))


def events_weekly_retention(sf_dir: str) -> pa.Table:
    """Cohort retention: users grouped by first-activity week (cohort),
    counted once per (cohort, week-offset) they were active in.

    Weeks are integer epoch-week indices (epoch_us // 604800e6 — floor
    division, matching SQL exactly). One user-hash exchange co-locates
    each user's events; inside each bucket the per-user first week and
    the distinct (user, week) pairs are np.unique / minimum.at segment
    reductions, and the bucket emits bounded (cohort, offset, count)
    partials — integer counts, blocking-independent."""
    from ..ops.reduce import combine

    week_us = 604800_000_000
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def retention(group: pa.Table) -> pa.Table:
        empty = pa.table({"cohort_week": pa.array([], pa.int64()),
                          "week_offset": pa.array([], pa.int64()),
                          "n_users": pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        u = group["user_id"].to_numpy(zero_copy_only=False)
        wk = group["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) // week_us
        uniq, inv = np.unique(u, return_inverse=True)
        w0 = np.full(uniq.shape[0], np.iinfo(np.int64).max,
                     dtype=np.int64)
        np.minimum.at(w0, inv, wk)
        # distinct (user, week) pairs via composite: normalize weeks to
        # [0, span) first so the packing never collides or overflows
        wmin = wk.min()
        span = int(wk.max() - wmin) + 1
        comp = np.unique(inv.astype(np.int64) * span + (wk - wmin))
        pu = comp // span
        pw = comp % span + wmin
        cohort = w0[pu]
        offset = pw - cohort                   # >= 0 by construction
        okey, cnt = np.unique(cohort * span + offset, return_counts=True)
        return pa.table({"cohort_week": okey // span,
                         "week_offset": okey % span,
                         "n_users": cnt.astype(np.int64)})

    partials = exchange(ds, "user_id", retention, batch_size=131072)

    return combine(partials, ["cohort_week", "week_offset"],
                   sums=("n_users",),
                   schema=pa.schema([("cohort_week", pa.int64()),
                                     ("week_offset", pa.int64()),
                                     ("n_users", pa.int64())]))


def session_concurrency(sf_dir: str, gap_s: int = 1800,
                        bucket_width: int = 65536):
    """Concurrent-session curve: for every second at which any session
    starts or ends, how many sessions are live (inclusive [start, end]).
    Returns a Dataset (epoch_s, net_delta, concurrent), one row per
    distinct boundary second.

    Boundary-sweep shape, NATIVE-GROUPBY-FREE (the Ray groupby tax on
    hundreds of thousands of tiny delta rows measured 19 s at sf0.1 —
    vs ~2 s for this design): sessions emit batch-netted per-second
    deltas, the tiny bounded delta set MATERIALIZES once (it is
    consumed by both scan passes — without the lineage break the whole
    sessionize exchange re-executes per pass), and `ops.scan.running_total`
    nets them per second and cumsums them per contiguous time-range
    bucket plus the bucket's carry. Netting happens INSIDE the
    reducers, so no global per-second aggregate ever shuffles."""
    from ..ops.join import seed_schema
    from ..ops.scan import running_total

    sessions = user_sessions(sf_dir, gap_s=gap_s)

    def boundaries(batch: pa.Table) -> pa.Table:
        s = batch["start_epoch"].to_numpy(zero_copy_only=False)
        e = batch["end_epoch"].to_numpy(zero_copy_only=False)
        t = np.concatenate([s, e + 1])
        d = np.concatenate([np.ones(s.shape[0], np.int64),
                            np.full(e.shape[0], -1, np.int64)])
        ut, inv = np.unique(t, return_inverse=True)
        acc = np.zeros(ut.shape[0], dtype=np.int64)
        np.add.at(acc, inv, d)
        # zero-net seconds STAY: the output row set is "every distinct
        # boundary second" (SQL GROUP BY keeps SUM()=0 rows)
        return pa.table({"epoch_s": ut, "net_delta": acc})

    bschema = pa.schema([("epoch_s", pa.int64()),
                         ("net_delta", pa.int64())])
    # bounded by distinct boundary seconds per batch -- tiny; consumed
    # twice below, so break lineage once here
    bounds = seed_schema(
        sessions.map_batches(boundaries, batch_format="pyarrow",
                             batch_size=131072),
        bschema).materialize()
    return running_total(bounds, "epoch_s", "net_delta", "concurrent",
                         bucket_width=bucket_width)
