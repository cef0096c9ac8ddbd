"""Distributed exact per-group order statistics.

PERCENTILE_DISC/CONT-style quantiles are non-algebraic: a combiner can't
reduce them. Two regimes, two paths, picked by the size of the merged
histogram:

**Few keys x many rows (the driver path)** — two-pass selection:

1. Histogram pass: a per-batch combiner counts (key, bin) pairs, where bin
   is the top 16 bits of an order-preserving float64 -> uint64 map. The
   merged histogram is bounded by |keys| x 65536 rows — small while the
   key space is bounded (per-event-type, per-language, ...) — so the
   driver tree-root (ops.reduce.driver_merge) can locate each key's
   target bin and the exact residual rank within it.
2. Selection pass: re-scan keeps only rows in each key's selected bin(s)
   (expected mass n_key/2^16 per bin) and a per-key reducer takes the
   order statistic at the residual rank.

Any number of quantiles shares the SAME two passes, and the full dataset
never crosses an exchange. The input Dataset is consumed twice (lineage
re-executes); materialize/checkpoint upstream first if the input is
itself an expensive pipeline.

**Many keys (the distributed path)** — per-user/per-domain key spaces
(10^6+ keys) would materialize up to |keys| x 65536 histogram rows on the
driver, so past DRIVER_HIST_MAX_ROWS the selection switches to one
hash-bucketed exchange of the (key, value) columns with a vectorized
segmented order-statistic reducer per bucket (lexsort + segment rank
picks, no per-key Python callback). With many keys each key's row count
is small (~n/|keys|) and co-locating each key's rows once is the
irreducible cost of EXACT per-key order statistics; per-reducer memory
is ~n/default_num_buckets(). (A single pathological key whose rows alone
overflow a reducer would need the histogram trick nested per-key; not
implemented — detect_hot_keys can flag such keys upstream.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _float_order_key(v: np.ndarray) -> np.ndarray:
    """Order-preserving float64 -> uint64 map (IEEE-754 total order over
    finite values): ascending uint64 order == ascending float order."""
    b = np.ascontiguousarray(v, dtype=np.float64).view(np.uint64)
    neg = (b >> np.uint64(63)) != 0
    return np.where(neg, ~b, b | np.uint64(1 << 63))


#: Driver-histogram row budget: past this many merged (key, bin) rows the
#: selection leaves the two-pass driver path and re-routes through
#: the distributed bucketed reducer (the histogram partials already
#: streamed are discarded; lineage recomputes — the switch is the rare
#: case and costs one extra combiner pass).
DRIVER_HIST_MAX_ROWS = 4_000_000


def _grouped_order_select_distributed(ds, key_col: str, value_col: str,
                                      qs: list[float], out_cols: list[str],
                                      interpolate: bool):
    """Unbounded-key path: hash-bucket (key, value) rows so every key's
    rows land in one reducer, then one vectorized segmented selection per
    bucket — lexsort by (key, value), segment boundaries, per-quantile
    rank gathers. No driver materialization anywhere."""
    from .reduce import exchange

    n_q = len(qs)

    def select(group: pa.Table) -> pa.Table:
        karr = group[key_col].to_numpy(zero_copy_only=False)
        # float64 working dtype, matching the driver path's order key and
        # interpolation arithmetic; -0.0 collapses to 0.0 like bin_of.
        vals = group[value_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        vals = np.where(vals == 0.0, 0.0, vals)
        uniq, inv = np.unique(karr, return_inverse=True)
        order = np.lexsort((vals, inv))
        vs = vals[order]
        iv = inv[order]
        n = iv.shape[0]
        new = np.ones(n, dtype=bool)
        new[1:] = iv[1:] != iv[:-1]
        seg_start = np.flatnonzero(new)
        n_key = np.diff(np.append(seg_start, n))
        outs = []
        for j in range(n_q):
            if interpolate:
                p = qs[j] * (n_key - 1)
                lo = vs[seg_start + np.floor(p).astype(np.int64)]
                hi = vs[seg_start + np.ceil(p).astype(np.int64)]
                outs.append(lo + (p - np.floor(p)) * (hi - lo))
            else:
                k = np.maximum(np.ceil(qs[j] * n_key).astype(np.int64), 1)
                outs.append(vs[seg_start + k - 1])
        key_type = group.schema.field(key_col).type
        return pa.Table.from_arrays(
            [pa.array(uniq, type=key_type)]
            + [pa.array(o) for o in outs],
            names=[key_col] + list(out_cols))

    return exchange(ds, key_col, select,
                    prep=lambda b: b.select([key_col, value_col]),
                    batch_size=131072)


def _grouped_order_select(ds, key_col: str, value_col: str,
                          qs: list[float], out_cols: list[str],
                          interpolate: bool):
    """Shared selection engine. For each key and quantile j it selects the
    needed order statistic(s): DISC takes rank ceil(q*n); CONT takes ranks
    floor(p)+1 and ceil(p)+1 with p = q*(n-1) and linearly interpolates
    `lo + (p - floor(p)) * (hi - lo)` — the SQL PERCENTILE_CONT formula,
    evaluated in the same float64 operation order.

    Two-pass histogram selection on the driver (bounded key spaces) until
    the merged histogram exceeds DRIVER_HIST_MAX_ROWS rows, then the
    bucketed segmented selection (unbounded key spaces)."""
    if len(qs) != len(out_cols) or not qs:
        raise ValueError("qs and out_cols must be equal-length, non-empty")
    for q in qs:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")

    def bin_of(batch: pa.Table):
        v = batch[value_col].to_numpy(zero_copy_only=False)
        v = np.where(v == 0.0, 0.0, v)  # collapse -0.0/+0.0 into one bin
        return v, (_float_order_key(v) >> np.uint64(48)).astype(np.int32)

    def partial(batch: pa.Table) -> pa.Table:
        _, bins = bin_of(batch)
        t = pa.table({key_col: batch[key_col], "_bin": bins})
        g = t.group_by([key_col, "_bin"]).aggregate([("_bin", "count")])
        return pa.table({key_col: g[key_col], "_bin": g["_bin"],
                         "_n": g["_bin_count"]})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=131072)

    # Stream the histogram partials to the driver with a row budget: the
    # merged histogram is |keys| x (bins touched) — tiny for bounded key
    # spaces, unbounded for per-user keys. Compact (group-sum) whenever the
    # buffer doubles past the cap; if it STAYS over the cap after
    # compaction the key space is too big for the driver root and the
    # selection re-routes through the distributed reducer.
    def compact(tables: list[pa.Table]) -> pa.Table:
        t = pa.concat_tables(tables).combine_chunks()
        g = t.group_by([key_col, "_bin"]).aggregate([("_n", "sum")])
        return g.rename_columns([key_col, "_bin", "_n"])

    buf: list[pa.Table] = []
    total = 0
    over_budget = False
    for b in partials.iter_batches(batch_format="pyarrow",
                                   batch_size=None):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) \
            else b
        if t.num_rows == 0:
            continue
        buf.append(t)
        total += t.num_rows
        if total > 2 * DRIVER_HIST_MAX_ROWS:
            buf = [compact(buf)]
            total = buf[0].num_rows
            if total > DRIVER_HIST_MAX_ROWS:
                over_budget = True
                break
    merged = compact(buf) if buf else None
    if over_budget or (merged is not None
                       and merged.num_rows > DRIVER_HIST_MAX_ROWS):
        return _grouped_order_select_distributed(
            ds, key_col, value_col, qs, out_cols, interpolate)
    hist = (merged.to_pandas() if merged is not None
            else pa.table({key_col: [], "_bin": [], "_n": []}).to_pandas())
    if len(hist) == 0:
        import ray.data as rd

        return rd.from_arrow(pa.schema(
            [(key_col, pa.string())]
            + [(c, pa.float64()) for c in out_cols]).empty_table())
    hist = hist.groupby([key_col, "_bin"], as_index=False)["_n"].sum() \
        .sort_values([key_col, "_bin"])
    # sel[key][j] = list of (bin, residual_rank) picks for quantile j
    # (one pick for DISC, two for CONT); frac[key][j] = CONT weight.
    sel: dict = {}
    fracs: dict = {}
    for key, g in hist.groupby(key_col, sort=False):
        n = int(g["_n"].sum())
        cum = g["_n"].cumsum().to_numpy()
        bins_np = g["_bin"].to_numpy()

        def locate(k: int):
            i = int(np.searchsorted(cum, k))
            before = int(cum[i - 1]) if i else 0
            return (int(bins_np[i]), k - before)

        picks, fr = [], []
        for q in qs:
            if interpolate:
                p = q * (n - 1)
                k_lo = int(np.floor(p)) + 1
                k_hi = int(np.ceil(p)) + 1
                picks.append((locate(k_lo), locate(k_hi)))
                fr.append(p - np.floor(p))
            else:
                k = max(int(np.ceil(q * n)), 1)
                picks.append((locate(k),))
        sel[key] = picks
        fracs[key] = fr
    keys = sorted(sel)
    key_arr = pa.array(keys)
    flat_picks = [[p for pick in sel[t] for p in pick] for t in keys]
    n_picks = len(flat_picks[0])
    sel_bins = np.array([[flat_picks[ti][j][0]
                          for ti in range(len(keys))]
                         for j in range(n_picks)], dtype=np.int32)

    def keep(batch: pa.Table) -> pa.Table:
        v, bins = bin_of(batch)
        idx = pc.index_in(batch[key_col], value_set=key_arr) \
            .fill_null(-1).to_numpy(zero_copy_only=False)
        safe = np.maximum(idx, 0)
        hit = np.zeros(bins.shape[0], dtype=bool)
        for j in range(n_picks):
            hit |= sel_bins[j][safe] == bins
        hit &= idx >= 0
        return pa.table({key_col: pc.filter(batch[key_col], pa.array(hit)),
                         value_col: v[hit], "_bin": bins[hit]})

    def order_stat(vals, bins, pick):
        b, rank = pick
        in_bin = np.sort(vals[bins == b])
        return float(in_bin[rank - 1])

    def pick_rows(group: pa.Table) -> pa.Table:
        key = group[key_col][0].as_py()
        vals = group[value_col].to_numpy(zero_copy_only=False)
        bins = group["_bin"].to_numpy(zero_copy_only=False)
        out = []
        for j, picks in enumerate(sel[key]):
            if interpolate:
                lo = order_stat(vals, bins, picks[0])
                hi = order_stat(vals, bins, picks[1])
                out.append(lo + fracs[key][j] * (hi - lo))
            else:
                out.append(order_stat(vals, bins, picks[0]))
        return pa.Table.from_arrays(
            [pa.array([key], type=key_arr.type)]
            + [pa.array([v]) for v in out],
            names=[key_col] + list(out_cols))

    return ds.map_batches(keep, batch_format="pyarrow",
                          batch_size=131072) \
        .groupby(key_col).map_groups(pick_rows, batch_format="pyarrow")


def grouped_percentiles_disc(ds, key_col: str, value_col: str,
                             qs: list[float], out_cols: list[str]):
    """(key_col, *out_cols) with out_cols[j] = PERCENTILE_DISC(qs[j]) of
    value_col per key: the smallest value whose cumulative distribution
    >= q, i.e. the ceil(q*n)-th smallest — exact, matching the SQL window
    function. All quantiles share one histogram pass and one selection
    pass (driver path) or one bucketed exchange (distributed path)."""
    return _grouped_order_select(ds, key_col, value_col, qs, out_cols,
                                 interpolate=False)


def grouped_percentiles_cont(ds, key_col: str, value_col: str,
                             qs: list[float], out_cols: list[str]):
    """PERCENTILE_CONT: linear interpolation between the two order
    statistics straddling p = q*(n-1), exact on either path."""
    return _grouped_order_select(ds, key_col, value_col, qs, out_cols,
                                 interpolate=True)


def grouped_percentile_disc(ds, key_col: str, value_col: str,
                            q: float = 0.5,
                            out_col: str = "percentile_value"):
    """Single-quantile convenience wrapper over grouped_percentiles_disc."""
    return grouped_percentiles_disc(ds, key_col, value_col, [q], [out_col])
