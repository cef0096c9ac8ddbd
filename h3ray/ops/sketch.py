"""HyperLogLog distinct-count sketch (deterministic, merge-friendly).

COUNT(DISTINCT) at web scale either shuffles every distinct (key, value)
pair (the exact path, ops in relational) or keeps a tiny mergeable sketch
per key. This HLL is built for the combiner pattern: a per-batch pass emits
(key, register, max_rho) rows — at most |keys| x 4096 rows per batch
regardless of input size — register maxima merge associatively through any
tree, and the final estimate is computed once per key from its 4096
registers.

Everything is DETERMINISTIC and integer-exact so the DuckDB SQL mirror in
`__ray_entry__` can reproduce the estimate bit-for-bit:

- hash = _mix64(value)  (splitmix64 finalizer, shared with io.pages)
- register index = low P bits; rho = trailing-zero count of the remaining
  64-P bits, + 1 (Flajolet-Martin least-significant-1 variant: computable
  with pure integer ops in both numpy and SQL, unlike leading-zero rank)
- raw estimate = alpha_m * m^2 / sum(2^-M_j), evaluated in EXACT integer
  arithmetic: sum(2^-M_j) = S53 / 2^53 with S53 an integer, and
  alpha_m = 7213000*m / (10000*(1000m + 1079)) as an exact rational
  (the standard 0.7213/(1 + 1.079/m) with decimal literals made rational)
- small-range correction: when empty registers exist and the raw estimate
  is <= 2.5m, linear counting floor(m*ln(m/V) + 0.5). The rounding
  boundary margin across all V in [1, m] is >= 1e-4 (verified), 7 orders
  above libm's cross-implementation error, so numpy and DuckDB agree.

Standard error ~1.04/sqrt(m) = 1.6% at P=12; each key's sketch is 4 KiB.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..io.pages import _mix64

P = 12
M = 1 << P           # 4096 registers
RHO_MAX = 64 - P + 1  # 53: rho when the top 64-P hash bits are all zero
# E_raw = ALPHA_NUM * 2^53 // (ALPHA_DEN * S53), exact rational alpha_m.
ALPHA_NUM = 7213000 * M * M * M
ALPHA_DEN = 10000 * (1000 * M + 1079)


def _rho_of(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rho) per value — pure integer ops + exact frexp."""
    h = _mix64(vals.astype(np.int64).view(np.uint64))
    idx = (h & np.uint64(M - 1)).astype(np.int64)
    w = h >> np.uint64(P)
    low = w & (np.invert(w) + np.uint64(1))  # lowest set bit (0 if w == 0)
    # low is a power of two <= 2^51: frexp's exponent is its exact log2 + 1.
    _, e = np.frexp(low.astype(np.float64))
    rho = np.where(w == np.uint64(0), RHO_MAX, e).astype(np.int8)
    return idx, rho


def estimate_from_registers(rhos: np.ndarray) -> int:
    """HLL estimate from a dense length-M register array (0 = empty)."""
    if rhos.shape[0] != M:
        raise ValueError(f"expected {M} registers, got {rhos.shape[0]}")
    s53 = int(sum(1 << (RHO_MAX - int(r)) for r in rhos))
    v = int((rhos == 0).sum())
    raw = (ALPHA_NUM << RHO_MAX) // (ALPHA_DEN * s53)
    if v > 0 and 2 * raw <= 5 * M:
        return int(math.floor(M * math.log(M / v) + 0.5))
    return int(raw)


def hll_distinct(ds, key_col: str, value_col: str,
                 out_col: str = "hll_distinct") -> pa.Table:
    """Approximate COUNT(DISTINCT value_col) per key_col.

    Returns a pa.Table (key_col, out_col) sorted by key — bounded by the
    key space, like the other driver_merge aggregates. The shuffle-free
    path: per-batch register maxima -> driver tree-root max-merge ->
    per-key estimate; bytes moved are O(|keys| x m) per batch, independent
    of row count."""
    from .reduce import combine

    def prep(batch: pa.Table) -> pa.Table:
        idx, rho = _rho_of(
            batch[value_col].to_numpy(zero_copy_only=False))
        return pa.table({key_col: batch[key_col], "_idx": idx, "_rho": rho})

    merged = combine(ds, [key_col, "_idx"], maxs=("_rho",), prep=prep,
                     batch_size=131072)
    if merged.num_rows == 0:
        # Schema-stable empty result: key type comes from the (empty but
        # schema-carrying) merged partials, not a hardcoded string.
        key_type = (merged.schema.field(key_col).type
                    if key_col in merged.schema.names else pa.string())
        return pa.table({key_col: pa.array([], type=key_type),
                         out_col: pa.array([], type=pa.int64())})
    key_np = merged.column(key_col).to_numpy(zero_copy_only=False)
    idx_np = merged.column("_idx").to_numpy(zero_copy_only=False)
    rho_np = merged.column("_rho").to_numpy(zero_copy_only=False)
    keys, inv = np.unique(key_np, return_inverse=True)
    ests = []
    for i in range(keys.shape[0]):
        regs = np.zeros(M, dtype=np.int8)
        mask = inv == i
        np.maximum.at(regs, idx_np[mask], rho_np[mask])
        ests.append(estimate_from_registers(regs))
    return pa.table({key_col: pa.array(keys),
                     out_col: pa.array(np.array(ests, dtype=np.int64))})


# --- Count-min sketch heavy hitters -------------------------------------

CM_D = 4          # hash rows
CM_W = 2048       # buckets per row
#: Row salts: r * golden-ratio odd constant (mod 2^64), XORed into the
#: value before mix64 — XOR (not add) so the SQL mirror never trips
#: DuckDB's UBIGINT overflow check.
CM_SALTS = [(r * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            for r in range(CM_D)]


def _cm_buckets(vals: np.ndarray) -> np.ndarray:
    """(CM_D, n) bucket index of each value in every sketch row."""
    u = vals.astype(np.int64).view(np.uint64)
    return np.stack([
        (_mix64(u ^ np.uint64(s)) % np.uint64(CM_W)).astype(np.int64)
        for s in CM_SALTS])


def cm_topk(ds, value_col: str, k: int = 20,
            out_count_col: str = "est_count") -> pa.Table:
    """Approximate heavy hitters: top-k values by count-min estimated count.

    Two streaming passes, both combiner-shaped:

    1. Sketch build: each batch bincounts its values into the D x W grid
       and emits at most D*W partial rows; the driver tree-root sums them
       into the (tiny, 64 KiB) sketch matrix. Bytes moved are O(D*W) per
       batch — independent of cardinality, unlike an exact groupby count.
    2. Candidate scan: per-batch distinct values get their estimate from
       the broadcast sketch (min over rows — the classic CM upper bound)
       and only the batch's top-k survive to the driver merge root. A
       globally-top-k value appears in every batch it occurs in with the
       same (global) estimate, so per-batch top-k never drops it.

    Estimates are DETERMINISTIC (fixed salts, integer arithmetic), so the
    result is SQL-mirrorable; CM overestimates on collisions, which the
    mirror reproduces exactly. Returns pa.Table (value_col, out_count_col),
    est desc / value asc, <= k rows.
    """
    from .reduce import combine, driver_merge
    from .skew import _desc_sort_key

    def build(batch: pa.Table) -> pa.Table:
        b = _cm_buckets(batch[value_col].to_numpy(zero_copy_only=False))
        rows, buckets, counts = [], [], []
        for r in range(CM_D):
            c = np.bincount(b[r], minlength=CM_W)
            nz = np.flatnonzero(c)
            rows.append(np.full(nz.shape[0], r, dtype=np.int64))
            buckets.append(nz.astype(np.int64))
            counts.append(c[nz].astype(np.int64))
        return pa.table({"_r": np.concatenate(rows),
                         "_b": np.concatenate(buckets),
                         "_c": np.concatenate(counts)})

    merged = combine(ds, ["_r", "_b"], sums=("_c",), prep=build,
                     batch_size=131072)
    sketch = np.zeros((CM_D, CM_W), dtype=np.int64)
    if merged.num_rows:
        sketch[merged.column("_r").to_numpy(zero_copy_only=False),
               merged.column("_b").to_numpy(zero_copy_only=False)] = \
            merged.column("_c").to_numpy(zero_copy_only=False)

    def estimate(batch: pa.Table) -> pa.Table:
        vals = np.unique(
            batch[value_col].to_numpy(zero_copy_only=False)
            .astype(np.int64))
        if vals.shape[0] == 0:
            return pa.table({value_col: pa.array([], type=pa.int64()),
                             out_count_col: pa.array([], type=pa.int64())})
        b = _cm_buckets(vals)
        est = sketch[0, b[0]]
        for r in range(1, CM_D):
            est = np.minimum(est, sketch[r, b[r]])
        order = np.lexsort((vals, _desc_sort_key(est)))[:k]
        return pa.table({value_col: vals[order],
                         out_count_col: est[order]})

    def final(t: pa.Table) -> pa.Table:
        vals = t[value_col].to_numpy(zero_copy_only=False)
        est = t[out_count_col].to_numpy(zero_copy_only=False)
        uvals, first = np.unique(vals, return_index=True)
        uest = est[first]
        order = np.lexsort((uvals, _desc_sort_key(uest)))[:k]
        return pa.table({value_col: uvals[order],
                         out_count_col: uest[order]})

    return driver_merge(ds.map_batches(estimate, batch_format="pyarrow",
                                       batch_size=131072), final)


# --- Bottom-k quantile sketch --------------------------------------------

def _bottomk_select(key_np: np.ndarray, h: np.ndarray, k: int) -> np.ndarray:
    """Indices of the <= k rows with smallest hash per key (vectorized:
    one lexsort + segment-relative ranks)."""
    order = np.lexsort((h, key_np))
    ks = key_np[order]
    n = ks.shape[0]
    new_seg = np.ones(n, dtype=bool)
    new_seg[1:] = ks[1:] != ks[:-1]
    seg_start = np.flatnonzero(new_seg)
    seg_of = np.cumsum(new_seg) - 1
    pos = np.arange(n) - seg_start[seg_of]
    return order[pos < k]


def bottomk_quantiles(ds, key_col: str, value_col: str, id_col: str,
                      qs: list[float], out_cols: list[str],
                      k: int = 2048) -> pa.Table:
    """ONE-PASS approximate grouped quantiles from a mergeable bottom-k
    sample — the sketch alternative to the exact two-pass selection
    engine in ops/quantile (which must scan the data twice and, for
    PERCENTILE_CONT, ship per-key candidate neighborhoods).

    The sketch is a uniform-without-replacement row sample: rank every
    row by _mix64(row id) and keep the k smallest per key. Bottom-k sets
    merge associatively (merge = union -> keep k smallest), so the
    combiner emits <= |keys| x k rows per batch and the tree root merges
    them exactly — DETERMINISTIC under any blocking/partitioning because
    the hash depends only on the (unique) row id, never on arrival
    order. Quantile estimates interpolate at q*(m-1) within the sorted
    sample (the PERCENTILE_CONT formula applied to the sample); rank
    error is O(1/sqrt(k)) ~ 2.2% at the default k=2048, each key's
    sketch is 16k bytes.

    Bounded-key-space shape (driver_merge root, like hll_distinct): for
    unbounded key spaces, hash-bucket the partials and run the same
    merge per bucket (the grouped-quantile merge path)."""
    from .reduce import driver_merge

    def partial(batch: pa.Table) -> pa.Table:
        key_np = batch[key_col].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        # int64 bit-view: full-range uint64 columns break Ray exchanges.
        h = _mix64(ids.astype(np.int64).view(np.uint64)) \
            .view(np.int64) ^ np.int64(-(1 << 63))
        keep = _bottomk_select(key_np, h, k)
        vals = batch[value_col].to_numpy(zero_copy_only=False)
        return pa.table({key_col: pa.array(key_np[keep]),
                         "_h": pa.array(h[keep]),
                         "_v": pa.array(vals[keep])})

    def merge(t: pa.Table) -> pa.Table:
        key_np = t[key_col].to_numpy(zero_copy_only=False)
        h = t["_h"].to_numpy(zero_copy_only=False)
        keep = _bottomk_select(key_np, h, k)
        keys_kept = key_np[keep]
        vals = t["_v"].to_numpy(zero_copy_only=False)[keep]
        ukeys, inv = np.unique(keys_kept, return_inverse=True)
        cols = {key_col: pa.array(ukeys)}
        ests = np.empty((len(qs), ukeys.shape[0]), dtype=np.float64)
        for i in range(ukeys.shape[0]):
            sample = np.sort(vals[inv == i].astype(np.float64))
            m = sample.shape[0]
            for j, q in enumerate(qs):
                # PERCENTILE_CONT's exact expression (same FP op order as
                # ops/quantile and the DuckDB mirror): lo + frac*(hi-lo).
                p = q * (m - 1)
                lo = sample[int(np.floor(p))]
                hi = sample[int(np.ceil(p))]
                ests[j, i] = lo + (p - np.floor(p)) * (hi - lo)
        for j, name in enumerate(out_cols):
            cols[name] = pa.array(ests[j])
        return pa.Table.from_pydict(cols)

    ds_schema = ds.schema()
    base = getattr(ds_schema, "base_schema", ds_schema)
    key_type = base.field(key_col).type if base is not None else pa.string()
    return driver_merge(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=131072),
        merge,
        schema=pa.schema([(key_col, key_type), ("_h", pa.int64()),
                          ("_v", pa.float64())]))


def _mg_compress(keys: np.ndarray, cnts: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Misra-Gries compression to <= k counters: subtract the (k+1)-th
    largest count from every counter and keep the strictly-positive
    survivors. Error added per compression <= that pivot, and summed
    over all merges stays <= (n - sum(kept)) / (k+1) (Agarwal et al.,
    Mergeable Summaries, PODS'12)."""
    if keys.shape[0] <= k:
        return keys, cnts
    pivot = np.partition(cnts, cnts.shape[0] - (k + 1))[cnts.shape[0]
                                                        - (k + 1)]
    keep = cnts > pivot
    return keys[keep], cnts[keep] - pivot


def mg_heavy_hitters(ds_factory, value_col: str, *, k: int,
                     total_rows: int, threshold_den: int) -> pa.Table:
    """EXACT heavy hitters (count * threshold_den > total_rows) via a
    two-pass Misra-Gries sketch + verification — the scale path for
    "which keys exceed an eps-fraction of a 100-TB stream" when the key
    space is unbounded and a full groupby count would shuffle everything.

    Pass 1 keeps a k-counter MG summary per batch (exact per-batch
    counts, then `_mg_compress`); the driver root merges all partials by
    summing counters and compressing once more. The merged summary
    over-approximates: every key with true count > n/(k+1) survives, so
    with k+1 >= threshold_den the candidate set is a SUPERSET of the
    answer. Pass 2 re-streams the input counting ONLY the (broadcast)
    candidates exactly, and the integer filter cnt * den > n makes the
    result exact — hash-checkable against a plain SQL HAVING mirror.

    `ds_factory` is a zero-arg callable returning a fresh Dataset over
    the same input (each pass executes its own plan; at 100 TB the
    candidate set after pass 1 is <= k keys, so pass 2 broadcasts a tiny
    sorted array and its combiner emits <= k rows per batch).
    """
    import ray

    from .reduce import combine, driver_merge

    if k + 1 < threshold_den:
        raise ValueError("MG superset guarantee needs k+1 >= threshold_den")

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False)
        keys, cnts = np.unique(v, return_counts=True)
        keys, cnts = _mg_compress(keys, cnts.astype(np.int64), k)
        return pa.table({value_col: pa.array(keys), "_cnt": pa.array(cnts)})

    def merge(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False)
        c = t["_cnt"].to_numpy(zero_copy_only=False)
        keys, inv = np.unique(v, return_inverse=True)
        acc = np.zeros(keys.shape[0], dtype=np.int64)
        np.add.at(acc, inv, c)
        keys, acc = _mg_compress(keys, acc, k)
        return pa.table({value_col: pa.array(keys), "_cnt": pa.array(acc)})

    ds = ds_factory()
    ds_schema = ds.schema()
    base = getattr(ds_schema, "base_schema", ds_schema)
    key_type = base.field(value_col).type if base is not None else pa.int64()
    cand = driver_merge(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=131072),
        merge,
        schema=pa.schema([(value_col, key_type), ("_cnt", pa.int64())]))
    cand_keys = np.sort(cand[value_col].to_numpy(zero_copy_only=False))
    cand_ref = ray.put(cand_keys)

    def verify(batch: pa.Table) -> pa.Table:
        ck = ray.get(cand_ref)
        v = batch[value_col].to_numpy(zero_copy_only=False)
        if ck.shape[0] == 0:
            return pa.table({"_idx": pa.array([], pa.int64())})
        pos = np.minimum(np.searchsorted(ck, v), ck.shape[0] - 1)
        return pa.table({"_idx": pos[ck[pos] == v].astype(np.int64)})

    def vmerge(g: pa.Table) -> pa.Table:
        acc = np.zeros(cand_keys.shape[0], dtype=np.int64)
        acc[g["_idx"].to_numpy()] = g["_cnt"].to_numpy()
        hot = acc * threshold_den > total_rows
        return pa.table({value_col: pa.array(cand_keys[hot]),
                         "n_rows": pa.array(acc[hot])})

    return combine(
        ds_factory(), "_idx", count="_cnt", prep=verify, finish=vmerge,
        batch_size=131072,
        schema=pa.schema([("_idx", pa.int64()), ("_cnt", pa.int64())]))
