"""Skew handling: salted two-phase aggregation for hot keys.

Web pages cluster on ~urban H3 cells (the generator plants 80% of mass in 50
city clusters precisely to exercise this). A plain groupby(key) sends every
row of a hot cell to one reducer; salting splits each key into SALTS
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
from .reduce import exchange
from .sample import _key_hash

#: Salted sub-keys per hot key in round 1 of `salted_top_k`.
SALTS = 16


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
                     tiebreak=None, *, descending: bool = True) -> pa.Table:
    """Vectorized per-key top-k: each `key_col` value's k rows by
    `value_col` (DESC, or ASC with `descending=False`), ties broken by
    `tiebreak` ascending — a column name or an array aligned with the
    rows, none for no tiebreak. One lexsort, segment boundaries, a
    rank-within-segment filter — no per-group callback. Kept rows stay
    in input order."""
    keys = tbl[key_col].to_numpy(zero_copy_only=False)
    n = keys.shape[0]
    if n == 0:
        return tbl
    vals = tbl[value_col].to_numpy(zero_copy_only=False)
    if tiebreak is None:
        tiebreak = np.zeros(n, np.int8)
    elif isinstance(tiebreak, str):
        tiebreak = tbl[tiebreak].to_numpy(zero_copy_only=False)
    order = np.lexsort((tiebreak,
                        _desc_sort_key(vals) if descending else vals, keys))
    ks = keys[order]
    new = np.ones(n, dtype=bool)
    np.not_equal(ks[1:], ks[:-1], out=new[1:])
    seg_start = np.flatnonzero(new)
    rank = np.arange(n) - seg_start[np.cumsum(new) - 1]
    keep = order[rank < k]
    keep.sort()
    return tbl.take(pa.array(keep))


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
                 tiebreak_col: str | None = None,
                 hot_keys: np.ndarray | None = None):
    """Per-key top-k rows by value with bounded reducer fan-in.

    Top-k is non-algebraic (needs the rows, not a running scalar), so a hot
    key cannot be pre-reduced by a combiner — this is exactly where salting
    earns its keep: round 1 exchanges on (key, salt), one of SALTS salts
    per row, and takes per-(key,salt) partial top-k (a hot key
    contributes at most ~rows/SALTS to any one reducer); round 2
    exchanges on the key and merges the <= SALTS*k surviving rows per
    key. Both rounds use the segmented-top-k reducer, never a per-key
    Python callback. Determinism: ties broken by `tiebreak_col` ascending.

    With `hot_keys` (a sorted int64 array from `detect_hot_keys`), only
    those keys are salted: cold keys keep salt 0, so their round-1 partial
    output is k rows instead of up to SALTS*k — the sampled-histogram
    skew design (SURVEY §4) instead of blanket salting.
    """
    # Hot membership is tested in HASH space (dtype-agnostic: works for
    # string keys too; a hash collision merely salts one extra key, which
    # never affects correctness — salting is performance-only).
    hot_hashes = None
    if hot_keys is not None and len(hot_keys):
        hot_hashes = np.sort(_key_hash(pa.array(list(hot_keys))))

    def add_salt(batch: pa.Table) -> pa.Table:
        h = _key_hash(batch[key_col])
        pos = np.arange(h.shape[0], dtype=np.uint64)
        salt = _mix64(h ^ _mix64(pos)) % np.uint64(SALTS)
        if hot_keys is not None:
            if hot_hashes is not None:
                idx = np.minimum(np.searchsorted(hot_hashes, h),
                                 hot_hashes.shape[0] - 1)
                is_hot = hot_hashes[idx] == h
            else:
                is_hot = np.zeros(h.shape[0], dtype=bool)
            salt = np.where(is_hot, salt, np.uint64(0))
        return batch.append_column("_salt", pa.array(salt.astype(np.int64)))

    def top_k(group: pa.Table) -> pa.Table:
        return _segmented_top_k(group, key_col, value_col, k, tiebreak_col)

    partial = exchange(ds, [key_col, "_salt"],
                       lambda g: top_k(g).drop_columns(["_salt"]),
                       prep=add_salt)
    # batch_size coalesces round 1's per-bucket outputs: round 2 then sorts
    # few blocks, and leaves no partition empty (an empty one yields a
    # block with no columns) unless its input is
    return exchange(partial, key_col, top_k, batch_size=65536)
