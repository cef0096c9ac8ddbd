"""Distributed exact distinct over candidate-pair Datasets.

Dedup pipelines emit the same (a, b) pair once per colliding band; the
distinct must not funnel the (unbounded) pair set through the driver.
Pattern: one ops.reduce.exchange on the pair, np.unique inside each bucket
— exact, bounded group count, shuffle moves the pair rows once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .reduce import exchange


def distinct_pairs(pairs_ds, col_a: str, col_b: str,
                   keep: tuple[str, ...] = ()):
    """Exact distinct on (col_a, col_b); `keep` columns take the value of an
    arbitrary surviving duplicate (they are equal across duplicates in all
    current uses — similarity scores recomputed identically per band)."""

    def dedup(group: pa.Table) -> pa.Table:
        a = group[col_a].to_numpy(zero_copy_only=False)
        b = group[col_b].to_numpy(zero_copy_only=False)
        u, idx = np.unique(np.stack([a, b], axis=1), axis=0,
                           return_index=True)
        arrays = [pa.array(u[:, 0]), pa.array(u[:, 1])]
        names = [col_a, col_b]
        take = pa.array(idx)
        for c in keep:
            col = group[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            arrays.append(col.take(take))
            names.append(c)
        return pa.Table.from_arrays(arrays, names=names)

    # batch_size coalesces tiny upstream blocks before the exchange (the
    # sort pays per input block, not per row).
    return exchange(pairs_ds, [col_a, col_b], dedup, batch_size=65536)


def _levenshtein_matrix(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Exact Levenshtein distance for P aligned string pairs at once:
    one DP over (max_len_a x max_len_b) scalar steps, each step a
    P-wide vector op — pairs are the vector axis, so reducer cost is
    O(L^2) regardless of how many pairs share a block. Variable
    lengths handled by gathering each pair's (len_a, len_b) cell."""
    la = np.char.str_len(sa)
    lb = np.char.str_len(sb)
    ml_a, ml_b = (int(la.max()) if la.size else 0,
                  int(lb.max()) if lb.size else 0)
    P = sa.shape[0]
    if P == 0:
        return np.zeros(0, dtype=np.int64)
    # (P, L) uint32 codepoint matrices, 0-padded
    ca = np.zeros((P, max(ml_a, 1)), dtype=np.uint32)
    cb = np.zeros((P, max(ml_b, 1)), dtype=np.uint32)
    av = sa.astype(np.str_).view(np.uint32).reshape(P, -1)
    bv = sb.astype(np.str_).view(np.uint32).reshape(P, -1)
    ca[:, :av.shape[1]] = av[:, :ml_a] if av.shape[1] >= ml_a else av
    cb[:, :bv.shape[1]] = bv[:, :ml_b] if bv.shape[1] >= ml_b else bv
    out = np.empty(P, dtype=np.int64)
    prev = np.broadcast_to(np.arange(ml_b + 1, dtype=np.int64),
                           (P, ml_b + 1)).copy()
    done_a0 = la == 0
    out[done_a0] = lb[done_a0]
    for i in range(1, ml_a + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        ai = ca[:, i - 1]
        for j in range(1, ml_b + 1):
            sub = prev[:, j - 1] + (ai != cb[:, j - 1])
            cur[:, j] = np.minimum(np.minimum(prev[:, j] + 1,
                                              cur[:, j - 1] + 1), sub)
        hit = la == i
        if hit.any():
            out[hit] = cur[hit, lb[hit]]
        prev = cur
    return out


def fuzzy_pairs_blocked(ds, key_col: str, str_col: str, *,
                        max_dist: int = 2):
    """Record-linkage fuzzy join: all within-blocking-key string pairs
    with Levenshtein distance <= max_dist (a < b lexicographically).
    Returns a Dataset (key, str_a, str_b, dist int64).

    The blocking key IS the scalability contract (the standard
    record-linkage design): candidate generation is within-key only, so
    cost is sum_k |key_k|^2 string comparisons, never corpus-quadratic
    — hot keys are the caller's responsibility (tighter blocking), and
    the DP itself vectorizes over all of a reducer's pairs at once.
    Keys exchange into hash buckets (run detection inside, never a
    per-key tiny group); only (key, string) rows shuffle."""
    out_schema = pa.schema([("key", pa.string()),
                            ("str_a", pa.string()),
                            ("str_b", pa.string()),
                            ("dist", pa.int64())])

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"key": batch[key_col], "s": batch[str_col]})

    def pairs(group: pa.Table) -> pa.Table:
        key = group["key"].to_numpy(zero_copy_only=False)
        s = group["s"].to_numpy(zero_copy_only=False)
        if key.shape[0] == 0:
            return out_schema.empty_table()
        order = np.lexsort((s, key.astype(np.str_)))
        key, s = key[order], s[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], key.shape[0]]
        sizes = ends - starts
        # within-run (i < j) index pairs, fully vectorized
        reps = (sizes * (sizes - 1)) // 2
        if int(reps.sum()) == 0:
            return out_schema.empty_table()
        ia, ib = [], []
        for st, sz in zip(starts.tolist(), sizes.tolist()):
            if sz < 2:
                continue
            tri = np.triu_indices(sz, k=1)
            ia.append(tri[0] + st)
            ib.append(tri[1] + st)
        ia = np.concatenate(ia)
        ib = np.concatenate(ib)
        d = _levenshtein_matrix(s[ia].astype(np.str_),
                                s[ib].astype(np.str_))
        # strict str_a < str_b (the SQL self-join contract): equal
        # strings never pair with themselves
        keep = (d <= max_dist) & (s[ia] != s[ib])
        return pa.table({"key": pa.array(key[ia[keep]], pa.string()),
                         "str_a": pa.array(s[ia[keep]], pa.string()),
                         "str_b": pa.array(s[ib[keep]], pa.string()),
                         "dist": d[keep]})

    return exchange(ds, "key", pairs, prep=project, batch_size=65536)
