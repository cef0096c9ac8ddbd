"""Distributed Bloom-filter join pruning.

The classic big-join optimization the reference's join pipelines never
needed at its single-node scale: when the build side of a join is filtered
(WHERE on a dim/mid-size table) but still too large to broadcast exactly,
ship a Bloom filter of its join keys instead and drop non-matching probe
rows BEFORE the shuffle. The join after the filter is exact, so false
positives only cost a little pruning efficiency — never correctness.

Shape:
- build: per-batch combiner collapses each block to the distinct nonzero
  64-bit words of its local bitmap (sparse (word_index, bits) rows — at
  most min(m/64, distinct_keys x k) rows per block), then the driver
  tree-root ORs them with one bitwise_or.reduceat pass. The dense bitmap
  is m/8 bytes (default 2^22 bits = 512 KiB) — a broadcast object, like
  the compacted cell sets in pipelines/pip.py.
- probe: bitmap goes through ray.put ONCE; every probe batch tests k bit
  positions per key vectorized (gather + shift + AND) and filters.

Sizing: false-positive rate ~ (1 - e^{-k n / m})^k; the default
(m=2^22, k=4) holds < 1% up to ~300k build keys. For build sides beyond
~10^8 keys, partition the filter by key-hash range (one bitmap per range,
probe batches test the range their key hashes to) rather than growing one
bitmap past object-store comfort; this module covers the single-bitmap
case (the caller sizes m_bits to its filtered-side cardinality).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io.pages import _mix64
from .reduce import driver_merge, typed_map

# Fixed odd salts; k hash functions = mix64(key * salt_j).
_SALTS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                   0x165667B19E3779F9, 0xD6E8FEB86659FD93,
                   0xA5A5A5A5A5A5A5A7, 0x27D4EB2F165667C5],
                  dtype=np.uint64)


def _positions(keys: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(k, n) bit positions for int64/uint64 keys; m_bits power of two."""
    u = keys.astype(np.int64).view(np.uint64)
    mask = np.uint64(m_bits - 1)
    return np.stack([_mix64(u * _SALTS[j]) & mask for j in range(k)])


def bloom_build(ds, key_col: str, *, m_bits: int = 1 << 22,
                k: int = 4) -> np.ndarray:
    """OR-merge per-block sparse bitmaps into one dense uint64[m/64]."""
    if m_bits & (m_bits - 1):
        raise ValueError("m_bits must be a power of two")
    n_words = m_bits // 64

    def partial(batch: pa.Table) -> pa.Table:
        keys = np.unique(batch[key_col].to_numpy(zero_copy_only=False))
        pos = _positions(keys, m_bits, k).ravel()
        words = (pos >> np.uint64(6)).astype(np.int64)
        bits = np.uint64(1) << (pos & np.uint64(63))
        order = np.argsort(words)
        words, bits = words[order], bits[order]
        first = np.ones(words.shape[0], dtype=bool)
        first[1:] = words[1:] != words[:-1]
        starts = np.flatnonzero(first)
        merged = np.bitwise_or.reduceat(bits, starts) if starts.size \
            else bits[:0]
        # int64 bit-view: uint64 columns degrade Ray block handling.
        return pa.table({"word": words[starts],
                         "bits": merged.view(np.int64)})

    def merge(t: pa.Table) -> np.ndarray:
        dense = np.zeros(n_words, dtype=np.uint64)
        if t.num_rows:
            w = t["word"].to_numpy(zero_copy_only=False)
            b = t["bits"].to_numpy(zero_copy_only=False).view(np.uint64)
            order = np.argsort(w)
            w, b = w[order], b[order]
            first = np.ones(w.shape[0], dtype=bool)
            first[1:] = w[1:] != w[:-1]
            starts = np.flatnonzero(first)
            dense[w[starts]] = np.bitwise_or.reduceat(b, starts)
        return dense

    # typed, the partials give merge a typed empty table over no rows, so
    # the filter is the all-zero array rather than a table with no columns
    return driver_merge(typed_map(ds, partial, batch_size=131072), merge)


def bloom_prune(ds, key_col: str, bloom_ref, *, m_bits: int = 1 << 22,
                k: int = 4):
    """Drop rows whose key is definitely NOT in the built filter.

    `bloom_ref` is the ray.put handle of a bloom_build result (put ONCE by
    the caller; read per task, never re-shipped per batch)."""
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        bits = ray.get(bloom_ref)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        pos = _positions(keys, m_bits, k)
        ok = np.ones(keys.shape[0], dtype=bool)
        for j in range(k):
            word = bits[(pos[j] >> np.uint64(6)).astype(np.int64)]
            ok &= (word >> (pos[j] & np.uint64(63))) & np.uint64(1) != 0
        return batch.filter(pa.array(ok))

    return typed_map(ds, fn, batch_size=131072)
