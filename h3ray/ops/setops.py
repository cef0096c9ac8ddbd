"""Distinct set operations (SQL EXCEPT / INTERSECT) over arbitrary columns.

Rows are reduced to a 64-bit fingerprint of their column values
(io.pages.url_hash64 over the values joined with an \\x1f separator), so
the membership exchange ships (fingerprint, payload) for the left side and
fingerprints ONLY for the right side — the standard keys-only discipline.
A fingerprint collision would conflate two distinct rows (probability
~n^2 / 2^64; negligible at any realistic distinct-row count, and the same
trade every exact-dedup path in this repo makes).

The final DISTINCT runs as hash-bucketed run detection (never one
map_groups callback per value), emitting the first row of each
fingerprint run — rows with equal fingerprints are equal by construction,
so "first" is not a tie-break, just deduplication.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _fingerprint_stage(cols: list[str], out_col: str):
    import pyarrow.compute as pc

    from ..io.pages import url_hash64

    def fn(batch: pa.Table) -> pa.Table:
        parts = [pc.cast(batch[c], pa.string()) for c in cols]
        joined = parts[0] if len(parts) == 1 else \
            pc.binary_join_element_wise(*parts, "\x1f")
        fp = url_hash64(joined).view(np.int64)  # int64 bit-view: Ray's
        # sort shuffle handles int64 natively (uint64 falls back to
        # pickled objects).
        return batch.append_column(out_col, pa.array(fp))

    return fn


def _distinct_by_fp(ds, cols: list[str], fp_col: str):
    """Global DISTINCT of `cols` given a fingerprint column: exchange on
    the fingerprint, one lexsort per bucket, keep run starts."""
    from .reduce import exchange

    def firsts(group: pa.Table) -> pa.Table:
        fp = group[fp_col].to_numpy(zero_copy_only=False)
        order = np.argsort(fp, kind="stable")
        keep = np.ones(order.shape[0], dtype=bool)
        keep[1:] = fp[order][1:] != fp[order][:-1]
        return group.take(pa.array(order[keep])).select(cols)

    # batch_size bundles the join's typed empty lead block with rows: a
    # map task holding only an empty block emits one with no columns
    return exchange(ds, fp_col, firsts, batch_size=65536)


def _set_op(left_ds, right_ds, cols: list[str], anti: bool):
    from .join import anti_join, semi_join
    from .reduce import typed_map

    cols = list(cols)
    fp = "_setop_fp"
    fps = _fingerprint_stage(cols, fp)

    def left_rows(batch: pa.Table) -> pa.Table:
        return fps(batch).select(cols + [fp])

    # Right side collapses to batch-local distinct fingerprints before
    # the membership exchange — fingerprints only, payload never ships.
    def right_keys(batch: pa.Table) -> pa.Table:
        t = fps(batch)
        u = np.unique(t[fp].to_numpy(zero_copy_only=False))
        return pa.table({fp: pa.array(u)})

    join = anti_join if anti else semi_join
    kept = join(typed_map(left_ds, left_rows, batch_size=65536),
                typed_map(right_ds, right_keys, batch_size=65536), fp, fp)
    return _distinct_by_fp(kept, cols, fp)


def except_distinct(left_ds, right_ds, cols):
    """SQL `SELECT DISTINCT cols FROM left EXCEPT SELECT ... FROM right`.

    Returns a Dataset of the distinct left rows absent from the right."""
    return _set_op(left_ds, right_ds, cols, anti=True)


def intersect_distinct(left_ds, right_ds, cols):
    """SQL `SELECT DISTINCT cols FROM left INTERSECT SELECT ... FROM
    right`. Returns a Dataset of the distinct rows present in both."""
    return _set_op(left_ds, right_ds, cols, anti=False)
