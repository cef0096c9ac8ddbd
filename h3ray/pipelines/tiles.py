"""Raster<->vector tile assignment and distributed compact.

- `tile_assign`: vector->tile via cellToParent (each page row gets its tile);
  tile->cells via children expansion.
- `compact_cells_dataset`: distributed compactCells. Compaction never crosses
  a base-cell (res-0) subtree, so hash-partitioning by an intermediate parent
  resolution and locally compacting each group is exact as long as cells that
  compacted all the way to the group key get a second, much smaller pass
  grouped by base cell (SURVEY.md §3.3 two-round shuffle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import bits, hierarchy
from ..ops import stages


def tile_assign(pages_ds, res: int = 9, tile_res: int = 5):
    """pages -> (url, cell_r{res}, tile = parent at tile_res)."""
    from .geotag import geotag_cells

    return geotag_cells(pages_ds, res=res, parent_res=tile_res,
                        keep_cols=("url",)).select_columns(
        ["url", f"cell_r{res}", f"parent_r{tile_res}"])


def tiles_to_cells(tiles_ds, tile_col: str, child_res: int,
                   keep_cols: tuple[str, ...] = ()):
    """tile->cells: uncompact each tile to `child_res` (flat map)."""
    return tiles_ds.map_batches(
        stages.children_expand_stage(child_res, tile_col, list(keep_cols)),
        batch_format="pyarrow", batch_size=4096)


SHUFFLE_COMPACT_THRESHOLD = 50_000_000


def compact_cells_dataset(cells_ds, cell_col: str = "cell",
                          group_res: int = 2,
                          shuffle: bool | None = None,
                          distinct_estimate: int | None = None):
    """Distributed compactCells over a Dataset of same-res cells.

    Driver path (shuffle=False): batch-local distinct (the big reduction —
    duplicates never leave their block), then ONE final task compacts the
    merged distinct set with vectorized numpy (compact of N distinct cells
    is ~N log N; 10M cells ~ a second). Valid while the distinct-cell set
    fits one block (~100M rows).

    Shuffle path (shuffle=True): hash-group by parent at `group_res`; local
    compact per group (exact — compaction never crosses a res-0 subtree);
    the cells that compacted up to the group key or coarser (res <=
    group_res: a bounded set) take a tiny second pass at one driver root
    (SURVEY.md §3.3 two-round shape).

    shuffle=None auto-selects: the shuffle path when `distinct_estimate`
    (upper bound on distinct cells, e.g. rows of the input) exceeds
    SHUFFLE_COMPACT_THRESHOLD, else the driver path.
    """
    import ray.data as rd

    from ..ops.reduce import driver_merge

    def batch_distinct(batch: pa.Table) -> pa.Table:
        cells = np.unique(batch[cell_col].to_numpy(zero_copy_only=False))
        return pa.Table.from_arrays([pa.array(cells)], names=[cell_col])

    def driver_compact(ds):
        """compact_mixed of every distinct cell of `ds`, in ONE task at
        the driver root: a typed Dataset, also over no rows."""
        def final_compact(batch: pa.Table) -> pa.Table:
            cells = bits.as_i64(batch[cell_col].to_numpy(
                zero_copy_only=False))
            out = hierarchy.compact_mixed(np.unique(cells))
            return pa.Table.from_arrays([pa.array(bits.as_u64(out))],
                                        names=[cell_col])

        return rd.from_arrow(driver_merge(
            ds, final_compact,
            schema=lambda: pa.schema([(cell_col, pa.uint64())])))

    if shuffle is None:
        shuffle = (distinct_estimate or 0) > SHUFFLE_COMPACT_THRESHOLD
    if not shuffle:
        return driver_compact(cells_ds.map_batches(
            batch_distinct, batch_format="pyarrow", batch_size=131072))

    # NOTE (round-5 measured): scoping a small target_max_block_size here
    # (the ngram_jaccard_pairs trick) makes this path 2.3x SLOWER, not
    # faster — the build-time context covers the whole fused plan
    # including the upstream encode, which drowns in tiny blocks. The
    # per-bucket compact is cheap (np.unique + bit math) so the 128 MiB
    # packing is not the bottleneck here; the sort exchange is.
    def local_compact(group: pa.Table) -> pa.Table:
        cells = bits.as_i64(group[cell_col].to_numpy(zero_copy_only=False))
        out = hierarchy.compact(np.unique(cells))
        return pa.Table.from_arrays([pa.array(bits.as_u64(out))],
                                    names=[cell_col])

    # Batch-local distinct first so the shuffle moves unique cells only.
    # The exchange buckets by HASH of the parent key, not by parent value:
    # every cell of a given res-`group_res` subtree still lands in one
    # group (exactness preserved), but the groupby handles
    # default_num_buckets() groups instead of one tiny Python callback per
    # distinct parent (measured 2x on the bench compact query).
    from ..ops.reduce import exchange

    keyed = cells_ds.map_batches(batch_distinct, batch_format="pyarrow",
                                 batch_size=65536).map_batches(
        stages.parent_stage(group_res, cell_col=cell_col, out_col="_gkey"),
        batch_format="pyarrow", batch_size=65536)
    round1 = exchange(keyed, "_gkey", local_compact) \
        .select_columns([cell_col])

    # Split: anything still finer than group_res is final.
    def split_fine(batch: pa.Table) -> pa.Table:
        cells = bits.as_i64(batch[cell_col].to_numpy(zero_copy_only=False))
        fine = bits.get_resolution(cells) > group_res
        return pa.Table.from_arrays(
            [pa.array(bits.as_u64(cells)), pa.array(fine)],
            names=[cell_col, "_fine"])

    # Both halves below read the flags: materialize them once, so the
    # driver root of round 2 does not run round 1 a second time.
    flagged = round1.map_batches(split_fine,
                                 batch_format="pyarrow").materialize()
    fine = flagged.filter(expr="_fine == True").select_columns([cell_col])
    coarse = flagged.filter(expr="_fine == False").select_columns([cell_col])

    # Round 2 compacts the cells that reached group_res or coarser, a set
    # bounded by the cell count at res <= group_res, so one driver root
    # (compaction never crosses a res-0 subtree, so compacting them all
    # at once equals compacting each res-0 group). Its typed block keeps
    # the union's schema when no cell is coarse.
    return fine.union(driver_compact(coarse))


def dissolve_groups(ds, group_col: str, cell_col: str = "cell",
                    resolution: int | None = None):
    """Distributed cellsToLinkedMultiPolygon per group.

    groupby(group_col) shuffles each group's cells to one worker; the local
    linked-arc dissolve runs per group (SURVEY.md §2.4: dissolve is local to
    a cell-set partition). Output rows are fully relational:
    (group, poly_idx, ring_idx, vert_idx, lng, lat) — exterior ring_idx 0.
    """
    from ..kernels import solvent

    def local_dissolve(group: pa.Table) -> pa.Table:
        cells = np.unique(bits.as_i64(
            group[cell_col].to_numpy(zero_copy_only=False)))
        polys = solvent.dissolve(cells, resolution=resolution)
        gval = group[group_col][0].as_py()
        g, p, r, v, lng, lat = [], [], [], [], [], []
        for pi, poly in enumerate(polys):
            for ri, ring in enumerate(poly):
                k = ring.shape[0]
                g.extend([gval] * k)
                p.extend([pi] * k)
                r.extend([ri] * k)
                v.extend(range(k))
                lng.extend(ring[:, 0].tolist())
                lat.extend(ring[:, 1].tolist())
        return pa.Table.from_arrays(
            [pa.array(g), pa.array(p, pa.int32()), pa.array(r, pa.int32()),
             pa.array(v, pa.int32()), pa.array(lng, pa.float64()),
             pa.array(lat, pa.float64())],
            names=[group_col, "poly_idx", "ring_idx", "vert_idx",
                   "lng", "lat"])

    return ds.groupby(group_col).map_groups(local_dissolve,
                                            batch_format="pyarrow")

