"""Flagship pipeline: geotag pages -> H3 cells -> per-cell aggregates.

read_parquet(pages) -> map_batches(geotag) -> map_batches(encode res R)
 -> map_batches(parent res P) -> per-cell counts.

Counts use the partial-aggregate pattern: each batch pre-reduces to unique
(parent_cell, count) rows before the groupby shuffle, so the all-to-all moves
~#distinct-cells rows instead of ~#pages rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..ops import stages


def geotag_cells(pages_ds, res: int = 9, parent_res: int = 3,
                 keep_cols: tuple[str, ...] = ("url",),
                 batch_size: int = 32768):
    """pages -> (keep_cols..., lat, lng, cell_r{res}, parent_r{parent_res}).

    batch_size bounds the working set of the chain's float64 temporaries
    (~25 arrays x batch rows x 8B); keep batch x concurrency inside the
    shared cache to avoid DRAM saturation at high core counts.
    """
    ds = pages_ds
    if keep_cols is not None:
        ds = ds.select_columns(list(keep_cols))
    ds = ds.map_batches(stages.geotag_stage(), batch_format="pyarrow",
                        batch_size=batch_size)
    ds = ds.map_batches(stages.encode_stage(res), batch_format="pyarrow",
                        batch_size=batch_size)
    ds = ds.map_batches(
        stages.parent_stage(parent_res, cell_col=f"cell_r{res}"),
        batch_format="pyarrow", batch_size=batch_size)
    return ds


def merge_count_partials(col: str, out_col: str = "num_pages"):
    """Merge (key, count) partial blocks with a sort-free numpy reduce."""

    def fn(batch: pa.Table) -> pa.Table:
        cells = batch[col].to_numpy(zero_copy_only=False)
        counts = batch[batch.column_names[1]].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(cells, return_inverse=True)
        summed = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(summed, inv, counts)
        return pa.Table.from_arrays([pa.array(uniq), pa.array(summed)],
                                    names=[col, out_col])

    return fn


def cell_counts(pages_ds, res: int = 9, parent_res: int = 3,
                batch_size: int = 32768):
    """Count pages per parent cell, combiner-style (partial then merge).

    Each batch pre-reduces to unique (parent, count) rows; the partials are
    tree-merged with map_batches + repartition instead of a sort-based
    groupby — the key space (cells at parent_res <= 5) is bounded, so the
    final merge block holds at most ~2M tiny rows. For finer key spaces use
    a hash-partitioned groupby instead.
    """
    ds = geotag_cells(pages_ds, res=res, parent_res=parent_res,
                      keep_cols=("url",), batch_size=batch_size)
    col = f"parent_r{parent_res}"

    def partial_counts(batch: pa.Table) -> pa.Table:
        cells = batch[col].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(cells, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(uniq), pa.array(counts.astype(np.int64))],
            names=[col, "partial_count"])

    partials = ds.map_batches(partial_counts, batch_format="pyarrow",
                              batch_size=131072)
    # Tree-reduce root on the driver: partials stream in (backpressured) and
    # merge in one numpy pass — repartition(1) is an all-to-all that stalls
    # the streaming executor at low parallelism (see ops/reduce.py).
    import ray.data as rd

    from ..ops.reduce import driver_merge

    return rd.from_arrow(driver_merge(partials, merge_count_partials(col)))


def ring_smoothed_counts(pages_ds, res: int = 5, k: int = 1,
                         batch_size: int = 32768):
    """Hex-raster box filter: per-cell page counts smoothed over the
    gridDisk(k) neighborhood (raster smoothing on the H3 grid — the
    raster side of raster<->vector tiling).

    smoothed(c) = sum of num_pages(c') over all c' with gridDistance <= k.
    Grid distance is symmetric, so scattering each cell's count TO its own
    disk computes exactly the gather over every cell's disk — one
    vectorized disk expansion per combiner batch (counts, not pages: the
    expansion runs on the pre-reduced per-cell partials, ~7x rows at k=1),
    then one groupby(cell) sum. Cells with zero pages in their whole disk
    don't appear (sparse raster). Returns Dataset (cell, num_pages,
    smoothed_pages); `cell` is the int64 bit-view (shuffle-safe).
    """
    from ray.data.aggregate import Sum

    from ..kernels import grid

    ds = geotag_cells(pages_ds, res=res, parent_res=0,
                      keep_cols=("url",), batch_size=batch_size)
    col = f"cell_r{res}"

    def expand(batch: pa.Table) -> pa.Table:
        cells = batch[col].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(cells, return_counts=True)
        orow, dcell, dist = grid.grid_disk_distances(uniq, k)
        cnt = counts[orow].astype(np.int64)
        return pa.table({
            "cell": dcell.view(np.int64),
            "partial_smooth": cnt,
            "partial_self": np.where(dist == 0, cnt, 0).astype(np.int64)})

    partials = ds.map_batches(expand, batch_format="pyarrow",
                              batch_size=131072)
    agg = partials.groupby("cell").aggregate(
        Sum("partial_smooth", alias_name="smoothed_pages"),
        Sum("partial_self", alias_name="num_pages"))
    return agg.select_columns(["cell", "num_pages", "smoothed_pages"])


def count_pyramid(pages_ds, res: int = 7,
                  levels: tuple[int, ...] = (0, 2, 4, 6),
                  batch_size: int = 32768):
    """Multi-resolution page-count pyramid in ONE encode pass: each batch
    encodes once at `res`, walks the parent chain to every requested
    coarser level with the O(1) bit kernel, and emits (res, cell, count)
    partials for all levels together — the map-tile aggregation shape
    (zoom pyramid) without re-scanning the corpus per level. Cells ship
    as int64 bit-views (uint64 shuffle keys degrade Ray's sort path);
    every level's key space is bounded by the coarsest data extent, so
    one (res, cell) COUNT combine merges the whole pyramid."""
    from ..kernels import bits
    from ..ops.reduce import combine

    ds = geotag_cells(pages_ds, res=res, parent_res=min(levels),
                      keep_cols=("url",), batch_size=batch_size)
    col = f"cell_r{res}"
    lvls = sorted(set(levels))
    if lvls and lvls[-1] >= res:
        raise ValueError(f"levels must be coarser than res={res}")

    def prep(batch: pa.Table) -> pa.Table:
        cells = batch[col].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        return pa.table({
            "res": np.repeat(np.asarray(lvls, np.int64), cells.shape[0]),
            "cell": np.concatenate([bits.cell_to_parent(cells, lv)
                                    for lv in lvls]).view(np.int64)})

    return combine(ds, ["res", "cell"], count="num_pages", prep=prep,
                   finish=lambda g: g.sort_by([("res", "ascending"),
                                               ("cell", "ascending")]),
                   batch_size=131072,
                   schema=pa.schema([("res", pa.int64()), ("cell", pa.int64()),
                                     ("num_pages", pa.int64())]))
