"""Raster <-> vector (H3) conversions: zonal statistics and grid sampling.

The two halves of raster<->vector tiling over a regular lat/lng grid
(the "GeoTIFF band" shape — here pixels are synthesized deterministically,
the engine-side plumbing is real):

- raster -> cells (`zonal_stats`): every pixel center encodes to its H3
  cell via the hot latLngToCell kernel, and per-cell (count, sum, max)
  reduce combiner-first — each batch pre-reduces to unique cells before
  anything crosses the exchange, so bytes moved are O(|cells|) per batch,
  independent of raster size. At coarse zonal resolutions the key space
  is bounded (res 3 = 41,162 cells) and the partials tree-merge at the
  driver root; past ~res 6 switch the final fold to a hash groupby.
- cells -> raster (`cells_to_raster`): the reverse sampling — a bounded
  per-cell value table broadcasts once via ray.put, every pixel center
  encodes to its cell and gathers its value with one searchsorted per
  batch. Zero shuffle; the raster streams out as (pix, row, col, value).

Pixels address row-major: pix = row * width + col; the pixel center of
(row, col) is lat = 90 - (row+0.5)*dlat, lng = -180 + (col+0.5)*dlng
(north-up, whole-world bbox — a geotransform tuple parameterizes both
directions the same way).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io.pages import _mix64
from ..kernels import bits, latlng

WORLD = (-180.0, -90.0, 180.0, 90.0)  # (lng_min, lat_min, lng_max, lat_max)


def pixel_centers(pix: np.ndarray, width: int, height: int,
                  bbox: tuple = WORLD) -> tuple[np.ndarray, np.ndarray]:
    """(lat, lng) of each pixel center, north-up row-major addressing."""
    lng_min, lat_min, lng_max, lat_max = bbox
    dlat = (lat_max - lat_min) / height
    dlng = (lng_max - lng_min) / width
    row = pix // width
    col = pix % width
    lat = lat_max - (row.astype(np.float64) + 0.5) * dlat
    lng = lng_min + (col.astype(np.float64) + 0.5) * dlng
    return lat, lng


def raster_values(pix: np.ndarray) -> np.ndarray:
    """Deterministic synthetic band: value = mix64(pix) % 1000, int64."""
    return (_mix64(pix.astype(np.int64).view(np.uint64))
            % np.uint64(1000)).astype(np.int64)


def synthetic_raster(width: int, height: int, *,
                     parallelism: int | None = None):
    """Dataset of (pix, value) pixels, generated in parallel blocks —
    never materialized on the driver."""
    import ray.data as rd

    n = width * height
    ds = rd.range(n, override_num_blocks=parallelism)

    def to_pixels(batch: pa.Table) -> pa.Table:
        pix = batch["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"pix": pa.array(pix),
                         "value": pa.array(raster_values(pix))})

    return ds.map_batches(to_pixels, batch_format="pyarrow",
                          batch_size=131072)


def zonal_stats(raster_ds, res: int, width: int, height: int,
                bbox: tuple = WORLD, value_col: str = "value",
                batch_size: int = 65536) -> pa.Table:
    """Raster -> H3 zonal statistics: per cell at `res`, the pixel count,
    value sum and value max. Returns pa.Table (cell, n_pixels, sum_value,
    max_value) sorted by cell."""
    from ..ops.reduce import combine

    def prep(batch: pa.Table) -> pa.Table:
        pix = batch["pix"].to_numpy(zero_copy_only=False)
        val = batch[value_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        lat, lng = pixel_centers(pix, width, height, bbox)
        cells = bits.as_u64(latlng.latlng_to_cell(lat, lng, res))
        return pa.table({"cell": cells, "sum_value": val, "max_value": val})

    return combine(raster_ds, "cell", count="n_pixels", sums=["sum_value"],
                   maxs=["max_value"], prep=prep,
                   finish=lambda g: g.sort_by("cell"),
                   batch_size=batch_size,
                   schema=pa.schema([("cell", pa.uint64()),
                                     ("n_pixels", pa.int64()),
                                     ("sum_value", pa.int64()),
                                     ("max_value", pa.int64())]))


def cells_to_raster(cell_table: pa.Table, res: int, width: int,
                    height: int, bbox: tuple = WORLD,
                    value_col: str = "sum_value",
                    fill: int = 0, batch_size: int = 65536,
                    parallelism: int | None = None):
    """H3 cells -> raster sampling: paint `value_col` of the (bounded)
    per-cell table onto a width x height grid by encoding every pixel
    center and gathering with one searchsorted per batch. The cell table
    broadcasts once via ray.put; pixels missing a cell get `fill`.
    Returns a Dataset (pix, row, col, value)."""
    import ray

    order = np.argsort(
        cell_table["cell"].to_numpy(zero_copy_only=False))
    cells_sorted = cell_table["cell"].to_numpy(
        zero_copy_only=False)[order]
    vals_sorted = cell_table[value_col].to_numpy(
        zero_copy_only=False).astype(np.int64)[order]
    ref = ray.put((cells_sorted, vals_sorted))

    import ray.data as rd

    ds = rd.range(width * height, override_num_blocks=parallelism)

    def paint(batch: pa.Table) -> pa.Table:
        cs, vs = ray.get(ref)
        pix = batch["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lng = pixel_centers(pix, width, height, bbox)
        cell = bits.as_u64(latlng.latlng_to_cell(lat, lng, res))
        if cs.shape[0] == 0:
            out = np.full(pix.shape[0], fill, dtype=np.int64)
        else:
            pos = np.searchsorted(cs, cell)
            pos_c = np.minimum(pos, cs.shape[0] - 1)
            out = np.where(cs[pos_c] == cell, vs[pos_c], fill)
        return pa.table({"pix": pa.array(pix),
                         "row": pa.array(pix // width),
                         "col": pa.array(pix % width),
                         "value": pa.array(out.astype(np.int64))})

    return ds.map_batches(paint, batch_format="pyarrow",
                          batch_size=batch_size)
