"""Ray Data pipeline stages wrapping the NumPy H3 kernels.

Every stage is a vectorized batch transform intended for
`ds.map_batches(fn, batch_format="pyarrow")` — zero-copy Arrow in/out. No
function here calls ray.init(); stages are pure and safe to ship to workers.

Naming: `*_stage(...)` returns a closure suitable for map_batches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io import pages as pages_io
from ..kernels import bits, hierarchy, latlng


def _col(batch: pa.Table, name: str) -> np.ndarray:
    return batch[name].to_numpy(zero_copy_only=False)


def geotag_stage(url_col: str = "url", lat_col: str = "lat",
                 lng_col: str = "lng"):
    """Derive deterministic (lat, lng) from the url column."""

    def fn(batch: pa.Table) -> pa.Table:
        urls = batch[url_col]
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        lat, lng = pages_io.geotag(urls)
        batch = batch.append_column(lat_col, pa.array(lat, type=pa.float64()))
        return batch.append_column(lng_col, pa.array(lng, type=pa.float64()))

    return fn


def encode_stage(res: int, lat_col: str = "lat", lng_col: str = "lng",
                 out_col: str | None = None):
    """latLngToCell at `res` -> uint64 column `cell_r{res}`."""
    out = out_col or f"cell_r{res}"

    def fn(batch: pa.Table) -> pa.Table:
        cells = latlng.latlng_to_cell(_col(batch, lat_col),
                                      _col(batch, lng_col), res)
        return batch.append_column(out, pa.array(bits.as_u64(cells)))

    return fn


def parent_stage(parent_res: int, cell_col: str, out_col: str | None = None):
    """cellToParent -> uint64 column `parent_r{parent_res}`."""
    out = out_col or f"parent_r{parent_res}"

    def fn(batch: pa.Table) -> pa.Table:
        parents = bits.cell_to_parent(_col(batch, cell_col), parent_res)
        return batch.append_column(out, pa.array(bits.as_u64(parents)))

    return fn


def children_expand_stage(child_res: int, cell_col: str, keep_cols: list[str],
                          out_col: str = "child_cell"):
    """uncompact / cellToChildren flat-map."""

    def fn(batch: pa.Table) -> pa.Table:
        cells = _col(batch, cell_col)
        rows, children = hierarchy.cell_to_children(cells, child_res)
        arrays = [batch[c].take(pa.array(rows)) for c in keep_cols]
        arrays.append(pa.array(bits.as_u64(cells[rows])))
        arrays.append(pa.array(bits.as_u64(children)))
        return pa.Table.from_arrays(
            arrays, names=list(keep_cols) + [cell_col, out_col])

    return fn


def path_expand_stage(origin_col: str, dest_col: str, keep_cols: list[str],
                      out_col: str = "path_cell"):
    """gridPathCells flat-map: one row per cell along each origin->dest line
    (trajectory rasterization, cell.rs:1320-1363)."""
    from ..kernels import localij

    def fn(batch: pa.Table) -> pa.Table:
        origins = _col(batch, origin_col)
        dests = _col(batch, dest_col)
        rows, cells, _ok = localij.grid_path_cells(origins, dests)
        arrays = [batch[c].take(pa.array(rows)) for c in keep_cols]
        arrays.append(pa.array(bits.as_u64(origins[rows])))
        arrays.append(pa.array(bits.as_u64(cells)))
        return pa.Table.from_arrays(
            arrays, names=list(keep_cols) + [origin_col, out_col])

    return fn


def area_stage(cell_col: str, unit: str = "km2", out_col: str | None = None):
    """cellArea per row (Cagnoli+Kahan, math/area.rs)."""
    from ..kernels import measures

    out = out_col or f"area_{unit}"
    fns = {"rads2": measures.cell_area_rads2, "km2": measures.cell_area_km2,
           "m2": measures.cell_area_m2}

    def fn(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            out, pa.array(fns[unit](_col(batch, cell_col))))

    return fn


def boundary_expand_stage(cell_col: str, keep_cols: list[str],
                          vert_col: str = "vert_idx"):
    """cellToBoundary flat-map (faceijk.rs:371-478): one row per boundary
    vertex (5-10 per cell incl. class-III distortion vertices), columns
    (keep..., cell, vert_idx, vert_lat, vert_lng)."""
    from ..kernels.boundary import cell_to_boundary

    def fn(batch: pa.Table) -> pa.Table:
        cells = _col(batch, cell_col)
        off, vlat, vlng = cell_to_boundary(bits.as_i64(cells))
        counts = np.diff(off)
        rows = np.repeat(np.arange(cells.shape[0]), counts)
        vidx = np.arange(off[-1], dtype=np.int64) - np.repeat(
            off[:-1].astype(np.int64), counts)
        arrays = [batch[c].take(pa.array(rows)) for c in keep_cols]
        names = list(keep_cols)
        arrays.extend([pa.array(bits.as_u64(cells[rows])),
                       pa.array(vidx.astype(np.int32)),
                       pa.array(vlat), pa.array(vlng)])
        names.extend([cell_col, vert_col, "vert_lat", "vert_lng"])
        return pa.Table.from_arrays(arrays, names=names)

    return fn


def edges_expand_stage(cell_col: str, keep_cols: list[str],
                       out_col: str = "edge",
                       length_col: str | None = "edge_len_m"):
    """originToDirectedEdges flat-map (edge.rs:14-42): 6 rows per hexagon,
    5 per pentagon, each carrying the directed-edge index and (optionally)
    its exact great-circle length in metres."""
    from ..kernels import edgevertex as ev

    def fn(batch: pa.Table) -> pa.Table:
        cells = _col(batch, cell_col)
        rows, edges = ev.origin_to_directed_edges(bits.as_i64(cells))
        arrays = [batch[c].take(pa.array(rows)) for c in keep_cols]
        names = list(keep_cols)
        arrays.append(pa.array(bits.as_u64(cells[rows])))
        names.append(cell_col)
        arrays.append(pa.array(bits.as_u64(edges)))
        names.append(out_col)
        if length_col:
            arrays.append(pa.array(ev.edge_length_m(edges)))
            names.append(length_col)
        return pa.Table.from_arrays(arrays, names=names)

    return fn


def vertexes_expand_stage(cell_col: str, keep_cols: list[str],
                          out_col: str = "vertex",
                          coords: bool = True):
    """cellToVertexes flat-map (cell.rs:1009-1027): one row per canonical
    vertex (6 per hexagon, 5 per pentagon), optionally with the vertex
    lat/lng (vertexToLatLng)."""
    from ..kernels import edgevertex as ev

    def fn(batch: pa.Table) -> pa.Table:
        cells = _col(batch, cell_col)
        rows, verts = ev.cell_to_vertexes(bits.as_i64(cells))
        arrays = [batch[c].take(pa.array(rows)) for c in keep_cols]
        names = list(keep_cols)
        arrays.append(pa.array(bits.as_u64(cells[rows])))
        names.append(cell_col)
        arrays.append(pa.array(bits.as_u64(verts)))
        names.append(out_col)
        if coords:
            vlat, vlng = ev.vertex_to_latlng(verts)
            arrays.extend([pa.array(vlat), pa.array(vlng)])
            names.extend(["vertex_lat", "vertex_lng"])
        return pa.Table.from_arrays(arrays, names=names)

    return fn


def local_ij_stage(origin_col: str, cell_col: str, i_col: str = "local_i",
                   j_col: str = "local_j", ok_col: str = "local_ok"):
    """cellToLocalIj per row (cell.rs:1482-1486): anchor-relative (i, j)
    axial coordinates; ok=False where the local frame is undefined
    (different base-cell neighborhoods / pentagon distortion)."""
    from ..kernels import localij

    def fn(batch: pa.Table) -> pa.Table:
        i, j, ok = localij.cell_to_local_ij(_col(batch, origin_col),
                                            _col(batch, cell_col))
        batch = batch.append_column(i_col, pa.array(np.where(ok, i, 0)))
        batch = batch.append_column(j_col, pa.array(np.where(ok, j, 0)))
        return batch.append_column(ok_col, pa.array(ok))

    return fn
