"""Point-in-polygon join: pages vs polygon coverage cell sets.

The spatial-join core (SURVEY.md §2.7): pages stream through a stateless
map_batches that encodes each page's point and probes the polygons'
coverage with one sorted-array lookup per page (each compacted cell is a
contiguous range of res-`res` cell bits, see cell_probe), no shuffle of
the big side. The kNN join (knn.py) probes its query disks through the
same cell_probe / probe_cells pair.

The polygons are the small side and are tiled once per join, in one
batched top-down pass over all of them (shared by build_probe and
coverage_table through `_tile`). build_probe takes the tiler's native
compacted coverage (minimal multi-res cell set,
region.polygons_to_compact_cells), so tiling costs what the probe holds,
not the polygons' area; coverage_table takes its flat res-`res` form
(region.polygons_to_cells). Tiling runs inline on the driver, or as one
Ray task per CPU-sized chunk of polygons when the cluster has more than
one CPU. The probe is broadcast via ray.put.

`exact=True` re-checks the exact point-in-polygon predicate per candidate
(coverage then uses the "candidates" superset so no true match is lost),
giving exact join semantics rather than cell-approximation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io import pages as pages_io
from ..kernels import bits, region


def city_polygons(n: int = 10, radius_deg: float = 0.75) -> list[dict]:
    """Deterministic test polygons: hexagon-ish rings around the first `n`
    synthetic city centers (h3ray.io.pages.CITY_LAT/LNG)."""
    geoms = []
    for i in range(n):
        lat0 = pages_io.CITY_LAT[i]
        lng0 = pages_io.CITY_LNG[i]
        ang = np.linspace(0.0, 2.0 * np.pi, 7)[:-1] + 0.1 * (i + 1)
        lat = lat0 + radius_deg * np.sin(ang)
        lng = lng0 + radius_deg * np.cos(ang) / max(
            np.cos(np.deg2rad(lat0)), 0.2)
        ring = np.stack([np.append(lng, lng[0]), np.append(lat, lat[0])],
                        axis=1)
        geoms.append(region.prepare_geometry([[ring]]))
    return geoms


def _tile_chunk(geoms: list[dict], res: int, mode: str, compact: bool):
    """(polygon_id, cell) coverage of one chunk of polygons, sorted by
    (polygon_id, cell): each polygon's compacted set when `compact`, else
    its flat res-`res` cells."""
    if compact:
        return region.polygons_to_compact_cells(geoms, res, mode)
    return region.polygons_to_cells(geoms, res, mode)


def _tile(geoms: list[dict], res: int, mode: str, compact: bool = False):
    """Tile all polygons: `_tile_chunk` inline on the driver when the
    cluster has one CPU (or no Ray session is up), else one Ray task per
    chunk, min(len(geoms), cluster CPUs) chunks."""
    import ray

    chunks = 1
    if ray.is_initialized():
        chunks = min(len(geoms), int(ray.cluster_resources().get("CPU", 1)))
    if chunks <= 1:
        return _tile_chunk(geoms, res, mode, compact)
    bounds = np.linspace(0, len(geoms), chunks + 1).astype(int)
    task = ray.remote(num_cpus=1)(_tile_chunk)
    outs = ray.get([task.remote(geoms[a:b], res, mode, compact)
                    for a, b in zip(bounds[:-1], bounds[1:])])
    return (np.concatenate([p + a for (p, _), a in zip(outs, bounds)]),
            np.concatenate([c for _, c in outs]))


def coverage_table(geoms: list[dict], res: int,
                   mode: str = "centroid") -> pa.Table:
    """(polygon_id, cell) coverage rows for a list of prepared geometries,
    sorted by (polygon_id, cell)."""
    pid, cell = _tile(geoms, res, mode)
    return pa.Table.from_arrays(
        [pa.array(pid), pa.array(cell.view(np.uint64))],
        names=["polygon_id", "cell"])


def build_probe(geoms: list[dict], res: int, mode: str = "centroid") -> dict:
    """Broadcastable interval probe over the polygons' compacted coverage
    (see cell_probe). A page cell matches polygon P if P's coverage holds
    the cell or one of its ancestors.

    mode="candidates" builds the exact-join candidate superset (centroid
    coverage + buffered outline, see region.candidate_cells) — much cheaper
    than the prepared-relate "covers" coverage and sufficient when every
    match is re-verified per point.
    """
    return cell_probe(*_tile(geoms, res, mode, compact=True), res)


def cell_probe(ids: np.ndarray, cells: np.ndarray, res: int) -> dict:
    """Broadcastable interval probe over (id, cell) pairs of cells at res
    <= `res`, for probe_cells: polygon ids over a coverage, query ids over
    their gridDisk cells.

    A res-r cell holds exactly the res-`res` cells whose bits lie in one
    contiguous range: its centre child at `res` (digits r+1..res all 0) up
    to the cell with those digits all 7, since the res field and the
    unused-digit tail are the same for every res-`res` cell. The ranges of
    all pairs split at their ends into elementary slots, `bounds` sorted;
    slot s holds the cells in [bounds[s-1], bounds[s]) and lists its ids
    as `ids[start[s]:start[s + 1]]` (`count[s]` of them, ascending; slot 0
    and the last slot are empty).
    """
    lo = bits.cell_to_center_child(cells, res)
    tail = (np.int64(1) << 3 * (15 - bits.get_resolution(cells))) - 1
    hi = (lo | tail) + 1
    bounds = np.unique(np.concatenate([lo, hi]))
    first = np.searchsorted(bounds, lo) + 1
    n_slots = np.searchsorted(bounds, hi) + 1 - first
    owner, slot = region._ragged(first, n_slots)
    order = np.lexsort((ids[owner], slot))
    count = np.bincount(slot, minlength=bounds.shape[0] + 1)
    return {"res": res, "bounds": bounds, "count": count,
            "start": np.concatenate([[0], np.cumsum(count)]),
            "ids": ids[owner][order]}


def probe_cells(probe: dict, cells: np.ndarray):
    """Match res-`probe["res"]` cells against the probe, one `searchsorted`
    per cell: returns (row, id) of every match, by row."""
    slot = np.searchsorted(probe["bounds"], cells, side="right")
    count = probe["count"][slot]
    rows = np.flatnonzero(count)
    start = probe["start"][slot[rows]]
    count = count[rows]
    if (count == 1).all():
        return rows, probe["ids"][start]
    owner, take = region._ragged(start, count)
    return rows[owner], probe["ids"][take]


def _probe_batch(data: dict, batch: pa.Table, res: int,
                 exact: bool) -> pa.Table:
    """One page batch through the probe: encode, probe, and with `exact`
    re-check every candidate with the point-in-polygon predicate in one
    `region._contains` call over (candidate, polygon_id). `data` is the
    broadcast payload {"probe", "edges"}, `edges` the polygons'
    `region._edge_table`."""
    urls, lat, lng, cells = pages_io.geotag_encode(batch["url"], res)
    row, pid = probe_cells(data["probe"], cells)
    if exact and row.size:
        keep = region._contains(data["edges"], pid, np.deg2rad(lat[row]),
                                np.deg2rad(lng[row]))
        row = row[keep]
        pid = pid[keep]
    return pa.Table.from_arrays(
        [urls.take(pa.array(row)), pa.array(pid),
         pa.array(cells[row].view(np.uint64))],
        names=["url", "polygon_id", "cell"])


def pip_join(pages_ds, geoms: list[dict], *, res: int = 9,
             mode: str = "centroid", exact: bool = False):
    """Join pages to polygons via H3 coverage.

    Returns Dataset(url, polygon_id, cell). With exact=True the match is the
    exact point-in-polygon predicate (coverage = "candidates" superset +
    per-point PIP recheck); otherwise cell-level containment per `mode`.
    A typed empty block leads the output, so a join over no pages still
    has its columns.
    """
    import ray
    import ray.data as rd

    data = {"probe": build_probe(geoms, res,
                                 "candidates" if exact else mode),
            "edges": region._edge_table(geoms) if exact else None}
    ref = ray.put(data)

    def fn(batch: pa.Table) -> pa.Table:
        return _probe_batch(ray.get(ref), batch, res, exact)

    empty = _probe_batch(data, pa.table({"url": pa.array([], pa.string())}),
                         res, exact)
    return rd.from_arrow(empty).union(pages_ds.select_columns(["url"])
                                      .map_batches(fn, batch_format="pyarrow",
                                                   batch_size=65536))


def pip_join_shuffle(pages_ds, geoms: list[dict], *, res: int = 9,
                     mode: str = "centroid"):
    """Hash-join variant of pip_join for coverage sets too large to
    broadcast (continental polygons at fine res): pages encode to cells,
    the flat res-`res` coverage tiles in parallel Ray tasks, and
    ops.join.hash_join co-partitions both sides on the int64 cell.

    Same output as pip_join (url, polygon_id, cell). Prefer the broadcast
    probe whenever the compacted coverage fits in the object store — it
    avoids shuffling the page side entirely.
    """
    import ray.data as rd

    from ..ops.join import hash_join

    pid, cell = _tile(geoms, res, mode)
    cov = rd.from_arrow(pa.Table.from_arrays(
        [pa.array(pid), pa.array(cell)], names=["polygon_id", "cell"]))

    def encode(batch: pa.Table) -> pa.Table:
        urls, _, _, cells = pages_io.geotag_encode(batch["url"], res)
        return pa.Table.from_arrays([urls, pa.array(cells)],
                                    names=["url", "cell"])

    def order(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["url"], batch["polygon_id"],
             batch["cell"].cast(pa.uint64())],
            names=["url", "polygon_id", "cell"])

    keyed = pages_ds.select_columns(["url"]).map_batches(
        encode, batch_format="pyarrow", batch_size=65536)
    return hash_join(keyed, cov, "cell", "cell").map_batches(
        order, batch_format="pyarrow")
