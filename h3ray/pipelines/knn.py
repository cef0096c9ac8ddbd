"""kNN join: for each query point, the k_nearest pages by H3 ring expansion.

Strategy (small query side — the common case):
  1. Encode queries at res R; expand each query cell with gridDisk(k_ring).
  2. Build the (query id, disk cell) pairs into pip.cell_probe — the same
     sorted interval probe the PIP join broadcasts — and ray.put it once;
     no shuffle of the big side, and the lookup is one vectorized
     searchsorted per page (pip.probe_cells), not a dict loop.
  3. map_batches over pages: encode, probe, emit candidate
     (query_id, url, distance_km, cell) rows, then a per-batch top-k.
  4. rank_topk: one final per-query top-k over the partials, on the
     driver tree-root while it is small, else a query-hash exchange
     (the same root ranks ann.py's cosine top-k).

For a large query side, expand both sides to disk cells and hash-join on the
cell instead (same kernels, shuffle join, knn_join_shuffle); see SURVEY.md
§2.7.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io import pages as pages_io
from ..kernels import bits, grid, latlng, localij
from ..kernels.constants import EARTH_RADIUS_KM
from ..ops.reduce import driver_merge, exchange
from ..ops.skew import _segmented_top_k
from .pip import cell_probe, probe_cells


def build_query_index(query_lat, query_lng, res: int, k_ring: int):
    """Expand query points into a broadcastable probe.

    Returns a dict: `probe`, the pip.cell_probe of every (query id,
    gridDisk(k_ring) cell) pair, plus the query coordinates and cells.
    """
    query_lat = np.asarray(query_lat, dtype=np.float64)
    query_lng = np.asarray(query_lng, dtype=np.float64)
    qcells = latlng.latlng_to_cell(query_lat, query_lng, res)
    qid, disk_cells, _ = grid.grid_disk_distances(qcells, k_ring)
    return {"probe": cell_probe(qid, disk_cells, res), "qlat": query_lat,
            "qlng": query_lng, "qcells": qcells}


def haversine_km(a_lat, a_lng, b_lat, b_lng):
    """Great-circle distance in km; inputs in radians (latlng.rs:170-214)."""
    sl = np.sin((b_lat - a_lat) * 0.5)
    sg = np.sin((b_lng - a_lng) * 0.5)
    h = sl * sl + np.cos(a_lat) * np.cos(b_lat) * sg * sg
    return 2.0 * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h)) * EARTH_RADIUS_KM


def _resolve_index(index_ref):
    """Fetch the broadcast index (zero-copy plasma read, cached per worker)."""
    if isinstance(index_ref, dict):
        return index_ref
    import ray

    return ray.get(index_ref)


def knn_candidates(batch: pa.Table, index, res: int) -> pa.Table:
    """Candidate (query_id, url, distance_km, cell) rows of one page batch:
    every page whose cell lies in a query's disk, by page."""
    urls, lat, lng, cells = pages_io.geotag_encode(batch["url"], res)
    rows, qids = probe_cells(index["probe"], cells)
    d = haversine_km(np.deg2rad(lat[rows]), np.deg2rad(lng[rows]),
                     np.deg2rad(index["qlat"][qids]),
                     np.deg2rad(index["qlng"][qids]))
    return pa.Table.from_arrays(
        [pa.array(qids), urls.take(pa.array(rows)), pa.array(d),
         pa.array(bits.as_u64(cells[rows]))],
        names=["query_id", "url", "distance_km", "cell"])


#: Above this many final rows per contributing block (n_queries * k), the
#: driver tree-root merge (bounded by #blocks * n_queries * k rows) stops
#: being "tiny" and rank_topk routes through a distributed bucketed
#: groupby instead.
DRIVER_MERGE_MAX_ROWS = 65536


def _top_k(batch: pa.Table, k: int) -> pa.Table:
    """Keep each query's k nearest rows of `batch`, in input order: the
    segmented top-k kernel by distance ascending, the url hash as a
    deterministic numeric tiebreak (string sorts are ~10x slower)."""
    if batch.num_rows == 0:
        return batch
    urls = batch["url"]
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    return _segmented_top_k(batch, "query_id", "distance_km", k,
                            pages_io.url_hash64(urls), descending=False)


def _add_grid_dist(batch: pa.Table, qcells) -> pa.Table:
    """Replace `cell` by the hex-grid distance to the row's query cell.

    The rank key (cell.rs:1294-1299) only decorates the winners — compute
    it on the <= n_queries * k final rows, not on every candidate. -1 where
    undefined (pentagon distortion); defined values are always <= k_ring
    since candidates come from gridDisk(k_ring)."""
    cells = bits.as_i64(batch["cell"].to_numpy(zero_copy_only=False))
    qids = batch["query_id"].to_numpy(zero_copy_only=False)
    gd, gok = localij.grid_distance(qcells[qids], cells)
    gd = np.where(gok, gd, -1)
    return batch.drop_columns(["cell"]).append_column(
        "grid_dist", pa.array(gd))


def rank_topk(partial, root, n_rows: int,
              schema: pa.Schema | None = None):
    """Final per-query ranking of per-batch top-k partials (knn_join,
    knn_join_shuffle and ann's cosine top-k).

    `root(table)` ranks any set of partial rows: each query's best rows,
    plus whatever decorates the winners. Every block holds <= `n_rows`
    (n_queries * k) partial rows. Up to DRIVER_MERGE_MAX_ROWS, `root` runs
    once on the driver tree-root over all partials (`schema` is the
    partial schema for an input with no rows, see ops.reduce.driver_merge);
    past it the partials exchange on query_id (ops.reduce.exchange), so
    every row of a query reaches one call of `root`. Both paths give the
    same rows."""
    import ray.data as rd

    if n_rows <= DRIVER_MERGE_MAX_ROWS:
        return rd.from_arrow(driver_merge(partial, root, schema=schema))
    return exchange(partial, "query_id", root)


#: Partial rows of both kNN joins, before rank_topk's root.
CANDIDATE_SCHEMA = pa.schema([("query_id", pa.int64()), ("url", pa.string()),
                              ("distance_km", pa.float64()),
                              ("cell", pa.uint64())])


def knn_join(pages_ds, query_lat, query_lng, *, res: int = 7, k_ring: int = 2,
             k_nearest: int = 5):
    """Top-k nearest pages per query point (broadcast ring-expansion join).

    Uses stateless tasks (not an actor pool): the per-batch broadcast fetch
    is a zero-copy local object-store read, and task workers stay warm
    across executions. Each batch keeps its own top-k; rank_topk ranks
    those partials and adds `grid_dist` to the winners.
    """
    import ray

    index = build_query_index(query_lat, query_lng, res, k_ring)
    index_ref = ray.put(index)

    def candidates(batch: pa.Table) -> pa.Table:
        return knn_candidates(batch, _resolve_index(index_ref), res)

    def top_k(batch: pa.Table) -> pa.Table:
        return _top_k(batch, k_nearest)

    def root(partial: pa.Table) -> pa.Table:
        # qcells come through the broadcast ref (zero-copy plasma read):
        # the bucketed path runs this in tasks, and the closure must not
        # ship the whole query index per serialization.
        return _add_grid_dist(top_k(partial),
                              _resolve_index(index_ref)["qcells"])

    partial = pages_ds.select_columns(["url"]).map_batches(
        candidates, batch_format="pyarrow", batch_size=32768) \
        .map_batches(top_k, batch_format="pyarrow", batch_size=None)
    return rank_topk(partial, root, len(index["qlat"]) * k_nearest,
                     CANDIDATE_SCHEMA)


def knn_join_shuffle(pages_ds, query_lat, query_lng, *, res: int = 7,
                     k_ring: int = 2, k_nearest: int = 5):
    """Hash-join kNN variant for query sets too large to broadcast.

    Queries expand to their gridDisk(k_ring) cells as a Dataset; pages
    encode to cells; ops.join.hash_join co-partitions both sides on the
    int64 cell. Ranking is the same per-batch top-k + rank_topk as the
    broadcast path. Prefer `knn_join` while the expanded query index fits
    the object store.
    """
    import ray.data as rd

    from ..ops.join import hash_join

    query_lat = np.asarray(query_lat, dtype=np.float64)
    query_lng = np.asarray(query_lng, dtype=np.float64)
    qcells = latlng.latlng_to_cell(query_lat, query_lng, res)
    qid, disk_cells, _ = grid.grid_disk_distances(qcells, k_ring)
    queries = rd.from_arrow(pa.Table.from_arrays(
        [pa.array(disk_cells), pa.array(qid), pa.array(query_lat[qid]),
         pa.array(query_lng[qid])],
        names=["cell", "query_id", "qlat", "qlng"]))

    def encode(batch: pa.Table) -> pa.Table:
        urls, lat, lng, cells = pages_io.geotag_encode(batch["url"], res)
        return pa.Table.from_arrays(
            [urls, pa.array(cells), pa.array(lat), pa.array(lng)],
            names=["url", "cell", "lat", "lng"])

    def score(batch: pa.Table) -> pa.Table:
        d = haversine_km(
            np.deg2rad(batch["lat"].to_numpy(zero_copy_only=False)),
            np.deg2rad(batch["lng"].to_numpy(zero_copy_only=False)),
            np.deg2rad(batch["qlat"].to_numpy(zero_copy_only=False)),
            np.deg2rad(batch["qlng"].to_numpy(zero_copy_only=False)))
        return pa.Table.from_arrays(
            [batch["query_id"], batch["url"], pa.array(d), batch["cell"]],
            names=["query_id", "url", "distance_km", "cell"])

    def top_k(batch: pa.Table) -> pa.Table:
        return _top_k(batch, k_nearest)

    def root(partial: pa.Table) -> pa.Table:
        return _add_grid_dist(top_k(partial), qcells)

    keyed = pages_ds.select_columns(["url"]).map_batches(
        encode, batch_format="pyarrow", batch_size=65536)
    partial = hash_join(keyed, queries, "cell", "cell") \
        .map_batches(score, batch_format="pyarrow") \
        .map_batches(top_k, batch_format="pyarrow", batch_size=None)
    return rank_topk(partial, root, query_lat.shape[0] * k_nearest,
                     CANDIDATE_SCHEMA)
