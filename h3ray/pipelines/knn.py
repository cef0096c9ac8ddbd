"""kNN join: for each query point, the k_nearest pages by H3 ring expansion.

Strategy (small query side — the common case):
  1. Encode queries at res R; expand each query cell with gridDisk(k_ring).
  2. Broadcast the disk-cell -> query lookup as *sorted numpy arrays*
     (ray.put once, fetched in each actor's __init__) — no shuffle of the
     big side, and the probe is a vectorized searchsorted, not a dict loop.
  3. map_batches over pages: encode, probe, emit candidate
     (query_id, url, distance_km) rows.
  4. groupby(query_id).map_groups(top-k by haversine distance).

For a large query side, expand both sides to disk cells and hash-join on the
cell instead (same kernels, shuffle join); see SURVEY.md §2.7.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..io import pages as pages_io
from ..kernels import bits, grid, latlng, localij
from ..kernels.constants import EARTH_RADIUS_KM


def build_query_index(query_lat, query_lng, res: int, k_ring: int):
    """Expand query points into a sorted probe table.

    Returns dict of numpy arrays: disk cells (sorted, with duplicates per
    query), matching query ids and coordinates, plus unique-cell offsets.
    """
    query_lat = np.asarray(query_lat, dtype=np.float64)
    query_lng = np.asarray(query_lng, dtype=np.float64)
    qcells = latlng.latlng_to_cell(query_lat, query_lng, res)
    qid, disk_cells, _ = grid.grid_disk_distances(qcells, k_ring)
    order = np.argsort(disk_cells, kind="stable")
    disk_cells = disk_cells[order]
    qid = qid[order]
    uniq, starts = np.unique(disk_cells, return_index=True)
    counts = np.diff(np.append(starts, disk_cells.shape[0]))
    return {
        "uniq_cells": uniq, "starts": starts, "counts": counts,
        "qid": qid, "qlat": query_lat, "qlng": query_lng, "qcells": qcells,
    }


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
        urls, lat, lng, cells = pages_io.geotag_encode(batch["url"], res)

        idx = index
        pos = np.searchsorted(idx["uniq_cells"], cells)
        pos = np.minimum(pos, idx["uniq_cells"].shape[0] - 1)
        hit = idx["uniq_cells"][pos] == cells
        rows = np.where(hit)[0]
        if rows.size == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.string()),
                 pa.array([], pa.float64()), pa.array([], pa.uint64())],
                names=["query_id", "url", "distance_km", "cell"])
        counts = idx["counts"][pos[rows]]
        starts = idx["starts"][pos[rows]]
        # Expand each hit row to its per-query matches (vectorized ragged
        # gather: start[i] + 0..count[i]).
        out_rows = np.repeat(rows, counts)
        total = int(counts.sum())
        bounds = np.cumsum(counts) - counts
        take = np.repeat(starts, counts) + (
            np.arange(total) - np.repeat(bounds, counts))
        qids = idx["qid"][take]
        d = haversine_km(np.deg2rad(lat[out_rows]), np.deg2rad(lng[out_rows]),
                         np.deg2rad(idx["qlat"][qids]),
                         np.deg2rad(idx["qlng"][qids]))
        return pa.Table.from_arrays(
            [pa.array(qids), urls.take(pa.array(out_rows)), pa.array(d),
             pa.array(bits.as_u64(cells[out_rows]))],
            names=["query_id", "url", "distance_km", "cell"])


#: Above this many final rows per contributing block (n_queries * k), the
#: driver tree-root merge (bounded by #blocks * n_queries * k rows) stops
#: being "tiny" and the ranking routes through a distributed bucketed
#: groupby instead.
DRIVER_MERGE_MAX_ROWS = 65536


def _resolve_merge(merge: str, n_queries: int, k: int) -> str:
    if merge not in ("auto", "driver", "distributed"):
        raise ValueError(f"merge must be auto|driver|distributed, "
                         f"got {merge!r}")
    if merge != "auto":
        return merge
    return ("distributed" if n_queries * k > DRIVER_MERGE_MAX_ROWS
            else "driver")


def _top_k(batch: pa.Table, k: int) -> pa.Table:
    """Keep each query's k nearest rows of `batch`, in input order.

    Sort keys are all numeric (np.lexsort): distance, then the url hash as
    a deterministic tiebreak (string sorts are ~10x slower)."""
    qid = batch["query_id"].to_numpy(zero_copy_only=False)
    if qid.shape[0] == 0:
        return batch
    dist = batch["distance_km"].to_numpy(zero_copy_only=False)
    urls = batch["url"]
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    uh = pages_io.url_hash64(urls)
    order = np.lexsort((uh, dist, qid))
    q_sorted = qid[order]
    # Rank within each query run; keep rank < k.
    new_q = np.empty(q_sorted.shape[0], dtype=bool)
    new_q[0] = True
    np.not_equal(q_sorted[1:], q_sorted[:-1], out=new_q[1:])
    run_start = np.maximum.accumulate(
        np.where(new_q, np.arange(q_sorted.shape[0]), 0))
    rank = np.arange(q_sorted.shape[0]) - run_start
    keep = order[rank < k]
    keep.sort()  # preserve input order within the batch
    return batch.take(pa.array(keep))


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


def _distributed_topk(partial, top_k_fn, num_buckets: int | None = None):
    """Per-query top-k merge as a bucketed shuffle: partials hash-bucket by
    query_id (every row of a query lands in one reducer; reducer count =
    num_buckets, each holding <= #blocks * k rows per query), then the same
    vectorized segmented top-k runs per bucket. The scale path when
    #blocks * n_queries * k outgrows the driver tree-root."""
    from ..io.pages import _mix64
    from ..ops.skew import default_num_buckets

    nb = num_buckets or default_num_buckets()

    def bucket(batch: pa.Table) -> pa.Table:
        qid = batch["query_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        return batch.append_column(
            "_bucket", pa.array((_mix64(qid) % np.uint64(nb))
                                .astype(np.int32)))

    def reduce(group: pa.Table) -> pa.Table:
        return top_k_fn(group.drop_columns(["_bucket"]))

    return partial.map_batches(bucket, batch_format="pyarrow") \
        .groupby("_bucket").map_groups(reduce, batch_format="pyarrow")


def knn_join(pages_ds, query_lat, query_lng, *, res: int = 7, k_ring: int = 2,
             k_nearest: int = 5, concurrency: int | None = None,
             merge: str = "auto"):
    """Top-k nearest pages per query point (broadcast ring-expansion join).

    Uses stateless tasks (not an actor pool): the per-batch broadcast fetch
    is a zero-copy local object-store read, and task workers stay warm
    across executions.

    `merge`: final per-query ranking strategy — "driver" (tree-root merge
    of the <= #blocks * n_queries * k partial rows; right while that bound
    is tiny), "distributed" (bucketed groupby segmented top-k; the scale
    path), or "auto" (switch at DRIVER_MERGE_MAX_ROWS).
    """
    import ray

    index = build_query_index(query_lat, query_lng, res, k_ring)
    index_ref = ray.put(index)

    def fn(batch: pa.Table) -> pa.Table:
        return knn_candidates(batch, _resolve_index(index_ref), res)

    candidates = pages_ds.select_columns(["url"]).map_batches(
        fn, batch_format="pyarrow", batch_size=32768)

    # Partial top-k per batch, then one tiny final merge — avoids the
    # sort-based groupby shuffle (each partial emits <= n_queries * k rows).
    def top_k(batch: pa.Table) -> pa.Table:
        return _top_k(batch, k_nearest)

    def add_grid_dist(batch: pa.Table) -> pa.Table:
        # Fetch qcells via the broadcast ref (zero-copy plasma read): the
        # distributed merge path runs this in tasks, and the closure must
        # not ship the whole query index per serialization.
        return _add_grid_dist(batch, _resolve_index(index_ref)["qcells"])

    partial = candidates.map_batches(top_k, batch_format="pyarrow",
                                     batch_size=None)
    import ray.data as rd

    if _resolve_merge(merge, len(index["qlat"]),
                      k_nearest) == "distributed":
        ranked = _distributed_topk(partial, top_k)
        return ranked.map_batches(add_grid_dist, batch_format="pyarrow")

    # Final merge on the driver (<= #blocks * n_queries * k partial rows).
    from ..ops.reduce import driver_merge

    cand_schema = pa.schema([("query_id", pa.int64()), ("url", pa.string()),
                             ("distance_km", pa.float64()),
                             ("cell", pa.uint64())])
    final = driver_merge(partial, lambda t: add_grid_dist(top_k(t)),
                         schema=cand_schema)
    return rd.from_arrow(final)


def knn_join_shuffle(pages_ds, query_lat, query_lng, *, res: int = 7,
                     k_ring: int = 2, k_nearest: int = 5,
                     num_partitions: int = 32, merge: str = "auto"):
    """Hash-join kNN variant for query sets too large to broadcast.

    Queries expand to their gridDisk(k_ring) cells as a Dataset; pages
    encode to cells; Ray Data's hash join co-partitions both sides on the
    cell key. Ranking reuses the same partial-top-k + driver merge as the
    broadcast path. Prefer `knn_join` while the expanded query index fits
    the object store.
    """
    import ray.data as rd

    query_lat = np.asarray(query_lat, dtype=np.float64)
    query_lng = np.asarray(query_lng, dtype=np.float64)
    qcells = latlng.latlng_to_cell(query_lat, query_lng, res)
    qid, disk_cells, _ = grid.grid_disk_distances(qcells, k_ring)
    qtable = pa.Table.from_arrays(
        [pa.array(disk_cells.view(np.uint64)), pa.array(qid),
         pa.array(query_lat[qid]), pa.array(query_lng[qid])],
        names=["cell", "query_id", "qlat", "qlng"])
    queries = rd.from_arrow(qtable)

    def encode(batch: pa.Table) -> pa.Table:
        urls, lat, lng, cells = pages_io.geotag_encode(batch["url"], res)
        return pa.Table.from_arrays(
            [urls, pa.array(cells.view(np.uint64)), pa.array(lat),
             pa.array(lng)], names=["url", "cell", "lat", "lng"])

    keyed = pages_ds.select_columns(["url"]).map_batches(
        encode, batch_format="pyarrow", batch_size=65536)
    # Explicit co-partitioned hash join (ops/join.py): measured 3.4x faster
    # than the native Dataset.join aggregator path on the bench join.
    from ..ops.join import hash_join

    joined = hash_join(keyed, queries, "cell", "cell",
                       num_buckets=num_partitions)

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

    def add_grid_dist(batch: pa.Table) -> pa.Table:
        return _add_grid_dist(batch, qcells)

    import ray.data as rd2

    from ..ops.reduce import driver_merge

    cand_schema = pa.schema([("query_id", pa.int64()), ("url", pa.string()),
                             ("distance_km", pa.float64()),
                             ("cell", pa.uint64())])
    partial = joined.map_batches(score, batch_format="pyarrow") \
        .map_batches(top_k, batch_format="pyarrow", batch_size=None)
    if _resolve_merge(merge, query_lat.shape[0],
                      k_nearest) == "distributed":
        ranked = _distributed_topk(partial, top_k)
        return ranked.map_batches(add_grid_dist, batch_format="pyarrow")
    final = driver_merge(partial, lambda t: add_grid_dist(top_k(t)),
                         schema=cand_schema)
    return rd2.from_arrow(final)
