"""Polygon-to-cells tiling (polygonToCells) and point-in-polygon predicates.

From-scratch NumPy implementation of the reference tiler algorithm
(src/geom/tiler.rs): trace ring outlines by sampling segments at
pentagon-diameter steps, buffer with 1-ring neighbors, apply the containment
predicate, seed the outermost inner layer, then propagate inward
generation-by-generation with no further point-in-polygon checks.
`polygons_to_cells` runs that fill for a whole list of geometries at once,
on (polygon_id, cell) pairs packed into one int64 key, so each generation is
one whole-batch step; `polygon_to_cells` is its one-geometry case.

Containment modes mirror ContainmentMode (tiler.rs:420-461):
  - "centroid"  (ContainsCentroid): cell centroid inside the polygon.
  - "boundary"  (ContainsBoundary): cell fully covered by the polygon.
  - "intersects"(IntersectsBoundary): cell area intersects the polygon.
  - "covers"    (Covers): intersects + the geometry-within-one-cell case.

Transmeridian polygons (arc > 180°, tiler.rs:735-739) are handled by shifting
longitudes into a continuous [0, 2π) frame (shift_transmeridian_ring,
tiler.rs:820-825) and running every predicate in that frame — equivalent to
the reference's split-at-antimeridian + per-half relate.

Geometry model: a "geometry" is a list of polygons; each polygon is a list of
rings; each ring an (k, 2) float64 array of [lng, lat] (radians internally).
Ring 0 is the exterior, the rest are holes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import bits, grid, latlng
from .boundary import cell_to_boundary_rads

TWO_PI = 2.0 * math.pi

# Pentagon diameter / area per resolution — the maximally-distorted cell size,
# used for segment-sampling density and size estimates (tiler.rs:597-730).
PENT_DIAMETER_RADS = np.array([
    0.32549355508382627, 0.11062000431697926, 0.0431531246375496,
    0.015280278825461551, 0.006095981694441515, 0.00217237586248339,
    0.0008694532999397082, 0.0003101251537809772, 0.00012417902430910614,
    0.00004429922220615181, 0.00001773927716796858, 0.000006328371112691009,
    0.0000025341705472716865, 0.0000009040511973807097,
    0.00000036202412300873475, 0.00000012915013523209886,
])
PENT_AREA_RADS2 = np.array([
    0.05505118472518226, 0.006358420186890303, 0.0009676234334810151,
    0.00012132336301389888, 0.000019309418286620768, 0.0000024521770265310696,
    0.0000003928026439666205, 0.00000004997535264470275,
    0.000000008012690511075445, 0.0000000010197039091132572,
    0.00000000016351353999538285, 0.000000000020809697203105007,
    0.000000000003336979666606075, 0.0000000000004246859893033221,
    0.00000000000006810153522091642, 0.000000000000008667056198238203,
])


def haversine_rads(lat1, lng1, lat2, lng2):
    """Great-circle distance in radians (src/coord/latlng.rs:170-184)."""
    sl = np.sin((lat2 - lat1) * 0.5)
    sg = np.sin((lng2 - lng1) * 0.5)
    h = sl * sl + np.cos(lat1) * np.cos(lat2) * sg * sg
    return 2.0 * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))


# ---------------------------------------------------------------------------
# Geometry preparation
# ---------------------------------------------------------------------------

def _is_transmeridian(ring: np.ndarray) -> bool:
    """Arc > 180° heuristic on consecutive longitudes (tiler.rs:735-739)."""
    x = ring[:, 0]
    return bool((np.abs(np.diff(x)) > math.pi).any())


def prepare_geometry(polygons, degrees: bool = True,
                     transmeridian_heuristic: bool = True) -> dict:
    """Validate + normalize a geometry into the broadcastable dict form.

    Args:
        polygons: list of polygons; each polygon a list of rings; each ring a
            (k, 2) array-like of [lng, lat]. Rings must be closed (first ==
            last) with >= 4 coordinates (tiler.rs:804-812).

    Returns a plain-dict (picklable, ray.put-able) prepared geometry:
        {"polys": [[ring arrays (radians, shifted)]], "shifted": [bool], ...}
    """
    out_polys = []
    shifted_flags = []
    for poly in polygons:
        rings = []
        for ring in poly:
            r = np.asarray(ring, dtype=np.float64)
            if r.ndim != 2 or r.shape[1] != 2 or r.shape[0] < 4:
                raise ValueError("invalid ring (not enough coordinates)")
            if not np.isfinite(r).all():
                raise ValueError("non-finite ring coordinate")
            if degrees:
                r = np.deg2rad(r)
            if (np.abs(r[:, 0]) > TWO_PI).any() or \
                    (np.abs(r[:, 1]) > math.pi).any():
                raise ValueError("coordinate out of range")
            rings.append(r)
        shifted = transmeridian_heuristic and _is_transmeridian(rings[0])
        if shifted:
            rings = [np.stack([np.where(r[:, 0] < 0, r[:, 0] + TWO_PI,
                                        r[:, 0]), r[:, 1]], axis=1)
                     for r in rings]
        out_polys.append(rings)
        shifted_flags.append(shifted)
    bboxes = [[(r[:, 0].min(), r[:, 1].min(), r[:, 0].max(), r[:, 1].max())
               for r in rings] for rings in out_polys]
    return {"polys": out_polys, "shifted": shifted_flags, "bboxes": bboxes}


def geometry_from_geojson(obj, transmeridian_heuristic: bool = True) -> dict:
    """Prepared geometry from a GeoJSON Feature / Polygon / MultiPolygon."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if obj.get("type") == "Feature":
        obj = obj["geometry"]
    if obj["type"] == "Polygon":
        polys = [obj["coordinates"]]
    elif obj["type"] == "MultiPolygon":
        polys = obj["coordinates"]
    else:
        raise ValueError(f"unsupported GeoJSON type {obj['type']}")
    return prepare_geometry(
        [[np.asarray(ring, dtype=np.float64) for ring in poly]
         for poly in polys],
        transmeridian_heuristic=transmeridian_heuristic)


def _shift_lng(lng, shifted: bool):
    if not shifted:
        return lng
    return np.where(lng < 0, lng + TWO_PI, lng)


# ---------------------------------------------------------------------------
# Point-in-ring (winding number with boundary detection)
# ---------------------------------------------------------------------------

def _ring_coord_pos(px, py, ring: np.ndarray):
    """Winding-number position of points vs a closed ring.

    Returns (inside, on_boundary) bool arrays. Mirrors geo's
    coord_pos_relative_to_ring used by ring_contains_centroid
    (tiler.rs:881-908): nonzero winding rule + exact on-segment detection.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    ax, ay = ring[:-1, 0], ring[:-1, 1]
    bx, by = ring[1:, 0], ring[1:, 1]
    n = px.shape[0]
    m = ax.shape[0]
    wn = np.zeros(n, dtype=np.int64)
    on = np.zeros(n, dtype=bool)
    # Chunk the (points x segments) broadcast to bound memory.
    step = max(1, int(4_000_000 // max(m, 1)))
    for s in range(0, n, step):
        e = min(n, s + step)
        on_seg, up, down = _edge_pos(px[s:e, None], py[s:e, None],
                                     ax, ay, bx, by)
        wn[s:e] = (up.sum(axis=1) - down.sum(axis=1))
        on[s:e] = on_seg.any(axis=1)
    return (wn != 0) & ~on, on


def _edge_pos(qx, qy, ax, ay, bx, by):
    """Winding terms of points (qx, qy) vs edges a->b, elementwise with
    broadcasting: (on the edge, upward crossing, downward crossing)."""
    orient = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
    on_seg = (orient == 0.0) & \
        (qx >= np.minimum(ax, bx)) & (qx <= np.maximum(ax, bx)) & \
        (qy >= np.minimum(ay, by)) & (qy <= np.maximum(ay, by))
    up = (ay <= qy) & (by > qy) & (orient > 0.0)
    down = (ay > qy) & (by <= qy) & (orient < 0.0)
    return on_seg, up, down


def _ring_contains(px, py, ring, bbox):
    """ring_contains_centroid (tiler.rs:881-908): bbox prefilter, winding
    test, northward nudge when exactly on the boundary."""
    x0, y0, x1, y1 = bbox
    cand = (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)
    out = np.zeros(px.shape[0], dtype=bool)
    if not cand.any():
        return out
    inside, on = _ring_coord_pos(px[cand], py[cand], ring)
    if on.any():
        nudged, non = _ring_coord_pos(px[cand][on], py[cand][on] +
                                      np.finfo(np.float64).eps, ring)
        inside[on] = nudged & ~non
    out[cand] = inside
    return out


def contains_points(geom: dict, lat, lng, degrees: bool = False):
    """Vectorized ContainsCentroid predicate over (lat, lng) points.

    Point is contained when inside some polygon's exterior and none of that
    polygon's holes (tiler.rs:524-545).
    """
    lat = np.asarray(lat, dtype=np.float64)
    lng = np.asarray(lng, dtype=np.float64)
    if degrees:
        lat = np.deg2rad(lat)
        lng = np.deg2rad(lng)
    out = np.zeros(lat.shape[0], dtype=bool)
    for rings, shifted, bboxes in zip(geom["polys"], geom["shifted"],
                                      geom["bboxes"]):
        px = _shift_lng(lng, shifted)
        hit = _ring_contains(px, lat, rings[0], bboxes[0])
        for hole, hb in zip(rings[1:], bboxes[1:]):
            if hit.any():
                hit &= ~_ring_contains(px, lat, hole, hb)
        out |= hit
    return out


# ---------------------------------------------------------------------------
# Cell-boundary vs polygon relate (intersects / covers)
# ---------------------------------------------------------------------------

def _segments_relate(cax, cay, cbx, cby, pax, pay, pbx, pby):
    """Segment relations of each cell edge vs every polygon segment.

    cell segments (nc,) vs polygon segments (mp,), full broadcast. Returns
    per-cell-edge (intersects_any, proper_any) bool arrays.
    """
    cax = cax[:, None]
    cay = cay[:, None]
    cbx = cbx[:, None]
    cby = cby[:, None]
    d1 = (pbx - pax) * (cay - pay) - (pby - pay) * (cax - pax)
    d2 = (pbx - pax) * (cby - pay) - (pby - pay) * (cbx - pax)
    d3 = (cbx - cax) * (pay - cay) - (cby - cay) * (pax - cax)
    d4 = (cbx - cax) * (pby - cay) - (cby - cay) * (pbx - cax)
    proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & \
             (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)))
    # Touch: collinear endpoint within the other's bbox.
    def _on(d, qx, qy, sx0, sy0, sx1, sy1):
        return (d == 0) & (qx >= np.minimum(sx0, sx1)) & \
            (qx <= np.maximum(sx0, sx1)) & (qy >= np.minimum(sy0, sy1)) & \
            (qy <= np.maximum(sy0, sy1))
    touch = _on(d1, cax, cay, pax, pay, pbx, pby) | \
        _on(d2, cbx, cby, pax, pay, pbx, pby) | \
        _on(d3, pax, pay, cax, cay, cbx, cby) | \
        _on(d4, pbx, pby, cax, cay, cbx, cby)
    inter = proper | touch
    return inter.any(axis=1), proper.any(axis=1)


def _cell_vertices_in_frame(cells, geom_center_lng):
    """Cell boundaries as ragged vertex arrays, each cell unwrapped to be
    continuous and placed in the 2π-window nearest `geom_center_lng`."""
    off, vlat, vlng = cell_to_boundary_rads(cells)
    counts = np.diff(off)
    # Unwrap each cell's vertex longitudes around its first vertex.
    ref = np.repeat(vlng[off[:-1]], counts)
    seg = np.where(vlng - ref > math.pi, vlng - TWO_PI,
                   np.where(ref - vlng > math.pi, vlng + TWO_PI, vlng))
    # Per-cell mean, one (cells, k) block per vertex count k so each row
    # sums exactly as a k-element array does.
    mid = np.empty(cells.shape[0])
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        mid[rows] = seg[off[rows][:, None] + np.arange(k)].mean(axis=1)
    shift = np.round((geom_center_lng - mid) / TWO_PI) * TWO_PI
    return off, vlat, seg + np.repeat(shift, counts)


def _any_per(group: np.ndarray, flags: np.ndarray, n: int) -> np.ndarray:
    """Per-group OR of `flags` over rows labelled by `group` (0..n-1)."""
    return np.bincount(group, weights=flags, minlength=n) > 0


def relate_cells(geom: dict, cells) -> tuple[np.ndarray, np.ndarray]:
    """(intersects, covers) of the geometry vs each cell's boundary polygon.

    Mirrors the PreparedGeometry relate predicate (tiler.rs:546-560):
    intersects = any sharing of points; covers = geometry covers the cell.
    Vectorized over cells: cell edges, and (cell, nearby polygon vertex)
    pairs, are flat rows reduced per cell.
    """
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    intersects = np.zeros(n, dtype=bool)
    covers = np.zeros(n, dtype=bool)
    if n == 0:
        return intersects, covers

    for rings, shifted, bboxes in zip(geom["polys"], geom["shifted"],
                                      geom["bboxes"]):
        center = 0.5 * (bboxes[0][0] + bboxes[0][2])
        off, vlat, vlng = _cell_vertices_in_frame(cells, center)
        # Vertex-in-polygon tests for all cell vertices at once.
        v_in_ext = _ring_contains(vlng, vlat, rings[0], bboxes[0])
        _, v_on = _ring_coord_pos(vlng, vlat, rings[0])
        v_in_hole = np.zeros_like(v_in_ext)
        for hole, hb in zip(rings[1:], bboxes[1:]):
            v_in_hole |= _ring_contains(vlng, vlat, hole, hb)
            _, hon = _ring_coord_pos(vlng, vlat, hole)
            v_on |= hon
        v_in_poly = (v_in_ext & ~v_in_hole) | v_on

        pax = np.concatenate([r[:-1, 0] for r in rings])
        pay = np.concatenate([r[:-1, 1] for r in rings])
        pbx = np.concatenate([r[1:, 0] for r in rings])
        pby = np.concatenate([r[1:, 1] for r in rings])

        counts = np.diff(off)
        owner = np.repeat(np.arange(n), counts)
        x0 = np.minimum.reduceat(vlng, off[:-1])
        x1 = np.maximum.reduceat(vlng, off[:-1])
        y0 = np.minimum.reduceat(vlat, off[:-1])
        y1 = np.maximum.reduceat(vlat, off[:-1])
        bb = bboxes[0]
        active = ~((x1 < bb[0]) | (x0 > bb[2]) | (y1 < bb[1]) | (y0 > bb[3]))
        # Edge i of a cell runs from its vertex i to vertex i+1 (cyclic).
        nxt = np.arange(1, vlng.shape[0] + 1)
        nxt[off[1:] - 1] = off[:-1]

        edges = np.flatnonzero(active[owner])
        inter = np.zeros(n, dtype=bool)
        proper = np.zeros(n, dtype=bool)
        step = max(1, 4_000_000 // max(pax.shape[0], 1))
        for s in range(0, edges.shape[0], step):
            e = edges[s:s + step]
            ie, pe = _segments_relate(vlng[e], vlat[e], vlng[nxt[e]],
                                      vlat[nxt[e]], pax, pay, pbx, pby)
            inter |= _any_per(owner[e], ie, n)
            proper |= _any_per(owner[e], pe, n)

        # Polygon vertex strictly inside / touching the cell: winding
        # number of each nearby (cell, polygon vertex) pair vs the cell ring.
        act = np.flatnonzero(active)
        pair_c, pair_v = [], []
        for s in range(0, act.shape[0], step):
            c = act[s:s + step]
            near = (pax >= x0[c, None] - 1e-9) & (pax <= x1[c, None] + 1e-9) \
                & (pay >= y0[c, None] - 1e-9) & (pay <= y1[c, None] + 1e-9)
            ci, vi = np.nonzero(near)
            pair_c.append(c[ci])
            pair_v.append(vi)
        pair_c = np.concatenate(pair_c) if pair_c else np.empty(0, np.int64)
        pair_v = np.concatenate(pair_v) if pair_v else np.empty(0, np.int64)
        k = counts[pair_c]
        row = np.repeat(np.arange(pair_c.shape[0]), k)
        a = np.repeat(off[pair_c], k) + (
            np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k))
        b = nxt[a]
        on_seg, up, down = _edge_pos(pax[pair_v][row], pay[pair_v][row],
                                     vlng[a], vlat[a], vlng[b], vlat[b])
        npair = pair_c.shape[0]
        wn = np.bincount(row, weights=up, minlength=npair) - \
            np.bincount(row, weights=down, minlength=npair)
        p_on = _any_per(row, on_seg, npair)
        p_in = (wn != 0) & ~p_on
        any_p_in = _any_per(pair_c, p_in, n)
        any_p_touch = any_p_in | _any_per(pair_c, p_on, n)

        n_in = np.bincount(owner, weights=v_in_poly, minlength=n)
        hit = active & ((n_in > 0) | inter | any_p_touch)
        intersects |= hit
        covers |= hit & (n_in == counts) & ~proper & ~any_p_in
    return intersects, covers


# ---------------------------------------------------------------------------
# Outline tracing
# ---------------------------------------------------------------------------

def _ring_samples(ring: np.ndarray, res: int):
    """get_edge_cells sample points (tiler.rs:597-636): every segment
    sampled at pentagon-diameter steps. Returns (lat, lng) in radians."""
    ax, ay = ring[:-1, 0], ring[:-1, 1]
    bx, by = ring[1:, 0], ring[1:, 1]
    dist = haversine_rads(ay, ax, by, bx)
    counts = np.maximum(np.ceil(dist / PENT_DIAMETER_RADS[res]), 1.0)
    counts = counts.astype(np.int64)
    total = int(counts.sum())
    seg = np.repeat(np.arange(ax.shape[0]), counts)
    # Per-sample index within its segment.
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    i = np.arange(total) - starts[seg]
    cnt = counts[seg].astype(np.float64)
    fi = i.astype(np.float64)
    inv = 1.0 / cnt
    lat = ay[seg] * (cnt - fi) * inv + by[seg] * fi * inv
    lng = ax[seg] * (cnt - fi) * inv + bx[seg] * fi * inv
    return lat, lng


def _disk1(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell + immediate neighbors per row (geom/mod.rs:28-52)."""
    return grid.grid_disk_distances(cells, 1)[:2]


def _planar_centroid(geom: dict) -> tuple[float, float]:
    """Area-weighted centroid of the geometry (geo::Centroid semantics),
    for the Covers geometry-within-one-cell case (tiler.rs:227-238)."""
    num_x = num_y = den = 0.0
    for rings, shifted in zip(geom["polys"], geom["shifted"]):
        for ri, ring in enumerate(rings):
            x = ring[:-1, 0]
            y = ring[:-1, 1]
            x2 = ring[1:, 0]
            y2 = ring[1:, 1]
            cross = x * y2 - x2 * y
            a = cross.sum() * 0.5
            if abs(a) < 1e-300:
                continue
            cx = ((x + x2) * cross).sum() / (6.0 * a)
            cy = ((y + y2) * cross).sum() / (6.0 * a)
            sign = 1.0 if ri == 0 else -1.0
            w = sign * abs(a)
            num_x += cx * w
            num_y += cy * w
            den += w
    if den == 0.0:
        ring = geom["polys"][0][0]
        return float(ring[:, 1].mean()), float(ring[:, 0].mean())
    lng = num_x / den
    if lng > math.pi:
        lng -= TWO_PI
    return num_y / den, lng


TILING_MODES = ("centroid", "boundary", "intersects", "covers", "candidates")


def _pack(pid: np.ndarray, cells: np.ndarray, res: int) -> np.ndarray:
    """(polygon_id, res-`res` cell) -> one int64 key: the polygon id sits
    above the 7 + 3·res base-cell and digit bits, so key order is
    (polygon_id, cell) order and a polygon's keys form one contiguous run."""
    width = 7 + 3 * res
    return (pid << width) | ((cells >> (45 - 3 * res)) &
                             ((np.int64(1) << width) - 1))


def _unpack(keys: np.ndarray, res: int):
    """Inverse of `_pack`: (polygon_id, cell)."""
    width = 7 + 3 * res
    tail = 45 - 3 * res
    header = np.int64((1 << 59) | (res << 52) | ((1 << tail) - 1))
    return keys >> width, header | ((keys & ((np.int64(1) << width) - 1))
                                    << tail)


def _disk1_keys(keys: np.ndarray, res: int) -> np.ndarray:
    """Sorted unique keys of every cell within 1 step, same polygon."""
    if keys.size == 0:
        return keys
    pid, cells = _unpack(keys, res)
    row, nbrs = _disk1(cells)
    return np.unique(_pack(pid[row], nbrs, res))


def polygons_to_cells(geoms: list[dict], res: int, mode: str = "centroid",
                      annotated: bool = False):
    """Batched polygonToCells: one flood fill over all geometries at once.

    Mirrors Tiler::into_annotated_coverage (tiler.rs:170-296) per geometry,
    but every step runs on (polygon_id, cell) pairs packed into one int64
    key (`_pack`), so each generation of the fill is one `_disk1` and one
    `np.unique` for all geometries together, and the containment predicate
    runs once per geometry per step. Geometry lists longer than the id
    field holds (2^(56 - 3·res) ids) are tiled in chunks.

    Modes (ContainmentMode, tiler.rs:423-461): "centroid", "boundary"
    (cell fully inside), "intersects", "covers". "candidates" is the
    exact-join candidate superset: the centroid coverage plus the
    1-ring-buffered outline the same fill traces (see `candidate_cells`).

    Returns (polygon_id, cell) int64 arrays sorted by (polygon_id, cell),
    plus the per-cell fully-contained flags when annotated=True.
    """
    if mode not in TILING_MODES:
        # An unknown string would silently take the intersects path.
        raise ValueError(f"unknown containment mode {mode!r}")
    if annotated and mode == "candidates":
        raise ValueError("candidates mode has no fully-contained flags")
    res = int(res)
    step = 1 << (56 - 3 * res)
    pids, cells, fully = [], [], []
    for first in range(0, max(len(geoms), 1), step):
        keys, flags = _flood(geoms[first:first + step], res, mode)
        order = np.argsort(keys)
        pid, cell = _unpack(keys[order], res)
        pids.append(pid + first)
        cells.append(cell)
        fully.append(flags[order])
    pid, cells = np.concatenate(pids), np.concatenate(cells)
    if annotated:
        return pid, cells, np.concatenate(fully)
    return pid, cells


def _flood(geoms: list[dict], res: int, mode: str):
    """Unsorted (keys, fully) coverage of `polygons_to_cells` for geometries
    whose ids fit the key's id field."""
    width = 7 + 3 * res
    tiling = "centroid" if mode == "candidates" else mode

    def predicate(keys: np.ndarray):
        # `keys` is sorted, so each geometry's cells form one contiguous run.
        match = np.zeros(keys.shape[0], dtype=bool)
        fully = np.ones(keys.shape[0], dtype=bool)
        if keys.size == 0:
            return match, fully
        pid, cells = _unpack(keys, res)
        if tiling == "centroid":
            clat, clng = latlng.cell_to_latlng_rads(cells)
        cuts = np.flatnonzero(np.diff(pid)) + 1
        for s, e in zip(np.r_[0, cuts], np.r_[cuts, keys.shape[0]]):
            geom = geoms[pid[s]]
            if tiling == "centroid":
                match[s:e] = contains_points(geom, clat[s:e], clng[s:e])
            else:
                match[s:e], fully[s:e] = relate_cells(geom, cells[s:e])
        return match, fully

    # 1. Outline tracing + 1-ring buffer + predicate (tiler.rs:299-340).
    lat, lng, owner = [], [], []
    for pid, geom in enumerate(geoms):
        for rings in geom["polys"]:
            for ring in rings:
                la, ln = _ring_samples(ring, res)
                lat.append(la)
                lng.append(ln)
                owner.append(np.full(la.shape[0], pid, dtype=np.int64))
    if lat:
        sampled = np.unique(_pack(
            np.concatenate(owner), latlng.latlng_rads_to_cell(
                np.concatenate(lat), np.concatenate(lng), res), res))
    else:
        sampled = np.empty(0, np.int64)
    buffered = _disk1_keys(sampled, res)
    is_match, fully = predicate(buffered)
    outlines = buffered[is_match]
    out_fully = fully[is_match]
    seen = buffered  # all tested candidates, matching or not

    parts = [outlines]
    fparts = [out_fully]
    if tiling == "covers":
        # Geometry within one cell (tiler.rs:227-238): no outline cell
        # matched, so the coverage is the cell holding the centroid.
        lone = np.setdiff1d(np.arange(len(geoms)), outlines >> width)
        if lone.size:
            cent = np.array([_planar_centroid(geoms[p]) for p in lone])
            parts.append(_pack(lone, latlng.latlng_rads_to_cell(
                cent[:, 0], cent[:, 1], res), res))
            fparts.append(np.zeros(lone.size, bool))

    # 2. Outermost inner layer (tiler.rs:569-594).
    nbrs = _disk1_keys(outlines, res)
    fresh = nbrs[~np.isin(nbrs, seen, assume_unique=True)]
    seen = np.union1d(seen, nbrs)
    is_match, fully = predicate(fresh)
    candidates = fresh[is_match]
    cand_fully = fully[is_match]

    if tiling == "boundary":
        parts[0] = outlines[out_fully]
        fparts[0] = out_fully[out_fully]
        candidates = candidates[cand_fully]
        cand_fully = cand_fully[cand_fully]
    parts.append(candidates)
    fparts.append(cand_fully)

    # 3. Inward generational propagation, no PIP needed (tiler.rs:254-295).
    gen = candidates
    while gen.size:
        nbrs = _disk1_keys(gen, res)
        gen = nbrs[~np.isin(nbrs, seen, assume_unique=True)]
        seen = nbrs  # generational swap (tiler.rs:283-290)
        parts.append(gen)
        fparts.append(np.ones(gen.size, bool))

    if mode == "candidates":
        parts.append(buffered)
        keys = np.unique(np.concatenate(parts))
        return keys, np.ones(keys.size, bool)
    return np.concatenate(parts), np.concatenate(fparts)


def polygon_to_cells(geom: dict, res: int, mode: str = "centroid",
                     annotated: bool = False):
    """polygonToCells: covering cell set of one prepared geometry.

    `polygons_to_cells` over a one-geometry list. Returns a sorted int64
    cell array, or (cells, fully_contained) when annotated=True.
    """
    out = polygons_to_cells([geom], res, mode, annotated)
    return out[1:] if annotated else out[1]


def coverage_size_hint(geom: dict, res: int) -> int:
    """maxPolygonToCellsSize (tiler.rs:114-144)."""
    total = 0
    for rings, bboxes in zip(geom["polys"], geom["bboxes"]):
        x0, y0, x1, y1 = bboxes[0]
        diagonal = haversine_rads(y0, x0, y1, x1)
        d1 = abs(x0 - x1)
        d2 = abs(y0 - y1)
        width, length = (d1, d2) if d1 < d2 else (d2, d1)
        if width == 0.0:
            est = 1
        else:
            area = (diagonal * diagonal) / (length / width)
            est = max(int(math.ceil(area / PENT_AREA_RADS2[res])), 1)
        verts = sum(r.shape[0] - 1 for r in rings)
        total += max(est, verts) + 12
    return total


def candidate_cells(geom: dict, res: int) -> np.ndarray:
    """Superset of all cells whose area intersects the geometry, without the
    expensive prepared-relate predicate.

    Union of (a) the traced+1-ring-buffered ring outline cells — every cell
    the ring lines pass through or touch (sampling step = pentagon diameter,
    tiler.rs:597-636) — and (b) the centroid-mode coverage — every interior
    cell (a fully-interior cell contains its own centroid). Used as the
    candidate set for exact point-in-polygon joins: any point inside the
    geometry lies in one of these cells.

    One geometry's `polygons_to_cells(..., "candidates")`: the centroid
    flood fill already traces and buffers the outline, so (a) comes from
    that same pass, and a list of geometries tiles in one batched fill.
    Returns the sorted cells.
    """
    return polygon_to_cells(geom, res, "candidates")


def plot_linestring(coords, res: int, degrees: bool = True):
    """Plotter (src/geom/plotter.rs:26-98): H3 cells along each segment of a
    linestring via latLngToCell on the endpoints + gridPathCells.

    Args:
        coords: (k, 2) array-like of [lng, lat] points (the line's vertices).

    Returns (segment_row, cell, ok_rows): flat expansion; segments whose
    grid path is undefined (endpoints too far apart / across a pentagon)
    emit nothing and are flagged False in ok_rows.
    """
    from . import localij

    pts = np.asarray(coords, dtype=np.float64)
    if degrees:
        pts = np.deg2rad(pts)
    if not np.isfinite(pts).all():
        raise ValueError("every coordinate of the line must be valid")
    starts = latlng.latlng_rads_to_cell(pts[:-1, 1], pts[:-1, 0], res)
    ends = latlng.latlng_rads_to_cell(pts[1:, 1], pts[1:, 0], res)
    return localij.grid_path_cells(starts, ends)
