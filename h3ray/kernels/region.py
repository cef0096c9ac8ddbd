"""Polygon-to-cells tiling (polygonToCells) and point-in-polygon predicates.

A top-down hierarchical tiler in NumPy whose cost follows the coverage's
compacted size, i.e. the polygon's perimeter, not its area (the shape of
H3 v4.2's polygonToCellsExperimental). Per batch of geometries:

1. Outline cells B, as the reference tiler traces them (src/geom/
   tiler.rs:299-340): every ring sampled at pentagon-diameter steps, the
   sampled cells buffered by one ring, and the containment predicate run
   on B alone.
2. A descent from the 122 base cells. A res-r cell whose descendants
   cannot reach a ring, by the committed bound
   `measures.CELL_REACH_RADS[r]`, is wholly inside (kept whole) or wholly
   outside (dropped), decided by its centre; the others split into their
   children. At the target res, a cell outside B meets no ring either, so
   its centroid decides it in every mode.
3. The union, compacted per geometry.

Every step runs on (polygon_id, cell) pairs packed into one int64 key, and
the inside/outside and straddle tests run over one flattened edge table of
all the geometries' rings, so each level of the descent is one whole-batch
step. `contains_points` and `relate_cells` are the one-geometry case of
the same edge table and winding predicate. `polygons_to_compact_cells`
returns the compacted coverage, the tiler's native output;
`polygons_to_cells` returns it uncompacted, and `polygon_to_cells` is its
one-geometry case.

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

from . import bits, grid, hierarchy, latlng
from .boundary import _cell_to_boundary_rads
from .measures import CELL_REACH_RADS

TWO_PI = 2.0 * math.pi

# (row x segment) pairs evaluated per step, bounding the pair arrays.
_PAIRS_PER_STEP = 1_000_000

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


def contains_points(geom: dict, lat, lng, degrees: bool = False):
    """Vectorized ContainsCentroid predicate over (lat, lng) points: the
    one-geometry case of `_contains`.

    Point is contained when inside some polygon's exterior and none of that
    polygon's holes (tiler.rs:524-545).
    """
    lat = np.asarray(lat, dtype=np.float64)
    lng = np.asarray(lng, dtype=np.float64)
    if degrees:
        lat = np.deg2rad(lat)
        lng = np.deg2rad(lng)
    edges = _edge_table([geom])
    # Only a point in some polygon's bbox can be inside it.
    near = np.zeros(lat.shape[0], dtype=bool)
    for (x0, y0, x1, y1), shifted in zip(edges["p_bbox"], edges["p_shift"]):
        x = _shift_lng(lng, shifted)
        near |= (x >= x0) & (x <= x1) & (lat >= y0) & (lat <= y1)
    near = np.flatnonzero(near)
    out = np.zeros(lat.shape[0], dtype=bool)
    out[near] = _contains(edges, np.zeros(near.shape[0], np.int64),
                          lat[near], lng[near])
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
    off, vlat, vlng = _cell_to_boundary_rads(cells)
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
    out = np.zeros(n, dtype=bool)
    out[group[flags]] = True
    return out


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

    edges = _edge_table([geom])
    p_ring, r_seg = edges["p_ring"], edges["r_seg"]
    for p in range(p_ring.shape[0] - 1):
        bb = edges["r_bbox"][p_ring[p]]
        off, vlat, vlng = _cell_vertices_in_frame(cells,
                                                  0.5 * (bb[0] + bb[2]))
        # Every cell vertex against every ring of the polygon at once: in
        # the exterior and no hole, or on some ring.
        nv = vlng.shape[0]
        nr = p_ring[p + 1] - p_ring[p]
        vi, ring = np.divmod(np.arange(nv * nr), nr)
        ring += p_ring[p]
        hit, on = _ring_contains(edges, ring, vlng[vi], vlat[vi])
        hole = edges["r_hole"][ring]
        v_in_poly = (_any_per(vi, hit & ~hole, nv) &
                     ~_any_per(vi, hit & hole, nv)) | _any_per(vi, on, nv)

        seg = slice(r_seg[p_ring[p]], r_seg[p_ring[p + 1]])
        pax, pay = edges["ax"][seg], edges["ay"][seg]
        pbx, pby = edges["bx"][seg], edges["by"][seg]

        counts = np.diff(off)
        owner = np.repeat(np.arange(n), counts)
        x0 = np.minimum.reduceat(vlng, off[:-1])
        x1 = np.maximum.reduceat(vlng, off[:-1])
        y0 = np.minimum.reduceat(vlat, off[:-1])
        y1 = np.maximum.reduceat(vlat, off[:-1])
        active = ~((x1 < bb[0]) | (x0 > bb[2]) | (y1 < bb[1]) | (y0 > bb[3]))
        # Edge i of a cell runs from its vertex i to vertex i+1 (cyclic).
        nxt = np.arange(1, vlng.shape[0] + 1)
        nxt[off[1:] - 1] = off[:-1]

        live = np.flatnonzero(active[owner])
        inter = np.zeros(n, dtype=bool)
        proper = np.zeros(n, dtype=bool)
        step = max(1, _PAIRS_PER_STEP // max(pax.shape[0], 1))
        for s in range(0, live.shape[0], step):
            e = live[s:s + step]
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
    (polygon_id, cell) order, a polygon's keys form one contiguous run, and
    a key's parent key (same polygon, res - 1) is the key >> 3."""
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


def _ragged(starts: np.ndarray, counts: np.ndarray):
    """(owner, index): index runs starts[i] .. starts[i] + counts[i] - 1,
    owner is i, for every i in order."""
    if (counts == 1).all():
        return np.arange(counts.shape[0]), starts
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    base = np.cumsum(counts) - counts
    return owner, np.arange(owner.shape[0]) - base[owner] + starts[owner]


# ---------------------------------------------------------------------------
# Whole-batch predicates: every ring of every geometry in one edge table
# ---------------------------------------------------------------------------

def _edge_table(geoms: list[dict]) -> dict:
    """Every ring of every geometry, flattened: per geometry its polygon
    range, per polygon its frame (shifted or not), bbox and ring range,
    per ring its bbox, hole flag and segment range, and the segments."""
    g_poly, p_shift, p_ring, r_hole, r_bbox, rings = [0], [], [0], [], [], []
    for geom in geoms:
        for poly, shifted, bboxes in zip(geom["polys"], geom["shifted"],
                                         geom["bboxes"]):
            p_shift.append(shifted)
            rings.extend(poly)
            r_bbox.extend(bboxes)
            r_hole.extend([False] + [True] * (len(poly) - 1))
            p_ring.append(len(rings))
        g_poly.append(len(p_shift))
    r_seg = np.cumsum([0] + [r.shape[0] - 1 for r in rings])
    p_ring = np.asarray(p_ring, dtype=np.int64)
    bb = np.asarray(r_bbox, dtype=np.float64).reshape(-1, 4)
    a = np.concatenate([r[:-1] for r in rings] or [np.empty((0, 2))])
    b = np.concatenate([r[1:] for r in rings] or [np.empty((0, 2))])
    # A polygon's bbox spans all its rings, holes included.
    p_bbox = np.empty((p_ring.shape[0] - 1, 4))
    if rings:
        p_bbox[:, :2] = np.minimum.reduceat(bb[:, :2], p_ring[:-1])
        p_bbox[:, 2:] = np.maximum.reduceat(bb[:, 2:], p_ring[:-1])
    return {"g_poly": np.asarray(g_poly, dtype=np.int64),
            "p_shift": np.asarray(p_shift, dtype=bool), "p_bbox": p_bbox,
            "p_ring": p_ring, "r_seg": r_seg, "r_bbox": bb,
            "r_hole": np.asarray(r_hole, dtype=bool),
            "ax": a[:, 0], "ay": a[:, 1], "bx": b[:, 0], "by": b[:, 1]}


def _polygon_pairs(edges: dict, gid: np.ndarray, lng: np.ndarray):
    """(row, polygon, x): one pair per row and polygon of the row's
    geometry, x being the row's longitude in that polygon's frame."""
    g = edges["g_poly"]
    row, poly = _ragged(g[gid], g[gid + 1] - g[gid])
    x = lng[row]
    return row, poly, np.where(edges["p_shift"][poly] & (x < 0),
                               x + TWO_PI, x)


def _steps(weight: np.ndarray):
    """Row ranges [s, e) whose summed `weight` stays near
    `_PAIRS_PER_STEP`, covering all rows."""
    cum = np.cumsum(weight)
    cuts = np.searchsorted(cum, np.arange(_PAIRS_PER_STEP, cum[-1] if
                                          cum.size else 0, _PAIRS_PER_STEP))
    bounds = np.unique(np.r_[0, cuts, weight.shape[0]])
    return zip(bounds[:-1], bounds[1:])


def _rings_contain(edges: dict, ring: np.ndarray, x: np.ndarray,
                   y: np.ndarray):
    """Winding-number position of points vs rings, one (point, ring) pair
    per row: (inside, on_boundary). Mirrors geo's
    coord_pos_relative_to_ring used by ring_contains_centroid
    (tiler.rs:881-908): nonzero winding rule + exact on-segment detection.

    Rows run in (rows, segments) blocks of one segment count each, at most
    `_PAIRS_PER_STEP` pairs a block; a block whose rows share one ring
    broadcasts that ring's segments instead of gathering them per row."""
    first = edges["r_seg"][ring]
    count = edges["r_seg"][ring + 1] - first
    inside = np.zeros(ring.shape[0], dtype=bool)
    on = np.zeros(ring.shape[0], dtype=bool)
    for m in np.unique(count):
        rows = np.flatnonzero(count == m)
        step = max(1, _PAIRS_PER_STEP // m)
        for s in range(0, rows.shape[0], step):
            q = rows[s:s + step]
            if (first[q] == first[q[0]]).all():
                k = first[q[0]] + np.arange(m)
            else:
                k = first[q, None] + np.arange(m)
            on_seg, up, down = _edge_pos(
                x[q, None], y[q, None], edges["ax"][k], edges["ay"][k],
                edges["bx"][k], edges["by"][k])
            on[q] = on_seg.any(axis=1)
            inside[q] = (up.sum(axis=1) != down.sum(axis=1)) & ~on[q]
    return inside, on


def _ring_contains(edges: dict, ring: np.ndarray, x: np.ndarray,
                   y: np.ndarray):
    """ring_contains_centroid (tiler.rs:881-908) for (point, ring) pairs:
    bbox prefilter, winding test, northward nudge when exactly on the
    boundary. Returns (contained, on_boundary), the latter before the
    nudge."""
    bb = edges["r_bbox"]
    cand = np.flatnonzero((x >= bb[ring, 0]) & (x <= bb[ring, 2]) &
                          (y >= bb[ring, 1]) & (y <= bb[ring, 3]))
    inside, on = _rings_contain(edges, ring[cand], x[cand], y[cand])
    hit = np.zeros(ring.shape[0], dtype=bool)
    at = np.zeros(ring.shape[0], dtype=bool)
    hit[cand] = inside
    at[cand] = on
    if on.any():
        c = cand[on]
        nudged, non = _rings_contain(edges, ring[c], x[c],
                                     y[c] + np.finfo(np.float64).eps)
        hit[c] = nudged & ~non
    return hit, at


def _contains(edges: dict, gid: np.ndarray, lat: np.ndarray,
              lng: np.ndarray) -> np.ndarray:
    """`contains_points` for points that each name their own geometry
    (`gid` indexes the geometries of `edges`), in one pass over the
    (point, ring) pairs of every polygon of the point's geometry: inside
    some polygon's exterior and none of its holes."""
    n = gid.shape[0]
    prow, poly, px = _polygon_pairs(edges, gid, lng)
    pair, ring = _ragged(edges["p_ring"][poly], np.diff(edges["p_ring"])[poly])
    hit, _ = _ring_contains(edges, ring, px[pair], lat[prow[pair]])
    hole = edges["r_hole"][ring]
    in_poly = _any_per(pair, hit & ~hole, poly.shape[0]) & \
        ~_any_per(pair, hit & hole, poly.shape[0])
    return _any_per(prow, in_poly, n)


def _segments_meet_boxes(ax, ay, bx, by, x0, y0, x1, y1):
    """Whether each segment a->b meets its axis-aligned box: their bboxes
    overlap and the box corners are not all strictly on one side of the
    segment's line."""
    dx = bx - ax
    dy = by - ay
    c = [dx * (y - ay) - dy * (x - ax)
         for x, y in ((x0, y0), (x0, y1), (x1, y0), (x1, y1))]
    return (np.maximum(ax, bx) >= x0) & (np.minimum(ax, bx) <= x1) & \
        (np.maximum(ay, by) >= y0) & (np.minimum(ay, by) <= y1) & \
        (np.minimum.reduce(c) <= 0.0) & (np.maximum.reduce(c) >= 0.0)


def _meets_ring(edges: dict, gid: np.ndarray, lat: np.ndarray,
                lng: np.ndarray, reach: float) -> np.ndarray:
    """Whether the disk of great-circle radius `reach` around each point may
    meet a ring of its geometry. A disk that meets no ring lies wholly
    inside or wholly outside the geometry.

    Per polygon of the geometry, the test runs on the lat/lng box, in the
    polygon's frame, that holds the disk (every longitude when the disk
    holds a pole): the disk may meet a ring when the box meets one of the
    polygon's segments, or crosses the frame's seam while one of its
    wrapped halves overlaps the polygon's bbox."""
    row, poly, x = _polygon_pairs(edges, gid, lng)
    y = lat[row]
    cap = np.abs(y) + reach < 0.5 * math.pi
    ratio = np.sin(reach) / np.where(cap, np.cos(y), 1.0)
    half = np.where(cap, np.arcsin(np.minimum(ratio, 1.0)), math.pi)
    x0, y0, x1, y1 = x - half, y - reach, x + half, y + reach
    lo = np.where(edges["p_shift"][poly], 0.0, -math.pi)
    seam = (x0 < lo) | (x1 > lo + TWO_PI)
    bb = edges["p_bbox"][poly]

    def overlap(shift):
        return (x1 + shift >= bb[:, 0]) & (x0 + shift <= bb[:, 2]) & \
            (y1 >= bb[:, 1]) & (y0 <= bb[:, 3])

    near = seam & (overlap(0.0) | overlap(TWO_PI) | overlap(-TWO_PI))
    test = np.flatnonzero(~seam & overlap(0.0))
    first = edges["r_seg"][edges["p_ring"][poly[test]]]
    count = edges["r_seg"][edges["p_ring"][poly[test] + 1]] - first
    for a, b in _steps(count):
        r, k = _ragged(first[a:b], count[a:b])
        t = test[a:b][r]
        near[test[a:b]] = _any_per(r, _segments_meet_boxes(
            edges["ax"][k], edges["ay"][k], edges["bx"][k], edges["by"][k],
            x0[t], y0[t], x1[t], y1[t]), b - a)
    return _any_per(row, near, gid.shape[0])


# ---------------------------------------------------------------------------
# Top-down tiling
# ---------------------------------------------------------------------------

# A res-0 cell with base cell 0: mode 1, res 0, every digit unused.
_BASE_HEADER = np.int64((1 << 59) | ((1 << 45) - 1))


def _compact_keys(levels: dict, res: int) -> dict:
    """Bottom-up compaction of non-overlapping (geometry, cell) keys given
    per res: wherever all 7 children of a cell (6 of a pentagon) are
    present for one geometry, the parent replaces them."""
    out = {}
    carry = np.empty(0, dtype=np.int64)
    for r in range(res, -1, -1):
        cur = np.sort(np.concatenate([levels.get(r, carry[:0]), carry]))
        if r == 0 or cur.size == 0:
            out[r], carry = cur, cur[:0]
            continue
        parent, counts = np.unique(cur >> 3, return_counts=True)
        full = counts == 7
        six = np.flatnonzero(counts == 6)
        full[six] = bits.is_pentagon(_unpack(parent[six], r - 1)[1])
        out[r] = cur[~np.repeat(full, counts)]
        carry = parent[full]
    return out


def _tile(geoms: list[dict], res: int, mode: str) -> dict:
    """Compacted coverage of geometries whose ids fit the key's id field,
    as {res: sorted (geometry, cell) keys}.

    1. Outline cells B (tiler.rs:299-340): every ring sampled at
       pentagon-diameter steps, buffered by one ring, and the mode's
       predicate run on B.
    2. Descent from the base cells: each res-r cell whose
       `CELL_REACH_RADS[r]` disk meets no ring is wholly inside (kept
       whole) or wholly outside (dropped), decided by its centre; the rest
       split into their children. At the target res a cell outside B
       meets no ring either, so its centroid decides it in every mode.
    3. The union, less the outline cells an inside cell already holds,
       compacted.
    """
    edges = _edge_table(geoms)
    width = 7 + 3 * res

    # 1. Outline tracing + 1-ring buffer + predicate.
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
    pid, cells = _unpack(buffered, res)
    if mode == "candidates":
        match = np.ones(buffered.shape[0], dtype=bool)
    elif mode == "centroid":
        match = _contains(edges, pid, *latlng._cell_to_latlng_rads(cells))
    else:
        # `buffered` is sorted: each geometry's cells are one run.
        match = np.zeros(buffered.shape[0], dtype=bool)
        starts = np.flatnonzero(np.diff(pid, prepend=-1))
        for s, e in zip(starts, np.r_[starts[1:], pid.shape[0]]):
            hit, fully = relate_cells(geoms[pid[s]], cells[s:e])
            match[s:e] = fully if mode == "boundary" else hit
    parts = [buffered[match]]
    if mode == "covers":
        # Geometry within one cell (tiler.rs:227-238): no outline cell
        # intersects, so the coverage is the cell holding the centroid.
        lone = np.setdiff1d(np.flatnonzero(np.diff(edges["g_poly"])),
                            parts[0] >> width)
        if lone.size:
            cent = np.array([_planar_centroid(geoms[p]) for p in lone])
            parts.append(_pack(lone, latlng.latlng_rads_to_cell(
                cent[:, 0], cent[:, 1], res), res))

    # 2. Descent from the 122 base cells of every geometry with a polygon.
    has = np.flatnonzero(np.diff(edges["g_poly"]))
    keys = _pack(np.repeat(has, 122), np.tile(np.arange(122, dtype=np.int64)
                                              << 45 | _BASE_HEADER, has.size),
                 0)
    inside: dict = {}
    for r in range(res):
        gid, cells = _unpack(keys, r)
        lat, lng = latlng._cell_to_latlng_rads(cells)
        near = _meets_ring(edges, gid, lat, lng, CELL_REACH_RADS[r])
        far = np.flatnonzero(~near)
        inside[r] = keys[far[_contains(edges, gid[far], lat[far], lng[far])]]
        split = np.flatnonzero(near)
        row, kids = hierarchy.cell_to_children(cells[split], r + 1)
        keys = _pack(gid[split][row], kids, r + 1)
    keys = keys[~np.isin(keys, buffered)]
    gid, cells = _unpack(keys, res)
    parts.append(keys[_contains(edges, gid,
                                *latlng._cell_to_latlng_rads(cells))])

    # 3. Union, minus outline cells under an inside cell, compacted.
    flat = np.unique(np.concatenate(parts))
    for r, k in inside.items():
        flat = flat[~np.isin(flat >> 3 * (res - r), k)]
    inside[res] = flat
    return _compact_keys(inside, res)


def _chunks(geoms: list[dict], res: int, mode: str):
    """(first polygon id, `_tile` output) per chunk of geometries whose ids
    fit the key's id field (2^(56 - 3·res) ids)."""
    if mode not in TILING_MODES:
        # An unknown string would silently take the intersects path.
        raise ValueError(f"unknown containment mode {mode!r}")
    res = int(res)
    step = 1 << (56 - 3 * res)
    for first in range(0, max(len(geoms), 1), step):
        yield first, _tile(geoms[first:first + step], res, mode)


def polygons_to_compact_cells(geoms: list[dict], res: int,
                              mode: str = "centroid"):
    """Batched polygonToCells, compacted: each geometry's coverage as its
    minimal multi-res cell set, exactly `hierarchy.compact` of what
    `polygons_to_cells` returns for it. This is the tiler's native output,
    so it costs what the compacted set holds, not the polygon's area.

    Returns (polygon_id, cell) int64 arrays sorted by (polygon_id, cell).
    """
    pids, cells = [], []
    for first, levels in _chunks(geoms, res, mode):
        for r, keys in levels.items():
            pid, cell = _unpack(keys, r)
            pids.append(pid + first)
            cells.append(cell)
    pid = np.concatenate(pids)
    cell = np.concatenate(cells)
    order = np.lexsort((cell, pid))
    return pid[order], cell[order]


def polygons_to_cells(geoms: list[dict], res: int, mode: str = "centroid"):
    """Batched polygonToCells over a list of geometries: the uncompacted
    `polygons_to_compact_cells` at `res`.

    Modes (ContainmentMode, tiler.rs:423-461): "centroid", "boundary"
    (cell fully inside), "intersects", "covers". "candidates" is the
    exact-join candidate superset: the centroid coverage plus the
    1-ring-buffered outline (see `candidate_cells`).

    Returns (polygon_id, cell) int64 arrays sorted by (polygon_id, cell).
    """
    pids, cells = [], []
    res = int(res)
    for first, levels in _chunks(geoms, res, mode):
        parts = [levels.pop(res)]
        for r, keys in levels.items():
            gid, cell = _unpack(keys, r)
            row, kids = hierarchy.cell_to_children(cell, res)
            parts.append(_pack(gid[row], kids, res))
        pid, cell = _unpack(np.sort(np.concatenate(parts)), res)
        pids.append(pid + first)
        cells.append(cell)
    return np.concatenate(pids), np.concatenate(cells)


def polygon_to_cells(geom: dict, res: int, mode: str = "centroid"):
    """polygonToCells: the sorted int64 covering cell set of one prepared
    geometry (`polygons_to_cells` over a one-geometry list)."""
    return polygons_to_cells([geom], res, mode)[1]


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

    One geometry's `polygons_to_cells(..., "candidates")`: the tiler
    already traces and buffers the outline, so (a) comes from that same
    pass, and a list of geometries tiles in one batched pass.
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
