"""cellsToLinkedMultiPolygon: dissolve a cell set into outline polygons.

From-scratch port of the reference Solvent semantics
(src/geom/solvent/arc_set.rs): collect every cell's directed edges in CCW
order as circular linked arcs, cancel opposite pairs while stitching the
survivors together, union-find the connected components, walk the remaining
linked rings, and sort rings by (component, signed Cagnoli area) so each
polygon's outer ring comes first (smallest signed area), then polygons by
descending exterior area. Empty boundary (full sphere) yields the 8-triangle
world polygon (arc_set.rs:493-530).

Heterogeneous (multi-res) input is supported by uncompacting to the target
resolution first — same output, the reference's Gosper-outline fast path is
a performance optimization we replace with distribution (SURVEY.md §2.4).
"""

from __future__ import annotations

import math

import numpy as np

from . import bits, edgevertex as ev, hierarchy


def linear_ring_area(lng: np.ndarray, lat: np.ndarray) -> float:
    """Signed-normalized spherical ring area (math/area.rs:33-78), radians."""
    if lng.shape[0] == 0:
        return 0.0
    lat_t = lat * 0.5 + math.pi * 0.25
    sin_t = np.sin(lat_t)
    cos_t = np.cos(lat_t)
    nx = np.roll(lng, -1)
    sa = sin_t * np.roll(sin_t, -1)
    ca = cos_t * np.roll(cos_t, -1)
    delta = nx - lng
    terms = -2.0 * np.arctan2(sa * np.sin(delta), sa * np.cos(delta) + ca)
    total = math.fsum(terms)
    return total + 4.0 * math.pi if total < 0.0 else total


def _world_polygon():
    """8 triangular polygons covering the sphere (arc_set.rs:497-530)."""
    q = math.pi / 2
    tris = [
        [(0.0, q), (0.0, 0.0), (q, 0.0)],
        [(0.0, q), (q, 0.0), (math.pi, 0.0)],
        [(0.0, q), (math.pi, 0.0), (-q, 0.0)],
        [(0.0, q), (-q, 0.0), (0.0, 0.0)],
        [(0.0, -q), (0.0, 0.0), (-q, 0.0)],
        [(0.0, -q), (-q, 0.0), (-math.pi, 0.0)],
        [(0.0, -q), (-math.pi, 0.0), (q, 0.0)],
        [(0.0, -q), (q, 0.0), (-0.0, 0.0)],
    ]
    out = []
    for tri in tris:
        ring = np.rad2deg(np.array(tri + [tri[0]], dtype=np.float64))
        out.append([ring])
    return out


def dissolve(cells, resolution: int | None = None):
    """Dissolve a set of cells into a multipolygon outline.

    Args:
        cells: unique cell array; homogeneous resolution unless `resolution`
            is given (then ancestors are uncompacted to it).

    Returns:
        list of polygons; each polygon a list of rings; each ring an (k, 2)
        float64 array of [lng, lat] in DEGREES, closed (first == last),
        exterior ring first — directly consumable by
        region.prepare_geometry().
    """
    cells = bits.as_i64(np.asarray(cells))
    u = np.unique(cells)
    if u.shape[0] != cells.shape[0]:
        raise ValueError("duplicate input cells")
    if cells.size == 0:
        return []
    res = bits.get_resolution(cells)
    if resolution is not None:
        if (res > resolution).any():
            raise ValueError("cell finer than target resolution")
        # Large expansions take the O(perimeter) compacted path instead of
        # uncompacting 7^dres children (equality tested both ways).
        est = int(bits.children_count(u, resolution).sum())
        if est > 100_000 and est > 20 * u.shape[0]:
            return dissolve_compact(np.sort(u), resolution)
        row, cells = hierarchy.cell_to_children(np.sort(u), resolution)
        cell_ids = row  # component seed: one id per input cell
    else:
        if (res != res[0]).any():
            raise ValueError("heterogeneous resolutions (pass resolution=)")
        cells = np.sort(u)
        cell_ids = np.arange(cells.shape[0])

    # All directed edges, CCW per cell (cell.rs:889-895 order).
    erow, edges = ev.origin_to_directed_edges(cells)
    rev = ev.edge_reverse(edges)

    n = edges.shape[0]
    nxt = np.empty(n, dtype=np.int64)
    prv = np.empty(n, dtype=np.int64)
    # Circular links within each cell's edge block (erow is sorted).
    starts = np.searchsorted(erow, np.arange(cells.shape[0]))
    counts = np.diff(np.append(starts, n))
    pos = np.arange(n) - starts[erow]
    nxt = starts[erow] + (pos + 1) % counts[erow]
    prv = starts[erow] + (pos - 1) % counts[erow]

    # Cancel opposite pairs: edge i is internal iff its reverse exists.
    order = np.argsort(edges)
    sorted_edges = edges[order]
    loc = np.searchsorted(sorted_edges, rev)
    loc = np.minimum(loc, n - 1)
    has_rev = sorted_edges[loc] == rev
    rev_idx = order[loc]

    # Union-find over cells connected by shared edges.
    parent = np.arange(cells.shape[0])

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Stitch: process each internal pair once (arc_set.rs:281-318).
    removed = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(has_rev):
        j = rev_idx[i]
        if removed[i] or removed[j]:
            continue
        pi, ni = prv[i], nxt[i]
        pj, nj = prv[j], nxt[j]
        nxt[pi] = nj
        prv[nj] = pi
        nxt[pj] = ni
        prv[ni] = pj
        removed[i] = removed[j] = True
        ra, rb = find(erow[i]), find(erow[j])
        if ra != rb:
            parent[ra] = rb

    # Walk surviving rings.
    rings = []
    visited = np.zeros(n, dtype=bool)
    off, blat, blng = ev.edge_boundary_rads(edges[~removed]) if \
        (~removed).any() else (np.array([0]), np.empty(0), np.empty(0))
    surv_pos = np.full(n, -1, dtype=np.int64)
    surv_pos[~removed] = np.arange(int((~removed).sum()))
    for start in np.flatnonzero(~removed):
        if visited[start]:
            continue
        comp = find(erow[start])
        lats: list[np.ndarray] = []
        lngs: list[np.ndarray] = []
        cur = start
        while True:
            visited[cur] = True
            p = surv_pos[cur]
            s, e = off[p], off[p + 1]
            # Drop the last boundary vertex (shared with the next arc).
            lats.append(blat[s:e - 1])
            lngs.append(blng[s:e - 1])
            cur = nxt[cur]
            if cur == start:
                break
        rlat = np.concatenate(lats)
        rlng = np.concatenate(lngs)
        area = linear_ring_area(rlng, rlat)
        rings.append((comp, area, rlng, rlat))

    if not rings:
        # Full-sphere coverage: no boundary edges survive.
        return _world_polygon() if cells.size else []

    rings.sort(key=lambda r: (r[0], r[1]))

    # Group rings into polygons: first ring per component = outer.
    polygons = []
    cur_comp = None
    cur_poly = None
    for comp, _area, rlng, rlat in rings:
        ring = np.stack([np.rad2deg(np.append(rlng, rlng[0])),
                         np.rad2deg(np.append(rlat, rlat[0]))], axis=1)
        if comp != cur_comp:
            if cur_poly is not None:
                polygons.append(cur_poly)
            cur_poly = [ring]
            cur_comp = comp
        else:
            cur_poly.append(ring)
    polygons.append(cur_poly)

    # Sort polygons by descending exterior area (arc_set.rs:482-486).
    def ext_area(poly):
        r = np.deg2rad(poly[0])
        return linear_ring_area(r[:-1, 0], r[:-1, 1])

    polygons.sort(key=lambda p: -ext_area(p))
    return polygons


def linear_ring_area_signed(lng: np.ndarray, lat: np.ndarray) -> float:
    """Raw signed Cagnoli sum (CCW positive), no [0, 4pi] normalization."""
    if lng.shape[0] == 0:
        return 0.0
    lat_t = lat * 0.5 + math.pi * 0.25
    sin_t = np.sin(lat_t)
    cos_t = np.cos(lat_t)
    sa = sin_t * np.roll(sin_t, -1)
    ca = cos_t * np.roll(cos_t, -1)
    delta = np.roll(lng, -1) - lng
    terms = -2.0 * np.arctan2(sa * np.sin(delta), sa * np.cos(delta) + ca)
    return math.fsum(terms)


def dissolve_boundary_edges(edges):
    """Stitch a globally-cancelled boundary-edge set into polygons.

    Input: directed edges whose reverse is NOT in the set (true cell-set
    boundary). Ring successor of edge e: walk the origin cell's CCW edge
    cycle from e; a cancelled slot hops to its twin's cell and continues —
    the transitive closure of the reference's linked-arc stitching
    (arc_set.rs:281-318) computed on demand, needing only the edge set.

    Returns the same polygon structure as `dissolve`. Holes (negative signed
    area) attach to the smallest enclosing outer ring by point-in-ring test
    — equivalent to the union-find components for valid cell sets.
    """
    edges = bits.as_i64(np.asarray(edges))
    if edges.size == 0:
        return []
    alive = set(edges.tolist())

    # Precompute boundary vertices for every alive edge.
    off, blat, blng = ev.edge_boundary_rads(edges)
    pos = {int(e): i for i, e in enumerate(edges)}

    order_hex = ev.HEXAGON_EDGE_ORDER.tolist()
    order_pent = ev.PENTAGON_EDGE_ORDER.tolist()
    next_hex = {order_hex[i]: order_hex[(i + 1) % 6] for i in range(6)}
    next_pent = {order_pent[i]: order_pent[(i + 1) % 5] for i in range(5)}

    edge_mask = np.int64(0x7) << np.int64(56)

    def make_edge(cell_bits: int, k: int) -> int:
        return (cell_bits & ~edge_mask) | (k << 56)

    def next_in_ring(e: int) -> int:
        c = int(ev.edge_origin(np.array([e], dtype=np.int64))[0])
        k = (e >> 56) & 0x7
        while True:
            nxt = next_pent if bits.is_pentagon(
                np.array([c], dtype=np.int64))[0] else next_hex
            k = nxt[k]
            cand = make_edge(int(ev._set_mode(
                np.array([c], dtype=np.int64), 2)[0]), k)
            if cand in alive:
                return cand
            # Cancelled slot: hop through the twin cell.
            t = int(ev.edge_reverse(np.array([cand], dtype=np.int64))[0])
            c = int(ev.edge_origin(np.array([t], dtype=np.int64))[0])
            k = (t >> 56) & 0x7

    visited = set()
    rings = []
    for start in edges.tolist():
        if start in visited:
            continue
        lats, lngs = [], []
        cur = start
        while True:
            visited.add(cur)
            p = pos[cur]
            s, e2 = off[p], off[p + 1]
            lats.append(blat[s:e2 - 1])
            lngs.append(blng[s:e2 - 1])
            cur = next_in_ring(cur)
            if cur == start:
                break
        rlat = np.concatenate(lats)
        rlng = np.concatenate(lngs)
        rings.append((linear_ring_area_signed(rlng, rlat), rlng, rlat))

    # Split outer rings (signed area >= 0, CCW) from holes.
    outers = []
    holes = []
    for area, rlng, rlat in rings:
        ring = np.stack([np.rad2deg(np.append(rlng, rlng[0])),
                         np.rad2deg(np.append(rlat, rlat[0]))], axis=1)
        if area >= 0:
            outers.append((area, ring, np.deg2rad(ring)))
        else:
            holes.append((area + 4.0 * math.pi, ring, rlng[0], rlat[0]))

    outers.sort(key=lambda o: -o[0])
    from . import region as _region

    polys = [[ring] for _, ring, _ in outers]
    for _harea, hring, hx, hy in sorted(holes, key=lambda h: h[0]):
        # Smallest enclosing outer ring (scan ascending area).
        target = None
        for idx in range(len(outers) - 1, -1, -1):
            outer = _region.prepare_geometry(
                [[outers[idx][2]]], degrees=False,
                transmeridian_heuristic=False)
            if _region.contains_points(outer, [hy], [hx])[0]:
                target = idx
                break
        if target is None:
            target = 0
        polys[target].append(hring)
    return polys


def cell_to_multipolygon(cell: int):
    """MultiPolygon::from(CellIndex) (cell.rs:2026-2034): the cell's own
    outline as a one-polygon geometry (degrees, closed ring)."""
    return dissolve(np.array([cell], dtype=np.int64))


def outline_edges(cell: int, res: int) -> np.ndarray:
    """Directed boundary edges of `cell`'s children set at `res`, in
    O(perimeter) — the complexity of the reference's Gosper-island outline
    (src/geom/solvent/gosper.rs) without the fractal-curve tables.

    Level-by-level expansion keeping only boundary children: by aperture-7
    locality a child's neighbors are children of its parent's 1-disk, so a
    cell whose entire 1-disk lies inside the ancestor can never produce
    boundary descendants and is pruned with its whole subtree. At the final
    level, emit edges whose destination has a different res-r ancestor.
    """
    from . import grid

    c = np.array([cell], dtype=np.int64)
    r = int(bits.get_resolution(c)[0])
    if res < r:
        raise ValueError("target resolution coarser than the cell")
    frontier = c
    for level in range(r, res):
        _, kids = hierarchy.cell_to_children(frontier, level + 1)
        row, nbrs, _ = grid.grid_disk_distances(kids, 1)
        anc = bits.cell_to_parent(nbrs, r)
        outside = anc != cell
        has_outside = np.zeros(kids.shape[0], dtype=bool)
        np.logical_or.at(has_outside, row, outside)
        frontier = kids[has_outside]
        if frontier.size == 0:
            # Fully interior at this level (single cell at res==r edge case
            # cannot happen: its own children always touch the boundary).
            break
    if res == r:
        frontier = c
    # Emit boundary-crossing directed edges from the final boundary cells.
    _, edges = ev.origin_to_directed_edges(frontier)
    dest = ev.edge_destination(edges)
    outside = bits.cell_to_parent(dest, r) != cell
    return edges[outside]


def dissolve_compact(cells, resolution: int):
    """Dissolve a compacted (multi-res, non-overlapping) cell set at
    `resolution` in O(total perimeter) — no uncompact blow-up.

    Per input cell: boundary edges of its children set via `outline_edges`;
    edges between adjacent input cells then cancel as opposite pairs and
    the survivors stitch via dissolve_boundary_edges. Matches
    dissolve(cells, resolution=...) exactly (same boundary, same rings).
    """
    from . import grid

    cells = bits.as_i64(np.asarray(cells))
    u = np.unique(cells)
    if u.shape[0] != cells.shape[0]:
        raise ValueError("duplicate input cells")
    if cells.size == 0:
        return []
    res_in = bits.get_resolution(u)
    if (res_in > resolution).any():
        raise ValueError("cell finer than target resolution")

    # Batched per-res outline expansion: frontiers of every input cell of a
    # given res advance together; `src` tracks each frontier cell's input
    # ancestor for the inside/outside test.
    parts = []
    for r in np.unique(res_in):
        roots = u[res_in == r]
        frontier = roots
        src = roots
        for level in range(int(r), resolution):
            krow, kids = hierarchy.cell_to_children(frontier, level + 1)
            ksrc = src[krow]
            nrow, nbrs, _ = grid.grid_disk_distances(kids, 1)
            outside = bits.cell_to_parent(nbrs, int(r)) != ksrc[nrow]
            has_outside = np.zeros(kids.shape[0], dtype=bool)
            np.logical_or.at(has_outside, nrow, outside)
            frontier = kids[has_outside]
            src = ksrc[has_outside]
        erow, edges_r = ev.origin_to_directed_edges(frontier)
        dest = ev.edge_destination(edges_r)
        keep = bits.cell_to_parent(dest, int(r)) != src[erow]
        parts.append(edges_r[keep])
    edges = np.concatenate(parts) if parts else np.empty(0, np.int64)
    if edges.size == 0:
        return []
    rev = ev.edge_reverse(edges)
    alive = edges[~np.isin(rev, edges)]
    if alive.size == 0:
        return _world_polygon()
    return dissolve_boundary_edges(alive)
