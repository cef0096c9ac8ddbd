"""Vectorized cellToBoundary: cell -> spherical polygon vertices.

Algorithm (reference: src/coord/faceijk.rs:244-478 hexagon/pentagon boundary,
substrate grids): the cell center is moved into an aperture 33r substrate
grid, the 6 (5) class-II substrate vertex offsets are added, each vertex is
overage-adjusted onto its true face, and projected back to lat/lng with the
substrate inverse-gnomonic. Class III cells additionally get distortion
vertices where an edge crosses an icosahedron edge.

Hexagons are fully vectorized with per-vertex slot matrices; pentagons (12
per resolution) run the same code path on size-1 arrays per cell.

Output is an Arrow-ready ragged layout: (offsets[n+1], lat[], lng[]).
"""

from __future__ import annotations

import numpy as np

from . import bits
from ._tables import ADJACENT_FACE_DIR, FACE_NBR_CCWROT, FACE_NBR_FACE, \
    FACE_NBR_TRANSLATE
from .constants import MAX_DIM_BY_CII_RES, SQRT3_2, UNIT_SCALE_BY_CII_RES
from .latlng import (
    _down_aperture3,
    _down_aperture7,
    _hex2d_to_latlng,
    _ijk_to_hex2d,
    _rotate60_ijk,
    cell_to_faceijk,
    check_cells,
)

# Substrate vertex offsets, CCW from the i-axis (faceijk.rs:487-516).
VERTS_CII = np.array([[2, 1, 0], [1, 2, 0], [0, 2, 1],
                      [0, 1, 2], [1, 0, 2], [2, 0, 1]], dtype=np.int64)
VERTS_CIII = np.array([[5, 4, 0], [1, 5, 0], [0, 5, 4],
                       [0, 1, 5], [4, 0, 5], [5, 0, 1]], dtype=np.int64)


def _adjust_overage_substrate(face, i, j, k, class2_res, max_iter=4):
    """Substrate-grid overage adjustment (faceijk.rs:163-238, IS_SUBSTRATE).

    Returns (face, i, j, k, overage_code) with 0=None, 1=FaceEdge, 2=NewFace
    for the FIRST adjustment, looping further while NewFace (pentagon verts).
    """
    max_dim = MAX_DIM_BY_CII_RES[class2_res] * 3
    first_code = np.zeros(face.shape[0], dtype=np.int64)
    for it in range(max_iter):
        dim = i + j + k
        on_edge = dim == max_dim
        over = dim > max_dim
        if it == 0:
            first_code[:] = np.where(over, 2, np.where(on_edge, 1, 0))
        if not over.any():
            break
        q_jk = over & (k > 0) & (j > 0)
        q_ki = over & (k > 0) & ~(j > 0)
        quadrant = np.where(q_jk, 3, np.where(q_ki, 2, 1))
        nbr_face = FACE_NBR_FACE[face, quadrant]
        nbr_rot = FACE_NBR_CCWROT[face, quadrant]
        t0 = FACE_NBR_TRANSLATE[face, quadrant, 0]
        t1 = FACE_NBR_TRANSLATE[face, quadrant, 1]
        t2 = FACE_NBR_TRANSLATE[face, quadrant, 2]

        todo = np.where(over, nbr_rot, 0)
        while (todo > 0).any():
            m = todo > 0
            ri, rj, rk = _rotate60_ijk(i, j, k, ccw=True)
            i = np.where(m, ri, i)
            j = np.where(m, rj, j)
            k = np.where(m, rk, k)
            todo -= m

        unit_scale = UNIT_SCALE_BY_CII_RES[class2_res] * 3
        mn = np.minimum(np.minimum(i + t0 * unit_scale, j + t1 * unit_scale),
                        k + t2 * unit_scale)
        ni = i + t0 * unit_scale - mn
        nj = j + t1 * unit_scale - mn
        nk = k + t2 * unit_scale - mn
        face = np.where(over, nbr_face, face)
        i = np.where(over, ni, i)
        j = np.where(over, nj, j)
        k = np.where(over, nk, k)
        # Post-translate on-edge check for the first pass.
        if it == 0:
            dim2 = i + j + k
            first_code = np.where(over & (dim2 == max_dim), 1, first_code)
    return face, i, j, k, first_code


def _substrate_center(cells):
    """Move cell centers into the aperture 33r (+7r for class III) substrate.

    Returns (face, i, j, k, adjusted_res, class3).
    """
    res = bits.get_resolution(cells)
    face, i, j, k = cell_to_faceijk(cells)
    i, j, k = _down_aperture3(i, j, k, ccw=True)
    i, j, k = _down_aperture3(i, j, k, ccw=False)
    class3 = (res % 2) == 1
    if class3.any():
        di, dj, dk = _down_aperture7(i, j, k, ccw=False)
        i = np.where(class3, di, i)
        j = np.where(class3, dj, j)
        k = np.where(class3, dk, k)
    adjusted_res = np.where(class3, res + 1, res)
    return face, i, j, k, adjusted_res, class3


def _project(face, i, j, k, adjusted_res):
    x, y = _ijk_to_hex2d(i, j, k)
    return _hex2d_to_latlng(x, y, face, adjusted_res, is_substrate=True)


def _intersection_2d(p0x, p0y, p1x, p1y, q0x, q0y, q1x, q1y):
    """Line-line intersection (vec2d.rs:113-139)."""
    s1x = p1x - p0x
    s1y = p1y - p0y
    s2x = q1x - q0x
    s2y = q1y - q0y
    t = (s2x * (p0y - q0y) - s2y * (p0x - q0x)) / (s1x * s2y - s2y * 0 - s2x * s1y) \
        if False else (s2x * (p0y - q0y) - s2y * (p0x - q0x)) / (-s2x * s1y + s1x * s2y)
    return t * s1x + p0x, t * s1y + p0y


def hexagon_vertex_faces(cells):
    """Post-overage icosahedron face of each topological vertex, (n, 6).

    The face set of a hexagon cell (icosahedronFaces, cell.rs:322-380) is
    exactly the set of its vertices' post-adjust faces.
    """
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    face_c, ci, cj, ck, adj_res, class3 = _substrate_center(cells)
    verts = np.where(class3[:, None, None], VERTS_CIII[None, :, :],
                     VERTS_CII[None, :, :])
    vi = ci[:, None] + verts[:, :, 0]
    vj = cj[:, None] + verts[:, :, 1]
    vk = ck[:, None] + verts[:, :, 2]
    mn = np.minimum(np.minimum(vi, vj), vk)
    vi, vj, vk = vi - mn, vj - mn, vk - mn
    face_r = np.repeat(face_c, 6)
    res_r = np.repeat(adj_res, 6)
    fa, _, _, _, _ = _adjust_overage_substrate(
        face_r, vi.reshape(-1), vj.reshape(-1), vk.reshape(-1), res_r)
    return fa.reshape(n, 6)


def hexagon_boundary_slots(cells):
    """Boundary of non-pentagon cells as fixed slot planes.

    Returns (slot_lat, slot_lng, slot_ok), each (n, 12): slot 2v holds
    topological vertex v, slot 2v+1 the distortion vertex on edge (v, v+1)
    when present (class III icosahedron-edge crossings). Used by the ragged
    boundary assembly, edge boundaries, and vertexToLatLng.
    """
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    face_c, ci, cj, ck, adj_res, class3 = _substrate_center(cells)

    # 6 vertices per cell: center + vertex offsets (class-dependent).
    verts = np.where(class3[:, None, None], VERTS_CIII[None, :, :],
                     VERTS_CII[None, :, :])  # (n, 6, 3)
    vi = ci[:, None] + verts[:, :, 0]
    vj = cj[:, None] + verts[:, :, 1]
    vk = ck[:, None] + verts[:, :, 2]
    mn = np.minimum(np.minimum(vi, vj), vk)
    vi, vj, vk = vi - mn, vj - mn, vk - mn

    flat = lambda a: a.reshape(-1)
    face_r = np.repeat(face_c, 6)
    res_r = np.repeat(adj_res, 6)
    # Keep original (pre-adjust) substrate coords for intersections.
    oi, oj, ok = vi.copy(), vj.copy(), vk.copy()
    fa, ai, aj, ak, code = _adjust_overage_substrate(
        face_r, flat(vi), flat(vj), flat(vk), res_r)
    vlat, vlng = _project(fa, ai, aj, ak, res_r)
    vlat = vlat.reshape(n, 6)
    vlng = vlng.reshape(n, 6)
    vface = fa.reshape(n, 6)
    vcode = code.reshape(n, 6)

    # Distortion vertices for class III cells: edge (v-1, v) crosses an
    # icosahedron edge when the post-adjust faces differ (faceijk.rs:396-460).
    # Slot layout per cell: V0 I0 V1 I1 ... V5 I5 where I_v sits between V_v
    # and V_{v+1} — the reference pushes the intersection of (last, current)
    # before current, and checks the wrap-around edge in an extra iteration.
    has_inter = np.zeros((n, 6), dtype=bool)
    ilat = np.zeros((n, 6))
    ilng = np.zeros((n, 6))
    if class3.any():
        prev = np.arange(6)  # edge e: between vertex e and e+1
        nxt = (np.arange(6) + 1) % 6
        f_prev = vface[:, prev]
        f_next = vface[:, nxt]
        code_prev = vcode[:, prev]
        cond = class3[:, None] & (f_next != f_prev) & (code_prev != 1)
        if cond.any():
            rows, edges = np.where(cond)
            ip = prev[edges]
            inx = nxt[edges]
            # Original substrate hex2d of the two vertices (center-face frame).
            p0x, p0y = _ijk_to_hex2d(oi[rows, ip], oj[rows, ip], ok[rows, ip])
            p1x, p1y = _ijk_to_hex2d(oi[rows, inx], oj[rows, inx], ok[rows, inx])
            max_dim = (MAX_DIM_BY_CII_RES[adj_res[rows]]).astype(np.float64)
            v0x, v0y = 3.0 * max_dim, np.zeros_like(max_dim)
            v1x, v1y = -1.5 * max_dim, 3.0 * SQRT3_2 * max_dim
            v2x, v2y = -1.5 * max_dim, -3.0 * SQRT3_2 * max_dim
            # Which icosa edge: direction from center.face to face2.
            center_face = face_c[rows]
            last_face = f_prev[rows, edges]
            this_face = f_next[rows, edges]
            face2 = np.where(last_face == center_face, this_face, last_face)
            adj_dir = ADJACENT_FACE_DIR[center_face, face2]
            # IJ=1 -> (v0,v1), JK=3 -> (v1,v2), KI=2 -> (v2,v0)
            q0x = np.where(adj_dir == 1, v0x, np.where(adj_dir == 3, v1x, v2x))
            q0y = np.where(adj_dir == 1, v0y, np.where(adj_dir == 3, v1y, v2y))
            q1x = np.where(adj_dir == 1, v1x, np.where(adj_dir == 3, v2x, v0x))
            q1y = np.where(adj_dir == 1, v1y, np.where(adj_dir == 3, v2y, v0y))
            ix, iy = _intersection_2d(p0x, p0y, p1x, p1y, q0x, q0y, q1x, q1y)
            # Skip intersections that coincide with either endpoint
            # (within f32 epsilon, matching Vec2d's PartialEq).
            eps = float(np.finfo(np.float32).eps)
            dup = ((np.abs(ix - p0x) <= eps) & (np.abs(iy - p0y) <= eps)) | \
                  ((np.abs(ix - p1x) <= eps) & (np.abs(iy - p1y) <= eps))
            keep = ~dup
            rows_k = rows[keep]
            edges_k = edges[keep]
            ilat[rows_k, edges_k], ilng[rows_k, edges_k] = _hex2d_to_latlng(
                ix[keep], iy[keep], face_c[rows_k], adj_res[rows_k],
                is_substrate=True)
            has_inter[rows_k, edges_k] = True

    # Slot planes: [V0, I0, V1, I1, ..., V5, I5].
    slot_lat = np.empty((n, 12))
    slot_lng = np.empty((n, 12))
    slot_ok = np.zeros((n, 12), dtype=bool)
    slot_lat[:, 0::2] = vlat
    slot_lng[:, 0::2] = vlng
    slot_ok[:, 0::2] = True
    slot_lat[:, 1::2] = ilat
    slot_lng[:, 1::2] = ilng
    slot_ok[:, 1::2] = has_inter
    return slot_lat, slot_lng, slot_ok


def hexagon_boundaries(cells):
    """Boundaries for non-pentagon cells. Returns (offsets, lat, lng) rads."""
    slot_lat, slot_lng, slot_ok = hexagon_boundary_slots(cells)
    counts = slot_ok.sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    mask = slot_ok.reshape(-1)
    return offsets, slot_lat.reshape(-1)[mask], slot_lng.reshape(-1)[mask]


def _pentagon_boundary_single(cell: int):
    """Boundary of one pentagon cell (faceijk.rs:262-361), size-1 arrays."""
    c = np.array([cell], dtype=np.int64)
    face_c, ci, cj, ck, adj_res, class3 = _substrate_center(c)
    is3 = bool(class3[0])
    verts = VERTS_CIII if is3 else VERTS_CII

    # The 5 pentagon vertices (skip the K-axis vertex... the reference uses
    # NUM_PENT_VERTS=5 consecutive verts from the hexagon table).
    vs = []
    for vtx in range(5):
        vi = ci + verts[vtx, 0]
        vj = cj + verts[vtx, 1]
        vk = ck + verts[vtx, 2]
        mn = np.minimum(np.minimum(vi, vj), vk)
        f, i, j, k, _ = _adjust_overage_substrate(
            face_c.copy(), vi - mn, vj - mn, vk - mn, adj_res, max_iter=6)
        vs.append((int(f[0]), int(i[0]), int(j[0]), int(k[0])))

    out_lat, out_lng = [], []
    last = None
    total = 5 + (1 if True else 0)
    for vert in range(0, 5 + 1):
        v = vert % 5
        fv = vs[v]
        if is3 and vert > 0:
            # All class III pentagon edges cross icosahedron edges.
            tmp_face, ti, tj, tk = fv
            last_face = last[0]
            cur_to_last = int(ADJACENT_FACE_DIR[tmp_face, last_face])
            nbr_face = int(FACE_NBR_FACE[tmp_face, cur_to_last])
            rot = int(FACE_NBR_CCWROT[tmp_face, cur_to_last])
            t = FACE_NBR_TRANSLATE[tmp_face, cur_to_last]
            ai = np.array([ti]); aj = np.array([tj]); ak = np.array([tk])
            for _ in range(rot):
                ai, aj, ak = _rotate60_ijk(ai, aj, ak, ccw=True)
            unit_scale = int(UNIT_SCALE_BY_CII_RES[adj_res[0]]) * 3
            ai = ai + t[0] * unit_scale
            aj = aj + t[1] * unit_scale
            ak = ak + t[2] * unit_scale
            mn = min(int(ai[0]), int(aj[0]), int(ak[0]))
            ai, aj, ak = ai - mn, aj - mn, ak - mn

            orig0x, orig0y = _ijk_to_hex2d(np.array([last[1]]),
                                           np.array([last[2]]),
                                           np.array([last[3]]))
            orig1x, orig1y = _ijk_to_hex2d(ai, aj, ak)
            max_dim = float(MAX_DIM_BY_CII_RES[adj_res[0]])
            V = {0: (3.0 * max_dim, 0.0),
                 1: (-1.5 * max_dim, 3.0 * SQRT3_2 * max_dim),
                 2: (-1.5 * max_dim, -3.0 * SQRT3_2 * max_dim)}
            adj_dir = int(ADJACENT_FACE_DIR[nbr_face, fv[0]])
            pairs = {1: (V[0], V[1]), 3: (V[1], V[2]), 2: (V[2], V[0])}
            (q0, q1) = pairs[adj_dir]
            ix, iy = _intersection_2d(
                orig0x, orig0y, orig1x, orig1y,
                np.array([q0[0]]), np.array([q0[1]]),
                np.array([q1[0]]), np.array([q1[1]]))
            la, ln = _hex2d_to_latlng(ix, iy, np.array([nbr_face]),
                                      adj_res, is_substrate=True)
            out_lat.append(float(la[0]))
            out_lng.append(float(ln[0]))

        if vert < 5:
            x, y = _ijk_to_hex2d(np.array([fv[1]]), np.array([fv[2]]),
                                 np.array([fv[3]]))
            la, ln = _hex2d_to_latlng(x, y, np.array([fv[0]]), adj_res,
                                      is_substrate=True)
            out_lat.append(float(la[0]))
            out_lng.append(float(ln[0]))
        last = fv
    return out_lat, out_lng


def _cell_to_boundary_rads(cells):
    """cellToBoundary of int64 cells known to be valid -> ragged (offsets,
    lat, lng) radians."""
    cells = bits.as_i64(np.asarray(cells))
    pent = bits.is_pentagon(cells)
    if not pent.any():
        return hexagon_boundaries(cells)

    hex_cells = cells[~pent]
    ho, hlat, hlng = hexagon_boundaries(hex_cells) if hex_cells.size else (
        np.array([0]), np.empty(0), np.empty(0))
    # Merge back in original order.
    lats: list[np.ndarray] = []
    lngs: list[np.ndarray] = []
    counts = np.zeros(cells.shape[0], dtype=np.int64)
    hi = 0
    for idx in range(cells.shape[0]):
        if pent[idx]:
            pl, pg = _pentagon_boundary_single(int(cells[idx]))
            lats.append(np.array(pl))
            lngs.append(np.array(pg))
            counts[idx] = len(pl)
        else:
            s, e = ho[hi], ho[hi + 1]
            lats.append(hlat[s:e])
            lngs.append(hlng[s:e])
            counts[idx] = e - s
            hi += 1
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return offsets, np.concatenate(lats), np.concatenate(lngs)


def cell_to_boundary_rads(cells):
    """cellToBoundary for a cell array -> ragged (offsets, lat, lng) radians.

    Raises `InvalidCell` when a row is not a valid cell index."""
    return _cell_to_boundary_rads(check_cells(cells))


def cell_to_boundary(cells):
    """Degrees variant of `cell_to_boundary_rads`."""
    off, lat, lng = cell_to_boundary_rads(cells)
    return off, np.rad2deg(lat), np.rad2deg(lng)
