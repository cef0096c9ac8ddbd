"""Measurement kernels: cell areas, great-circle distances, constants.

Reference: src/math/area.rs (Cagnoli spherical excess + Kahan summation),
src/coord/latlng.rs:170-214 (haversine), src/resolution.rs:148-381
(per-resolution constants), src/index/cell.rs:272-310 (area conversions).
"""

from __future__ import annotations

import math

import numpy as np

from . import bits
from .boundary import _cell_to_boundary_rads
from .constants import (
    DEFAULT_CELL_INDEX,
    EARTH_RADIUS_KM,
    HEX_AREA_KM2,
    HEX_AREA_M2,
    HEX_AREA_RADS2,
    HEX_EDGE_KM,
    HEX_EDGE_M,
    HEX_EDGE_RADS,
    NUM_CELLS_BY_RES,
)
from ._tables import PENTAGON_BASE_CELLS


# ---------------------------------------------------------------------------
# Great-circle distance (haversine)
# ---------------------------------------------------------------------------

def great_circle_distance_rads(lat1, lng1, lat2, lng2):
    """Haversine distance in radians; inputs radians (latlng.rs:170-184)."""
    lat1 = np.asarray(lat1, dtype=np.float64)
    lat2 = np.asarray(lat2, dtype=np.float64)
    sl = np.sin((lat2 - lat1) * 0.5)
    sg = np.sin((np.asarray(lng2, np.float64) -
                 np.asarray(lng1, np.float64)) * 0.5)
    h = sl * sl + np.cos(lat1) * np.cos(lat2) * sg * sg
    return 2.0 * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))


def great_circle_distance_km(lat1, lng1, lat2, lng2):
    return great_circle_distance_rads(lat1, lng1, lat2, lng2) * EARTH_RADIUS_KM


def great_circle_distance_m(lat1, lng1, lat2, lng2):
    return great_circle_distance_km(lat1, lng1, lat2, lng2) * 1000.0


# ---------------------------------------------------------------------------
# Cell area (Cagnoli + Kahan)
# ---------------------------------------------------------------------------

def _cagnoli(sin_a, cos_a_, sin_b, cos_b, delta):
    """Cagnoli contribution of one arc (area.rs:81-96)."""
    sa = sin_a * sin_b
    ca = cos_a_ * cos_b
    sd = np.sin(delta)
    cd = np.cos(delta)
    return -2.0 * np.arctan2(sa * sd, sa * cd + ca)


def cell_area_rads2(cells) -> np.ndarray:
    """Vectorized cellAreaRads2: spherical excess of the cell boundary via
    per-edge Cagnoli terms accumulated with a Kahan adder in edge order
    (area.rs:33-78, fp_adder.rs:12-33)."""
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    if n == 0:
        # Empty blocks legitimately occur after filters/partitioning.
        return np.zeros(0, dtype=np.float64)
    off, vlat, vlng = _cell_to_boundary_rads(cells)
    counts = np.diff(off)
    kmax = int(counts.max())
    # Padded vertex planes: repeat the last real vertex (zero-length arcs
    # contribute exactly 0 through Cagnoli).
    idx = off[:-1, None] + np.minimum(np.arange(kmax), counts[:, None] - 1)
    px = vlng[idx]
    py = vlat[idx]
    lat_t = py * 0.5 + math.pi * 0.25
    sin_t = np.sin(lat_t)
    cos_t = np.cos(lat_t)

    s = np.zeros(n, dtype=np.float64)
    c = np.zeros(n, dtype=np.float64)

    def kahan_add(v):
        nonlocal s, c
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t

    for k in range(kmax - 1):
        kahan_add(_cagnoli(sin_t[:, k], cos_t[:, k],
                           sin_t[:, k + 1], cos_t[:, k + 1],
                           px[:, k + 1] - px[:, k]))
    # Closing edge: last real vertex (== padded kmax-1) back to the first.
    kahan_add(_cagnoli(sin_t[:, kmax - 1], cos_t[:, kmax - 1],
                       sin_t[:, 0], cos_t[:, 0], px[:, 0] - px[:, kmax - 1]))
    area = s + c
    return np.where(area < 0.0, area + 4.0 * math.pi, area)


def cell_area_km2(cells) -> np.ndarray:
    return cell_area_rads2(cells) * (EARTH_RADIUS_KM * EARTH_RADIUS_KM)


def cell_area_m2(cells) -> np.ndarray:
    return cell_area_km2(cells) * 1e6


# ---------------------------------------------------------------------------
# Constants / generators
# ---------------------------------------------------------------------------

def get_num_cells(res) -> np.ndarray:
    """cellCount (resolution.rs:327-347)."""
    return NUM_CELLS_BY_RES[np.asarray(res, dtype=np.int64)]


def res0_cells() -> np.ndarray:
    """The 122 base cells (cell.rs:840-847)."""
    return bits.set_unused(bits.set_resolution(bits.set_base_cell(
        np.full(122, 0x0800_0000_0000_0000, dtype=np.int64),
        np.arange(122, dtype=np.int64)), 0), 0)


def pentagons(res: int) -> np.ndarray:
    """The 12 pentagons at `res` (resolution.rs:368-381): pentagon base cell
    with all-center digits."""
    cells = bits.set_base_cell(
        np.full(12, DEFAULT_CELL_INDEX, dtype=np.int64), PENTAGON_BASE_CELLS)
    cells = bits.set_resolution(cells, res)
    mask = (np.int64(1) << bits.direction_offset(np.int64(res))) - 1
    return (cells & ~np.int64(0x1FFFFFFFFFFF)) | mask


def hexagon_area_avg(res, unit: str = "km2"):
    table = {"rads2": HEX_AREA_RADS2, "km2": HEX_AREA_KM2,
             "m2": HEX_AREA_M2}[unit]
    return table[np.asarray(res, dtype=np.int64)]


def hexagon_edge_length_avg(res, unit: str = "km"):
    table = {"rads": HEX_EDGE_RADS, "km": HEX_EDGE_KM,
             "m": HEX_EDGE_M}[unit]
    return table[np.asarray(res, dtype=np.int64)]


# Descendant reach per res: an upper bound on the great-circle distance
# from a res-r cell's centre to any point of any of its descendants, at any
# finer res. Descendants are not nested in their parent, so this exceeds the
# cell's own circumradius. Derived by tools/derive_cell_reach.py (1024
# stratified cells per res plus all 12 pentagons, descendants 3 levels
# down, deeper levels bounded by recursion) and padded by 10%; it is about
# 1.26x the average edge length at every res. Frozen here rather than
# derived at run time, so tiling allocates nothing to compute it.
CELL_REACH_RADS = np.array([
    0.24902, 0.095304, 0.036087, 0.013642,
    0.0051562, 0.0019489, 0.00073667, 0.0002784,
    0.00010522, 3.9759e-05, 1.5024e-05, 5.67e-06,
    2.133e-06, 8.0284e-07, 2.9456e-07, 1.1134e-07,
])


def degs_to_rads(x):
    return np.deg2rad(np.asarray(x, dtype=np.float64))


def rads_to_degs(x):
    return np.rad2deg(np.asarray(x, dtype=np.float64))


def max_face_count(cells) -> np.ndarray:
    """maxFaceCount (cell.rs:417-425): 5 for pentagons else 2."""
    return np.where(bits.is_pentagon(bits.as_i64(np.asarray(cells))), 5, 2)


def icosahedron_faces(cells) -> np.ndarray:
    """icosahedronFaces (cell.rs:322-380) as a uint32 face bitset per cell.

    Hexagons: set of post-overage vertex faces (vectorized). Class II
    pentagons recurse through their center child (all their vertices lie on
    icosahedron edges); class III pentagons use the pentagon vertex faces.
    """
    from .boundary import hexagon_vertex_faces
    from .boundary import _substrate_center, _adjust_overage_substrate
    from .boundary import VERTS_CIII

    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    out = np.zeros(n, dtype=np.int64)
    pent = bits.is_pentagon(cells)
    res = bits.get_resolution(cells)

    # Class II pentagons -> center child at res+1 (class III).
    fixup = pent & (res % 2 == 0)
    work = np.where(fixup, bits.cell_to_center_child(cells, np.where(
        fixup, res + 1, res)), cells)

    hex_rows = np.flatnonzero(~pent)
    if hex_rows.size:
        faces = hexagon_vertex_faces(work[hex_rows])
        m = np.bitwise_or.reduce(np.int64(1) << faces, axis=1)
        out[hex_rows] = m
    for row in np.flatnonzero(pent):
        c = np.array([work[row]], dtype=np.int64)
        face_c, ci, cj, ck, adj_res, _ = _substrate_center(c)
        mask = 0
        for vtx in range(5):
            vi = ci + VERTS_CIII[vtx, 0]
            vj = cj + VERTS_CIII[vtx, 1]
            vk = ck + VERTS_CIII[vtx, 2]
            mn = np.minimum(np.minimum(vi, vj), vk)
            f, _, _, _, _ = _adjust_overage_substrate(
                face_c.copy(), vi - mn, vj - mn, vk - mn, adj_res, max_iter=6)
            mask |= 1 << int(f[0])
        out[row] = mask
    return out.astype(np.uint32)


def pentagon_count() -> int:
    """pentagonCount (resolution.rs:368-372): 12 at every resolution."""
    return 12


def res0_cell_count() -> int:
    """res0CellCount (cell.rs:840-847): the 122 base cells."""
    return 122
