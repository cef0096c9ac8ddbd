"""Vectorized lat/lng <-> H3 cell coordinate transforms (NumPy).

Implements the H3 encode path (lat/lng -> n-vector -> closest icosahedron
face -> gnomonic hex2d -> IJK rounding -> digit extraction -> base cell +
canonical rotations) and the decode path (digits -> FaceIJK via aperture-7
descent -> overage adjust -> inverse gnomonic), following the public H3
algorithm as realized in the reference:

  - encode: src/coord/latlng.rs:227-229, vec3d.rs:117-166, vec2d.rs:65-198,
    faceijk.rs:50-126, faceijk.rs:558-582
  - decode: src/index/cell.rs:1876-1945, faceijk.rs:128-160, vec3d.rs:51-109

Everything operates on whole NumPy arrays; per-resolution loops are <= 15
iterations of array arithmetic. The encode digit loop is integer-only on
int32 axial coords and keeps its direction digits as a (res, n) uint8
scratch array; the pentagon fix-ups run on the pentagon rows only (~2% of
uniform points) and the base-cell rotations on the rows with rot > 0, and
the digits pack straight into the 64-bit index. Non-finite input raises
`InvalidLatLng` before any table lookup.
"""

from __future__ import annotations

import numpy as np

from . import bits
from ._tables import (
    BC_CW_OFFSET,
    BC_HOME_FACE,
    BC_HOME_IJK,
    BC_IS_PENTAGON,
    FACE_AXES_AZ_RADS_CII,
    FACE_CENTER,
    FACE_NBR_CCWROT,
    FACE_NBR_FACE,
    FACE_NBR_TRANSLATE,
    FACEIJK_BASE_CELL,
    FACEIJK_BASE_ROT,
)
from .constants import (
    AP7_ROT_RADS,
    BASE_OFFSET,
    DEFAULT_CELL_INDEX,
    DIRECTIONS_MASK,
    EPSILON,
    INV_RES0_U_GNOMONIC,
    INV_SQRT7_POWERS,
    MAX_DIM_BY_CII_RES,
    MAX_RESOLUTION,
    ONE_SEVENTH,
    RES0_U_GNOMONIC,
    RES_OFFSET,
    RSIN60,
    SQRT3_2,
    SQRT7_POWERS,
    UNIT_SCALE_BY_CII_RES,
)

TWO_PI = 2.0 * np.pi

# Precomputed tangent bases (north, east) for the 20 face centers
# (src/coord/vec3d.rs:184-196): north = normalize(NP - (NP.c)c), east = n x c.
_NP = np.array([0.0, 0.0, 1.0])
_dots = FACE_CENTER @ _NP  # (20,)
_north = _NP[None, :] - _dots[:, None] * FACE_CENTER
_north /= np.linalg.norm(_north, axis=1, keepdims=True)
_east = np.cross(_north, FACE_CENTER)
FACE_NORTH = _north
FACE_EAST = _east


_COS_EPSILON = np.cos(EPSILON)


def _round_half_away(x):
    """Rust f64::round semantics (half away from zero)."""
    return np.trunc(x + np.copysign(0.5, x))


def _normalize_ijk(i, j, k):
    m = np.minimum(np.minimum(i, j), k)
    return i - m, j - m, k - m


def _up_aperture7(i, j, k, ccw: bool):
    """Parent IJK in the aperture-7 grid (src/coord/ijk.rs:135-155)."""
    ii = i - k
    jj = j - k
    if ccw:
        ni = _round_half_away((3 * ii - jj) * ONE_SEVENTH)
        nj = _round_half_away((ii + 2 * jj) * ONE_SEVENTH)
    else:
        ni = _round_half_away((2 * ii + jj) * ONE_SEVENTH)
        nj = _round_half_away((3 * jj - ii) * ONE_SEVENTH)
    ni = ni.astype(np.int64)
    nj = nj.astype(np.int64)
    return _normalize_ijk(ni, nj, np.zeros_like(ni))


def _down_aperture7(i, j, k, ccw: bool):
    """Center child IJK in the aperture-7 grid (src/coord/ijk.rs:175-192)."""
    if ccw:
        ni = 3 * i + 1 * j + 0 * k
        nj = 0 * i + 3 * j + 1 * k
        nk = 1 * i + 0 * j + 3 * k
    else:
        ni = 3 * i + 0 * j + 1 * k
        nj = 1 * i + 3 * j + 0 * k
        nk = 0 * i + 1 * j + 3 * k
    return _normalize_ijk(ni, nj, nk)


def _down_aperture3(i, j, k, ccw: bool):
    """Center child IJK in the aperture-3 grid (src/coord/ijk.rs:195-211)."""
    if ccw:
        ni = 2 * i + 1 * j + 0 * k
        nj = 0 * i + 2 * j + 1 * k
        nk = 1 * i + 0 * j + 2 * k
    else:
        ni = 2 * i + 0 * j + 1 * k
        nj = 1 * i + 2 * j + 0 * k
        nk = 0 * i + 1 * j + 2 * k
    return _normalize_ijk(ni, nj, nk)


def _rotate60_ijk(i, j, k, ccw: bool):
    """IJK 60° rotation (src/coord/ijk.rs:222-236)."""
    if ccw:
        ni = 1 * i + 0 * j + 1 * k
        nj = 1 * i + 1 * j + 0 * k
        nk = 0 * i + 1 * j + 1 * k
    else:
        ni = 1 * i + 1 * j + 0 * k
        nj = 0 * i + 1 * j + 1 * k
        nk = 1 * i + 0 * j + 1 * k
    return _normalize_ijk(ni, nj, nk)


def _hex2d_to_axial(x, y):
    """DGGRID hex rounding with axis folding (src/coord/vec2d.rs:138-198).

    Returns the rounded cell as int32 axial coords (a, b) = (i - k, j - k):
    the reference's final IJK normalization only shifts all three by the
    same amount, so the axial pair is the folded (i, j) before it. int32
    holds every res: |a|, |b| < 2^24 at res 15.
    """
    a1 = np.abs(x)
    a2 = np.abs(y)

    x2 = a2 * RSIN60
    x1 = a1 + x2 / 2.0

    m1 = x1.astype(np.int32)
    m2 = x2.astype(np.int32)

    r1 = x1 - m1
    r2 = x2 - m2

    # The reference's branch tree on r1 (< 1/3, < 1/2, < 2/3, else) as 0/1
    # increments of the floored coords; same comparisons, flattened.
    ge = r2 >= (1.0 - r1)
    inc_i = np.where(r1 < 0.5, (r1 >= (1.0 / 3.0)) & ge & (r2 < (2.0 * r1)),
                     (r1 >= (2.0 / 3.0)) | ((2.0 * r1 - 1.0) >= r2) | ge)
    inc_j = np.where(r1 < (1.0 / 3.0), r2 >= (1.0 + r1) / 2.0,
                     np.where(r1 < (2.0 / 3.0), ge, r2 >= (r1 / 2.0)))
    i = m1 + inc_i
    j = m2 + inc_j

    # Fold across the axes if necessary. For -x the reference mirrors i
    # about the axis at ceil(j / 2), which reduces to j - i; for -y it
    # subtracts (2j + 1) // 2 == j from i and negates j.
    i = np.where(x < 0.0, j - i, i)
    neg_y = y < 0.0
    i = np.where(neg_y, i - j, i)
    j = np.where(neg_y, -j, j)
    return i, j


def _ijk_to_hex2d(i, j, k):
    """IJK -> hex2d center point (src/coord/ijk.rs:283-291)."""
    ii = (i - k).astype(np.float64)
    jj = (j - k).astype(np.float64)
    return ii - 0.5 * jj, jj * SQRT3_2


def _to_positive_angle(a):
    a = np.where(a < 0.0, a + TWO_PI, a)
    return np.where(a >= TWO_PI, a - TWO_PI, a)


# ---------------------------------------------------------------------------
# Encode: lat/lng -> cell
# ---------------------------------------------------------------------------

class InvalidLatLng(ValueError):
    """A latitude or longitude is NaN or infinite (h3o's `LatLng::new`).

    `row` is the first bad row, `count` the number of bad rows."""

    def __init__(self, row: int, count: int, lat: float, lng: float):
        super().__init__(
            f"{count} non-finite lat/lng row(s); first at row {row}: "
            f"({lat}, {lng})")
        self.row = row
        self.count = count


def _check_finite(lat, lng) -> None:
    bad = ~(np.isfinite(lat) & np.isfinite(lng))
    if bad.any():
        row = int(np.argmax(bad))
        raise InvalidLatLng(row, int(bad.sum()), float(lat[row]),
                            float(lng[row]))


def _geo_to_hex2d(lat_rad, lng_rad, res: int):
    """Project points to (face, x, y) hex2d coords at `res`."""
    cos_lat = np.cos(lat_rad)
    v = np.empty((cos_lat.shape[0], 3))
    np.multiply(np.cos(lng_rad), cos_lat, out=v[:, 0])
    np.multiply(np.sin(lng_rad), cos_lat, out=v[:, 1])
    np.sin(lat_rad, out=v[:, 2])

    # Closest face. For unit vectors |v - c|^2 = 2 - 2 v.c, so the argmin
    # over squared distances is the argmax over dot products — one (n, 20)
    # GEMM instead of an (n, 20, 3) difference tensor.
    dots = v @ FACE_CENTER.T  # (n, 20)
    face = np.argmax(dots, axis=1)
    best = np.take_along_axis(dots, face[:, None], axis=1)[:, 0]
    del dots
    # Clamp: rounding can push the dot a ulp past 1 (arccos domain).
    np.minimum(best, 1.0, out=best)

    # Gnomonic radius scaled for the resolution (vec2d.rs:65-104):
    # tan(acos(v)) == sqrt(1 - v^2) / v for v in (0, 1] (closest-face dot is
    # always > 0.9), eliminating both transcendentals; the small-radius cut
    # r < EPSILON becomes v > cos(EPSILON).
    small = best > _COS_EPSILON
    r = best * best
    np.subtract(1.0, r, out=r)
    np.maximum(r, 0.0, out=r)
    np.sqrt(r, out=r)
    r /= best
    r *= INV_RES0_U_GNOMONIC * SQRT7_POWERS[res]

    # Azimuth from face center to the point (vec3d.rs:123-133): atan2 of the
    # tangent-plane projection against the face basis. atan2 is
    # scale-invariant, so the projection needs no normalization, and
    # proj.east == v.east / proj.north == v.north (basis _|_ center).
    # (einsum, not a GEMM: a BLAS dot rounds differently in ~16% of rows.)
    az = np.arctan2(np.einsum("nc,nc->n", v, FACE_EAST[face]),
                    np.einsum("nc,nc->n", v, FACE_NORTH[face]))
    theta = FACE_AXES_AZ_RADS_CII[face]
    theta -= az
    if res % 2 == 1:
        theta -= AP7_ROT_RADS

    x = np.cos(theta)
    x *= r
    y = np.sin(theta, out=theta)
    y *= r
    if small.any():
        x[small] = 0.0
        y[small] = 0.0
    return face, x, y


def latlng_to_cell(lat_deg, lng_deg, res: int) -> np.ndarray:
    """Vectorized latLngToCell. Inputs in degrees; returns int64 cell bits.

    Raises `InvalidLatLng` when a coordinate is NaN or infinite."""
    lat = np.deg2rad(np.asarray(lat_deg, dtype=np.float64))
    lng = np.deg2rad(np.asarray(lng_deg, dtype=np.float64))
    return latlng_rads_to_cell(lat, lng, res)


# Direction digit of a unit axial diff (da, db), at 3 * da + db + 4:
# center (0,0) K (-1,-1) J (0,1) JK (-1,0) I (1,0) IK (0,-1) IJ (1,1).
_DIGIT_BY_DIFF = np.zeros(9, dtype=np.uint8)
for _d in range(7):
    _di, _dj, _dk = (_d >> 2) & 1, (_d >> 1) & 1, _d & 1
    _DIGIT_BY_DIFF[3 * (_di - _dk) + (_dj - _dk) + 4] = _d
_ROT_CCW_N = bits.ROTATE60_CCW_N.astype(np.uint8)
_ROT_CW = bits.ROTATE60_CW.astype(np.uint8)


def _first_axe(digits):
    """First non-center digit of each column of a (res, m) array; 0 if none."""
    nz = digits != 0
    return digits[np.argmax(nz, axis=0), np.arange(digits.shape[1])]


def _fix_pentagons(digits, face, bc, rot):
    """Pentagon canonical rotations (faceijk.rs:104-125) on pentagon rows.

    Rotates a leading K digit off the deleted subsequence, then applies
    the base cell's `rot` 60° steps, each one a double step when it would
    land on the leading JK axe (bits.rs:181-218)."""
    cw_off = (BC_CW_OFFSET[bc, 0] == face) | (BC_CW_OFFSET[bc, 1] == face)
    lead_k = _first_axe(digits) == 1
    m = lead_k & cw_off
    if m.any():
        digits[:, m] = _ROT_CW[digits[:, m]]
    m = lead_k & ~cw_off
    if m.any():
        digits[:, m] = _ROT_CCW_N[1][digits[:, m]]
    todo = rot.copy()
    while (todo > 0).any():
        m = todo > 0
        steps = np.where(m, np.where(_first_axe(digits) == 3, 2, 1), 0)
        digits[:] = _ROT_CCW_N[steps[None, :], digits]
        todo -= m


def latlng_rads_to_cell(lat_rad, lng_rad, res: int) -> np.ndarray:
    res = int(res)
    lat_rad = np.asarray(lat_rad, dtype=np.float64)
    lng_rad = np.asarray(lng_rad, dtype=np.float64)
    _check_finite(lat_rad, lng_rad)
    face, x, y = _geo_to_hex2d(lat_rad, lng_rad, res)
    a, b = _hex2d_to_axial(x, y)
    del x, y
    n = a.shape[0]

    # Digit extraction, finest -> coarsest (faceijk.rs:558-582), carried in
    # 2D axial coords (a, b) = (i - k, j - k): every IJK op is linear, so
    # the aperture-7 parent is an exact integer op. Its rounding
    # round(x / 7) is (x + 3) // 7: x / 7 is never a half-integer. The
    # digit is the diff to the parent's center child, which folds into
    # 3a + b - (5 ua + 6 ub) (CCW) or 3a + b - (10 ua - ub) (CW).
    # Digits are uint8 scratch, one row per res.
    digits = np.empty((res, n), dtype=np.uint8)
    for r in range(res, 0, -1):
        d = 3 * a + b + 4
        if r % 2 == 1:  # class III -> CCW
            ua = 3 * a - b + 3
            ub = a + 2 * b + 3
            ua //= 7
            ub //= 7
            d -= 5 * ua + 6 * ub
        else:
            ua = 2 * a + b + 3
            ub = 3 * b - a + 3
            ua //= 7
            ub //= 7
            d -= 10 * ua - ub
        np.take(_DIGIT_BY_DIFF, d, out=digits[r - 1])
        a, b = ua, ub

    # Base cell lookup at res-0 coordinates (faceijk.rs:60-79).
    m = np.minimum(np.minimum(a, b), 0)
    i = np.clip(a - m, 0, 2)
    j = np.clip(b - m, 0, 2)
    k = np.clip(-m, 0, 2)
    bc = FACEIJK_BASE_CELL[face, i, j, k]
    rot = FACEIJK_BASE_ROT[face, i, j, k]

    # Canonical rotations (faceijk.rs:104-125), in digit space, each on its
    # own rows only: pentagon fix-ups on the ~2% pentagon rows, plain
    # `rot`-fold rotations on the hexagon rows with rot > 0.
    if res > 0:
        pent = BC_IS_PENTAGON[bc]
        rows = np.flatnonzero(pent)
        if rows.size:
            sub = digits[:, rows]
            _fix_pentagons(sub, face[rows], bc[rows], rot[rows])
            digits[:, rows] = sub
        rows = np.flatnonzero((rot > 0) & ~pent)
        if rows.size:
            digits[:, rows] = _ROT_CCW_N[rot[rows][None, :], digits[:, rows]]

    # Pack straight into the bit field: mode/res header, unused-digit tail,
    # base cell, then one 3-bit digit per res (res 1 at bits 42-44).
    tail = (1 << (3 * (MAX_RESOLUTION - res))) - 1
    cells = bc.astype(np.int64)
    cells <<= BASE_OFFSET
    cells |= (DEFAULT_CELL_INDEX & ~DIRECTIONS_MASK) | (res << RES_OFFSET) \
        | tail
    for r in range(1, res + 1):
        cells |= digits[r - 1].astype(np.int64) << (3 * (MAX_RESOLUTION - r))
    return cells


# ---------------------------------------------------------------------------
# Decode: cell -> FaceIJK -> lat/lng
# ---------------------------------------------------------------------------

def cell_to_faceijk(cells):
    """Vectorized CellIndex -> FaceIJK (src/index/cell.rs:1883-1945).

    Returns (face, i, j, k) int64 arrays.
    """
    cells = bits.as_i64(np.asarray(cells))
    base = bits.get_base_cell(cells)
    res = bits.get_resolution(cells)
    pent = BC_IS_PENTAGON[base]

    work = cells
    lead = bits.first_axe(work)
    fix = pent & (lead == 5)  # leading IK
    if fix.any():
        work = np.where(fix, bits.rotate60(work, 1, ccw=False), work)

    face = BC_HOME_FACE[base].copy()
    i = BC_HOME_IJK[base, 0].copy()
    j = BC_HOME_IJK[base, 1].copy()
    k = BC_HOME_IJK[base, 2].copy()
    home_origin = (i == 0) & (j == 0) & (k == 0)
    possible_overage = pent | (res != 0) | ~home_origin

    max_res = int(res.max()) if res.size else 0
    for r in range(1, max_res + 1):
        m = res >= r
        if not m.any():
            continue
        ccw = (r % 2) == 1
        di, dj, dk = _down_aperture7(i, j, k, ccw)
        digit = np.where(m, bits.get_direction(work, r), 0)
        ui = bits.DIGIT_IJK[digit, 0]
        uj = bits.DIGIT_IJK[digit, 1]
        uk = bits.DIGIT_IJK[digit, 2]
        ni, nj, nk = _normalize_ijk(di + ui, dj + uj, dk + uk)
        i = np.where(m, ni, i)
        j = np.where(m, nj, j)
        k = np.where(m, nk, k)

    if not possible_overage.any():
        return face, i, j, k

    orig_i, orig_j, orig_k = i.copy(), j.copy(), k.copy()
    class3 = (res % 2) == 1
    class2_res = np.where(class3, res + 1, res)
    if class3.any():
        di, dj, dk = _down_aperture7(i, j, k, ccw=False)
        i = np.where(class3, di, i)
        j = np.where(class3, dj, j)
        k = np.where(class3, dk, k)

    is_pent4 = pent & (bits.first_axe(work) == 4)

    # First overage pass. MAX_DIM / UNIT_SCALE lookups are per-row.
    max_dim = MAX_DIM_BY_CII_RES[class2_res]
    dim = i + j + k
    had = possible_overage & (dim > max_dim)
    face, i, j, k = _adjust_overage_rows(face, i, j, k, class2_res, is_pent4, had)

    # Secondary overages for pentagons.
    sec = had & pent
    guard = 0
    while True:
        dim = i + j + k
        again = sec & (dim > MAX_DIM_BY_CII_RES[class2_res])
        if not again.any() or guard > 4:
            break
        face, i, j, k = _adjust_overage_rows(
            face, i, j, k, class2_res, np.zeros_like(again), again)
        guard += 1

    # Restore resolution.
    back = had & class3
    if back.any():
        ui, uj, uk = _up_aperture7(i, j, k, ccw=False)
        i = np.where(back, ui, i)
        j = np.where(back, uj, j)
        k = np.where(back, uk, k)
    keep = ~had & class3
    i = np.where(keep, orig_i, i)
    j = np.where(keep, orig_j, j)
    k = np.where(keep, orig_k, k)
    return face, i, j, k


def _adjust_overage_rows(face, i, j, k, class2_res, is_pent4, over):
    """Apply the overage transform to rows in `over` (assumed dim>max_dim)."""
    if not over.any():
        return face, i, j, k
    max_dim = MAX_DIM_BY_CII_RES[class2_res]

    q_jk = over & (k > 0) & (j > 0)
    q_ki = over & (k > 0) & ~(j > 0)

    pent_fix = q_ki & is_pent4
    if pent_fix.any():
        ti = i - max_dim
        ri, rj, rk = _rotate60_ijk(ti, j, k, ccw=False)
        i = np.where(pent_fix, ri + max_dim, i)
        j = np.where(pent_fix, rj, j)
        k = np.where(pent_fix, rk, k)

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

    unit_scale = UNIT_SCALE_BY_CII_RES[class2_res]
    ni, nj, nk = _normalize_ijk(i + t0 * unit_scale, j + t1 * unit_scale,
                                k + t2 * unit_scale)
    face = np.where(over, nbr_face, face)
    i = np.where(over, ni, i)
    j = np.where(over, nj, j)
    k = np.where(over, nk, k)
    return face, i, j, k


def _hex2d_to_vec3d(x, y, face, res, is_substrate: bool):
    """Inverse gnomonic: hex2d on a face -> unit n-vector (vec3d.rs:51-109).

    `res` may be an array of (extended) resolutions.
    """
    r = np.sqrt(x * x + y * y)
    center = FACE_CENTER[face]

    scale = INV_SQRT7_POWERS[res]
    if is_substrate:
        scale = scale / 3.0
    q = r * scale * RES0_U_GNOMONIC
    small = q < EPSILON

    inv_hyp = 1.0 / np.sqrt(q * q + 1.0)
    cos_r = inv_hyp
    sin_r = q * inv_hyp

    theta = np.arctan2(y, x)
    if not is_substrate:
        class3 = (np.asarray(res) % 2) == 1
        theta = np.where(class3, _to_positive_angle(theta + AP7_ROT_RADS), theta)
    theta = _to_positive_angle(FACE_AXES_AZ_RADS_CII[face] - theta)

    north = FACE_NORTH[face]
    east = FACE_EAST[face]
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    direction = cos_t[:, None] * north + sin_t[:, None] * east
    out = cos_r[:, None] * center + sin_r[:, None] * direction
    norm = np.linalg.norm(out, axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(norm > 0, out / norm, 0.0)
    out = np.where(small[:, None], center, out)
    return out


def cell_to_latlng_rads(cells):
    """Vectorized cellToLatLng; returns (lat_rad, lng_rad)."""
    cells = bits.as_i64(np.asarray(cells))
    res = bits.get_resolution(cells)
    face, i, j, k = cell_to_faceijk(cells)
    x, y = _ijk_to_hex2d(i, j, k)
    v = _hex2d_to_vec3d(x, y, face, res, is_substrate=False)
    lat = np.arcsin(np.clip(v[:, 2], -1.0, 1.0))
    lng = np.arctan2(v[:, 1], v[:, 0])
    return lat, lng


def cell_to_latlng(cells):
    """Vectorized cellToLatLng; returns (lat_deg, lng_deg)."""
    lat, lng = cell_to_latlng_rads(cells)
    return np.rad2deg(lat), np.rad2deg(lng)
