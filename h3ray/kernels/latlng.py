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

The decode runs in the same digit space: the aperture-7 descent is linear
in int32 axial coords, so it is one table lookup per three digits
(`digit_walk`, shared with `localij`); a single-res input takes one pass,
a mixed one a pass per res. The pentagon leading-digit fix runs on the
pentagon rows and the overage adjust on the rows past their face's edge
only. The inverse gnomonic keeps the reference's float operations in
their order, one vector component at a time. The public decode entries
raise `InvalidCell` on any row that `bits.is_valid_cell` rejects, before
any table lookup; internal callers whose cells are built valid (the tiler)
use the unchecked `_cell_to_latlng_rads`.
"""

from __future__ import annotations

import functools

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
    """`a` wrapped into [0, 2pi), in place."""
    np.add(a, TWO_PI, out=a, where=a < 0.0)
    np.subtract(a, TWO_PI, out=a, where=a >= TWO_PI)
    return a


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

class InvalidCell(ValueError):
    """An input to a public decode entry is not a valid cell index (h3o's
    `CellIndex::try_from`): see `bits.is_valid_cell`.

    `row` is the first bad row, `count` the number of bad rows."""

    def __init__(self, row: int, count: int, value: int):
        super().__init__(
            f"{count} invalid cell index(es); first at row {row}: "
            f"{value & 0xFFFFFFFFFFFFFFFF:#x}")
        self.row = row
        self.count = count


def check_cells(cells) -> np.ndarray:
    """`cells` as int64 bits; raises `InvalidCell` unless every row is a
    valid cell index."""
    cells = bits.as_i64(np.asarray(cells))
    bad = ~bits.is_valid_cell(cells)
    if bad.any():
        row = int(np.argmax(bad))
        raise InvalidCell(row, int(bad.sum()), int(cells[row]))
    return cells


def res_groups(res):
    """(r, rows) per resolution present in `res`; rows is None when every
    row has resolution r (the one-pass route)."""
    if res.size == 0 or (res == res[0]).all():
        yield (int(res[0]) if res.size else 0), None
        return
    for r in np.unique(res):
        yield int(r), np.flatnonzero(res == r)


# Axial (i - k, j - k) steps of the seven direction digits, the base cells'
# home IJK, and the aperture-7 centre-child maps of the descent
# (faceijk.rs:135-160): CCW on class III res, CW on class II.
_DIGIT_AB = np.stack([bits.DIGIT_IJK[:, 0] - bits.DIGIT_IJK[:, 2],
                      bits.DIGIT_IJK[:, 1] - bits.DIGIT_IJK[:, 2]], axis=1)
_HOME_AB = np.stack([BC_HOME_IJK[:, 0] - BC_HOME_IJK[:, 2],
                     BC_HOME_IJK[:, 1] - BC_HOME_IJK[:, 2]], axis=1)
_DOWN7 = {1: np.array([[2, 1], [-1, 3]]), 0: np.array([[3, -1], [1, 2]])}


@functools.lru_cache(maxsize=None)
def _walk_tables(res: int):
    """Lookup tables of the res-`res` descent. Each res step maps the
    axial coords linearly (the centre child) and adds the digit's unit
    step, so the result is the sum of one term per digit: the digit's
    step carried through the maps of the finer res. The digits go in
    groups of three adjacent 3-bit fields; returns (home, groups): the
    base cells' home coords carried to `res` as (122, 2) int32, and per
    group (shift, mask, a-table, b-table) indexed by the group's bits."""
    carry = [None] * (res + 1)
    acc = np.eye(2, dtype=np.int64)
    for r in range(res, 0, -1):
        carry[r] = acc
        acc = acc @ _DOWN7[r & 1]
    home = (_HOME_AB @ acc.T).astype(np.int32)
    groups = []
    for lo in range(1, res + 1, 3):
        levels = range(lo, min(lo + 3, res + 1))
        idx = np.arange(8 ** len(levels))
        table = np.zeros((idx.size, 2), dtype=np.int64)
        for pos, r in enumerate(levels):
            d = (idx >> 3 * (levels[-1] - r)) & 7
            ok = d < 7  # an unused digit never occurs at r <= res
            table[ok] += _DIGIT_AB[d[ok]] @ carry[r].T
        groups.append((3 * (MAX_RESOLUTION - levels[-1]), idx.size - 1,
                       table[:, 0].astype(np.int32),
                       table[:, 1].astype(np.int32)))
    return home, groups


def digit_walk(cells, res: int, base=None):
    """Aperture-7 descent of res-`res` cells (faceijk.rs:135-160) in axial
    coordinates (a, b) = (i - k, j - k), from the home IJK of each row's
    `base` cell, or from the origin when `base` is None: per res, the
    centre child plus the unit step of that res's digit. Every IJK op is
    linear, so the walk is one table lookup per three digits, exact in
    int32 (|a|, |b| < 2^23 at res 15)."""
    home, groups = _walk_tables(res)
    if base is None:
        a = np.zeros(cells.shape[0], dtype=np.int32)
        b = np.zeros(cells.shape[0], dtype=np.int32)
    else:
        a = np.take(home[:, 0], base)
        b = np.take(home[:, 1], base)
    for shift, mask, ta, tb in groups:
        idx = (cells >> shift) & mask
        a += np.take(ta, idx)
        b += np.take(tb, idx)
    return a, b


def axial_to_ijk(a, b):
    """Normalized int64 IJK of axial (a, b)."""
    a = a.astype(np.int64)
    b = b.astype(np.int64)
    k = np.maximum(-np.minimum(a, b), 0)
    return a + k, b + k, k


# 60 deg CCW rotations of axial coords, as 2x2 maps per count 0-5: one
# step is (a, b) -> (a - b, a).
_ROT_CCW = [np.eye(2, dtype=np.int64)]
for _ in range(5):
    _ROT_CCW.append(np.array([[1, -1], [1, 0]]) @ _ROT_CCW[-1])
_ROT_CCW = np.stack(_ROT_CCW).reshape(6, 4)
# Neighbour face, its CCW rotation count and its axial translation per
# [face * 4 + quadrant].
_NBR_FACE = FACE_NBR_FACE.ravel()
_NBR_ROT = FACE_NBR_CCWROT.ravel()
_NBR_DA = (FACE_NBR_TRANSLATE[..., 0] - FACE_NBR_TRANSLATE[..., 2]).ravel()
_NBR_DB = (FACE_NBR_TRANSLATE[..., 1] - FACE_NBR_TRANSLATE[..., 2]).ravel()


def _adjust_overage(face, a, b, res2: int, pent4):
    """Overage transform (faceijk.rs:163-238) of rows past their face's
    edge at class II res `res2`, in int64 axial coords: the pentagon
    leading-IK fix-up on `pent4` rows of the KI quadrant, the neighbour
    face's CCW rotations and its translation."""
    max_dim = MAX_DIM_BY_CII_RES[res2]
    k = np.maximum(-np.minimum(a, b), 0)
    on_k = k > 0
    on_j = (b + k) > 0
    fix = pent4 & on_k & ~on_j
    if fix.any():
        # Rotate (i - max_dim, j, k) 60 deg CW, then add max_dim back to i.
        a, b = (np.where(fix, b + max_dim, a),
                np.where(fix, b - a + max_dim, b))
    slot = face * 4 + 1 + on_k * (1 + on_j)  # quadrant: 1 IJ, 2 KI, 3 JK
    m = _ROT_CCW[np.take(_NBR_ROT, slot)]
    scale = UNIT_SCALE_BY_CII_RES[res2]
    return (np.take(_NBR_FACE, slot),
            m[:, 0] * a + m[:, 1] * b + np.take(_NBR_DA, slot) * scale,
            m[:, 2] * a + m[:, 3] * b + np.take(_NBR_DB, slot) * scale)


def _face_axial_res(cells, res: int):
    """(face, a, b) of res-`res` cells: CellIndex -> FaceIJK
    (src/index/cell.rs:1883-1945) with IJK kept as int32 axial coords.

    The pentagon leading-digit fix and the overage adjust run on their
    own rows only: the ~2% of rows on a pentagon base cell, and the rows
    whose class II coords pass their face's edge."""
    base = (cells >> BASE_OFFSET) & 0x7F
    face = BC_HOME_FACE[base]
    on_pent = BC_IS_PENTAGON[base]
    pent = np.flatnonzero(on_pent) if res > 0 else base[:0]
    pent4 = np.zeros(cells.shape[0], dtype=bool)
    if pent.size:
        # Pentagon leading IK: rotate the digits 60 deg CW first (the new
        # leading digit is K, so only untouched rows can lead with I).
        sub = cells[pent]
        lead = bits.first_axe(sub)
        fix = lead == 5
        if fix.any():
            cells = cells.copy()
            cells[pent[fix]] = bits.rotate60(sub[fix], 1, ccw=False)
        pent4[pent[lead == 4]] = True
    a, b = digit_walk(cells, res, base)

    # Overage, at the class II res (class III coords go one CW aperture-7
    # step down first, and the adjusted rows come back up).
    res2 = res + (res & 1)
    max_dim = MAX_DIM_BY_CII_RES[res2]
    ca, cb = (3 * a - b, a + 2 * b) if res & 1 else (a, b)
    rows = np.flatnonzero(ca + cb + 3 * np.maximum(-np.minimum(ca, cb), 0)
                          > max_dim)
    if rows.size == 0:
        return face, a, b
    f, oa, ob = _adjust_overage(face[rows], ca[rows].astype(np.int64),
                                cb[rows].astype(np.int64), res2, pent4[rows])
    # Secondary overages of pentagon rows (at most five more passes).
    sec = np.flatnonzero(on_pent[rows])
    for _ in range(5 if sec.size else 0):
        sa, sb = oa[sec], ob[sec]
        sec = sec[sa + sb + 3 * np.maximum(-np.minimum(sa, sb), 0) > max_dim]
        if sec.size == 0:
            break
        f[sec], oa[sec], ob[sec] = _adjust_overage(
            f[sec], oa[sec], ob[sec], res2, np.zeros(sec.size, dtype=bool))
    if res & 1:
        # Back up to res: aperture-7 CW parent, round(x / 7) exact in ints.
        oa, ob = (2 * oa + ob + 3) // 7, (3 * ob - oa + 3) // 7
    face[rows] = f
    a[rows] = oa
    b[rows] = ob
    return face, a, b


def _face_axial(cells, res):
    """(face, a, b) of cells of any res (`res`, their resolutions, an int
    when they share one): one pass when the input has a single res, else
    one pass per res present."""
    if np.ndim(res) == 0:
        return _face_axial_res(cells, int(res))
    out = (np.empty(cells.shape[0], np.int64),
           np.empty(cells.shape[0], np.int32),
           np.empty(cells.shape[0], np.int32))
    for r, rows in res_groups(res):
        for dst, src in zip(out, _face_axial_res(cells[rows], r)):
            dst[rows] = src
    return out


def _single_res(cells):
    """The cells' resolutions: one int when they share one, else the
    per-row array."""
    res = bits.get_resolution(cells)
    if res.size == 0:
        return 0
    return int(res[0]) if (res == res[0]).all() else res


def cell_to_faceijk(cells):
    """Vectorized CellIndex -> FaceIJK (src/index/cell.rs:1883-1945).

    Returns (face, i, j, k) int64 arrays, IJK normalized.
    """
    cells = bits.as_i64(np.asarray(cells))
    face, a, b = _face_axial(cells, _single_res(cells))
    return (face, *axial_to_ijk(a, b))


# Per-component (x, y, z) rows of the face centres and tangent bases.
_CENTER_T = FACE_CENTER.T.copy()
_NORTH_T = FACE_NORTH.T.copy()
_EAST_T = FACE_EAST.T.copy()


def _hex2d_to_latlng(x, y, face, res, is_substrate: bool):
    """Inverse gnomonic: hex2d on a face -> (lat_rad, lng_rad) of the unit
    n-vector (vec3d.rs:51-109).

    `res` is one res or an array of (extended) resolutions. The vector is
    built one component at a time; each component takes the same float
    operations in the same order as the reference's 3-vector form.
    """
    r = np.sqrt(x * x + y * y)

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
        if class3.any():
            rot = _to_positive_angle(theta + AP7_ROT_RADS)
            theta = rot if class3.all() else np.where(class3, rot, theta)
    theta = _to_positive_angle(FACE_AXES_AZ_RADS_CII[face] - theta)

    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    v = []
    for c in range(3):
        center = _CENTER_T[c][face]
        direction = cos_t * _NORTH_T[c][face] + sin_t * _EAST_T[c][face]
        v.append((cos_r * center + sin_r * direction, center))
    norm = np.sqrt((v[0][0] * v[0][0] + v[1][0] * v[1][0])
                   + v[2][0] * v[2][0])
    pos = norm > 0
    out = []
    for comp, center in v:
        if pos.all():
            comp = comp / norm
        else:
            with np.errstate(invalid="ignore", divide="ignore"):
                comp = np.where(pos, comp / norm, 0.0)
        out.append(np.where(small, center, comp) if small.any() else comp)
    return np.arcsin(np.clip(out[2], -1.0, 1.0)), np.arctan2(out[1], out[0])


def _cell_to_latlng_rads(cells):
    """cellToLatLng of int64 cells known to be valid; (lat_rad, lng_rad)."""
    res = _single_res(cells)
    face, a, b = _face_axial(cells, res)
    jj = b.astype(np.float64)
    x = a.astype(np.float64) - 0.5 * jj
    y = jj * SQRT3_2
    return _hex2d_to_latlng(x, y, face, res, is_substrate=False)


def cell_to_latlng_rads(cells):
    """Vectorized cellToLatLng; returns (lat_rad, lng_rad).

    Raises `InvalidCell` when a row is not a valid cell index."""
    return _cell_to_latlng_rads(check_cells(cells))


def cell_to_latlng(cells):
    """Vectorized cellToLatLng; returns (lat_deg, lng_deg).

    Raises `InvalidCell` when a row is not a valid cell index."""
    lat, lng = cell_to_latlng_rads(cells)
    return np.rad2deg(lat), np.rad2deg(lng)
