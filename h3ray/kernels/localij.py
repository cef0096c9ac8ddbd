"""Vectorized local IJ(K) coordinates, grid distance, and grid paths.

Local IJK coordinates anchor a hex-grid coordinate system at an origin cell
(reference: src/coord/localij.rs, src/index/cell.rs:1702-1834 to_local_ijk,
cell.rs:1294-1363 grid_distance / grid_path_cells). All kernels operate on
parallel NumPy int64 arrays of (origin, index) pairs and return an `ok` mask
instead of raising: moves across pentagon-deleted subsequences or across more
than one icosahedron face are undefined, exactly as in the reference.
"""

from __future__ import annotations

import numpy as np

from . import bits
from .constants import DEFAULT_CELL_INDEX
from ._tables import BC_IS_PENTAGON, BC_NEIGHBOR_60CCW_ROTS, BC_NEIGHBORS
from .latlng import (
    _down_aperture7,
    axial_to_ijk,
    digit_walk,
    res_groups,
    _normalize_ijk,
    _rotate60_ijk,
    _round_half_away,
    _up_aperture7,
)

# Pentagon unfolding rotation tables (src/index/cell.rs:96-120 and
# src/coord/localij.rs:275-313). 0xff marks the invalid K-axis entries; we use
# -1 so masked arithmetic stays in int64.
_X = -1
PENTAGON_ROTATIONS = np.array([
    [0, _X, 0, 0, 0, 0, 0],
    [_X, _X, _X, _X, _X, _X, _X],
    [0, _X, 0, 0, 0, 1, 0],
    [0, _X, 0, 0, 1, 1, 0],
    [0, _X, 0, 5, 0, 0, 0],
    [0, _X, 5, 5, 0, 0, 0],
    [0, _X, 0, 0, 0, 0, 0],
], dtype=np.int64)

PENTAGON_ROTATIONS_REVERSE = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [_X, _X, _X, _X, _X, _X, _X],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 1, 0],
    [0, 5, 0, 0, 0, 0, 0],
    [0, 5, 0, 5, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
], dtype=np.int64)

PENTAGON_ROTATIONS_REVERSE_NONPOLAR = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [_X, _X, _X, _X, _X, _X, _X],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 1, 0],
    [0, 5, 0, 0, 0, 0, 0],
    [0, 1, 0, 5, 1, 1, 0],
    [0, 0, 0, 0, 0, 0, 0],
], dtype=np.int64)

PENTAGON_ROTATIONS_REVERSE_POLAR = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [_X, _X, _X, _X, _X, _X, _X],
    [0, 1, 1, 1, 1, 1, 1],
    [0, 1, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 1, 1, 1],
    [0, 1, 0, 5, 1, 1, 0],
    [0, 1, 1, 0, 1, 1, 1],
], dtype=np.int64)

# Prohibited (origin_dir, index_dir) pairs when unfolding a pentagon
# (src/index/cell.rs:106-120 FAILED_DIRECTIONS bitmask).
_FAILED = np.int64(0b0101000_1000100_0001100_1010000_0110000_0000000_0000000)
FAILED_DIRECTIONS = np.array(
    [(_FAILED >> (o * 7 + i)) & 1 for o in range(7) for i in range(7)],
    dtype=bool).reshape(7, 7)


def _bc_direction(from_base, to_base):
    """Direction digit from base cell to a neighboring base cell, -1 if not
    adjacent (src/base_cell.rs:146-158)."""
    from_base = np.asarray(from_base, dtype=np.int64)
    to_base = np.asarray(to_base, dtype=np.int64)
    out = np.full(from_base.shape, -1, dtype=np.int64)
    for d in range(7):
        hit = (BC_NEIGHBORS[from_base, d] == to_base) & (out == -1)
        out = np.where(hit, d, out)
    return out


def _ijk_to_direction(i, j, k):
    """Normalized unit IJK -> direction digit; -1 when not a unit coordinate
    (src/direction.rs Direction::try_from(CoordIJK))."""
    digit = (i << 2) | (j << 1) | k
    unit = (i <= 1) & (j <= 1) & (k <= 1) & (i >= 0) & (j >= 0) & (k >= 0)
    return np.where(unit & (digit != 7), digit, -1)


def _rotate60_count(cells, counts, ccw: bool):
    """Rotate each cell by a per-row count of 60° steps."""
    out = cells
    for c in range(1, 6):
        m = counts == c
        if m.any():
            out = np.where(m, bits.rotate60(cells, c, ccw=ccw), out)
    return out


def _pentagon_rotate_n(cells, counts, ccw: bool):
    """Apply pentagon_rotate60 `counts[i]` times to row i."""
    out = cells.copy()
    todo = counts.copy()
    while (todo > 0).any():
        m = todo > 0
        out = np.where(m, bits.pentagon_rotate60(out, ccw=ccw), out)
        todo -= m
    return out


def cell_to_local_ijk(origins, cells):
    """Vectorized to_local_ijk (src/index/cell.rs:1702-1834).

    Args:
        origins, cells: (n,) int64 cell bits at the SAME resolution.

    Returns:
        (i, j, k, ok) int64/bool arrays. Rows with ok=False have no defined
        local coordinate (pentagon distortion / non-neighboring base cells /
        resolution mismatch).
    """
    origins = bits.as_i64(np.asarray(origins))
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    res_o = bits.get_resolution(origins)
    res_i = bits.get_resolution(cells)
    ok = res_o == res_i

    obase = bits.get_base_cell(origins)
    ibase = bits.get_base_cell(cells)
    same_base = obase == ibase

    # Direction between base cells (Center when equal).
    direction = np.where(same_base, 0, _bc_direction(obase, ibase))
    rev_dir = np.where(same_base, 0, _bc_direction(ibase, obase))
    ok &= direction >= 0  # base cells must be neighbors (or equal)
    direction = np.maximum(direction, 0)
    rev_dir = np.maximum(rev_dir, 0)

    origin_on_pent = BC_IS_PENTAGON[obase]
    index_on_pent = BC_IS_PENTAGON[ibase]

    work = cells.copy()
    moved = direction != 0
    if moved.any():
        bc_rot = np.where(moved, BC_NEIGHBOR_60CCW_ROTS[obase, direction], 0)
        # Pentagon-index rows: rotate once per step, bumping rev_dir past IK.
        pent_rows = moved & index_on_pent
        if pent_rows.any():
            todo = np.where(pent_rows, bc_rot, 0)
            while (todo > 0).any():
                m = todo > 0
                step = np.where(rev_dir == 5, 2, 1)  # skip the deleted K axe
                rd = bits.ROTATE60_CW_N[np.where(m, step, 0), rev_dir]
                rev_dir = np.where(m, rd, rev_dir)
                work = np.where(m, bits.pentagon_rotate60(work, ccw=False),
                                work)
                todo -= m
        hex_rows = moved & ~index_on_pent
        if hex_rows.any():
            cnt = np.where(hex_rows, bc_rot, 0)
            rev_dir = bits.ROTATE60_CW_N[cnt % 6, rev_dir]
            work = _rotate60_count(work, cnt, ccw=False)

    # The digits' IJK in base-cell coordinate space: the decode's digit
    # walk from the origin (FaceIJK::from_bits, faceijk.rs:135-160).
    a = np.empty(n, dtype=np.int32)
    b = np.empty(n, dtype=np.int32)
    for r, rows in res_groups(res_i):
        if rows is None:
            a, b = digit_walk(work, r)
        else:
            a[rows], b[rows] = digit_walk(work[rows], r)
    i, j, k = axial_to_ijk(a, b)
    res_max = int(res_i.max()) if n else 0

    if moved.any():
        # Pentagon unfolding rotations (cell.rs:1760-1800).
        pr = np.zeros(n, dtype=np.int64)
        dr = np.zeros(n, dtype=np.int64)
        m_op = moved & origin_on_pent
        if m_op.any():
            lead = bits.first_axe(origins)
            ok &= ~(m_op & FAILED_DIRECTIONS[lead, direction])
            r = PENTAGON_ROTATIONS[lead, direction]
            ok &= ~(m_op & (r < 0))
            pr = np.where(m_op, np.maximum(r, 0), pr)
            dr = np.where(m_op, np.maximum(r, 0), dr)
        m_ip = moved & index_on_pent
        if m_ip.any():
            lead = bits.first_axe(work)
            ok &= ~(m_ip & FAILED_DIRECTIONS[lead, rev_dir])
            r = PENTAGON_ROTATIONS[rev_dir, lead]
            ok &= ~(m_ip & (r < 0))
            pr = np.where(m_ip, np.maximum(r, 0), pr)

        for _ in range(5):
            m = pr > 0
            if not m.any():
                break
            ri, rj, rk = _rotate60_ijk(i, j, k, ccw=False)
            i, j, k = (np.where(m, ri, i), np.where(m, rj, j),
                       np.where(m, rk, k))
            pr = pr - m

        # Offset of the neighboring base cell, scaled down to `res`.
        dijk = bits.DIGIT_IJK[direction]
        oi = dijk[:, 0].copy()
        oj = dijk[:, 1].copy()
        okk = dijk[:, 2].copy()
        for r in range(1, res_max + 1):
            m = r <= res_o
            if not m.any():
                continue
            ccw = (r % 2) == 1
            ni, nj, nk = _down_aperture7(oi, oj, okk, ccw=ccw)
            oi = np.where(m, ni, oi)
            oj = np.where(m, nj, oj)
            okk = np.where(m, nk, okk)
        for _ in range(5):
            m = dr > 0
            if not m.any():
                break
            ri, rj, rk = _rotate60_ijk(oi, oj, okk, ccw=False)
            oi, oj, okk = (np.where(m, ri, oi), np.where(m, rj, oj),
                           np.where(m, rk, okk))
            dr = dr - m
        ti, tj, tk = _normalize_ijk(i + oi, j + oj, k + okk)
        i = np.where(moved, ti, i)
        j = np.where(moved, tj, j)
        k = np.where(moved, tk, k)

    m_pp = ~moved & origin_on_pent & index_on_pent & same_base
    if m_pp.any():
        olead = bits.first_axe(origins)
        ilead = bits.first_axe(work)
        ok &= ~(m_pp & FAILED_DIRECTIONS[olead, ilead])
        r = PENTAGON_ROTATIONS[olead, ilead]
        ok &= ~(m_pp & (r < 0))
        rot = np.where(m_pp, np.maximum(r, 0), 0)
        for _ in range(5):
            m = rot > 0
            if not m.any():
                break
            ri, rj, rk = _rotate60_ijk(i, j, k, ccw=False)
            i, j, k = (np.where(m, ri, i), np.where(m, rj, j),
                       np.where(m, rk, k))
            rot = rot - m

    return i, j, k, ok


def cell_to_local_ij(origins, cells):
    """Vectorized cellToLocalIj (cell.rs:1482-1486): returns (i, j, ok)."""
    i, j, k, ok = cell_to_local_ijk(origins, cells)
    return i - k, j - k, ok


def local_ijk_to_cell(origins, i, j, k):
    """Vectorized TryFrom<LocalIJK> for CellIndex (src/coord/localij.rs:45-184).

    Returns (cells, ok).
    """
    origins = bits.as_i64(np.asarray(origins))
    i = np.asarray(i, dtype=np.int64).copy()
    j = np.asarray(j, dtype=np.int64).copy()
    k = np.asarray(k, dtype=np.int64).copy()
    n = origins.shape[0]
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, bool)
    res = bits.get_resolution(origins)
    obase = bits.get_base_cell(origins)
    origin_on_pent = BC_IS_PENTAGON[obase]
    ok = np.ones(n, dtype=bool)

    out = bits.set_resolution(
        np.full(n, DEFAULT_CELL_INDEX, dtype=np.int64), res)

    # Res-0 rows resolve directly to a neighboring base cell.
    res0 = res == 0
    if res0.any():
        d0 = _ijk_to_direction(i, j, k)
        ok &= ~(res0 & (d0 < 0))
        nb = BC_NEIGHBORS[obase, np.maximum(d0, 0)]
        ok &= ~(res0 & (nb == 255))
        out0 = bits.set_base_cell(out, np.where(nb == 255, 0, nb))
        if res0.all():
            return np.where(ok, out0, 0), ok

    # Walk finest->coarsest extracting digits; ijk ends as the base-cell
    # offset in the origin base cell's coordinate system.
    res_max = int(res.max())
    for r in range(res_max, 0, -1):
        m = r <= res
        if not m.any():
            continue
        ccw = (r % 2) == 1
        ui, uj, uk = _up_aperture7(i, j, k, ccw=ccw)
        ci, cj, ck = _down_aperture7(ui, uj, uk, ccw=ccw)
        di, dj, dk = _normalize_ijk(i - ci, j - cj, k - ck)
        digit = _ijk_to_direction(di, dj, dk)
        ok &= ~(m & (digit < 0))
        out = np.where(m, bits.set_direction(out, np.maximum(digit, 0), r),
                       out)
        i = np.where(m, ui, i)
        j = np.where(m, uj, j)
        k = np.where(m, uk, k)

    direction = _ijk_to_direction(i, j, k)
    ok &= direction >= 0
    direction = np.maximum(direction, 0)
    base_cell = BC_NEIGHBORS[obase, direction].astype(np.int64)
    index_on_pent = (base_cell != 255) & BC_IS_PENTAGON[base_cell % 122]

    moved = direction != 0
    if moved.any():
        pent_rot = np.zeros(n, dtype=np.int64)
        m_op = moved & origin_on_pent
        if m_op.any():
            lead = bits.first_axe(origins)
            r = PENTAGON_ROTATIONS_REVERSE[lead, direction]
            ok &= ~(m_op & (r < 0))
            pent_rot = np.where(m_op, np.maximum(r, 0), 0)
            nd = bits.ROTATE60_CCW_N[pent_rot % 6, direction]
            direction = np.where(m_op, nd, direction)
            nb = BC_NEIGHBORS[obase, direction].astype(np.int64)
            ok &= ~(m_op & (nb == 255))
            base_cell = np.where(m_op, nb, base_cell)
            index_on_pent &= ~m_op

        bc_rot = np.where(moved, BC_NEIGHBOR_60CCW_ROTS[obase, direction], 0)
        m_ip = moved & index_on_pent
        if m_ip.any():
            rd = _bc_direction(base_cell % 122, obase)
            work = _rotate60_count(out, np.where(m_ip, bc_rot, 0), ccw=True)
            out = np.where(m_ip, work, out)
            lead = bits.first_axe(out)
            polar = (base_cell == 4) | (base_cell == 117)
            r = np.where(polar,
                         PENTAGON_ROTATIONS_REVERSE_POLAR[
                             np.maximum(rd, 0), lead],
                         PENTAGON_ROTATIONS_REVERSE_NONPOLAR[
                             np.maximum(rd, 0), lead])
            ok &= ~(m_ip & ((r < 0) | (rd < 0)))
            out = _pentagon_rotate_n(out, np.where(m_ip, np.maximum(r, 0), 0),
                                     ccw=True)
        m_hex = moved & ~index_on_pent
        if m_hex.any():
            cnt = np.where(m_hex, (pent_rot + bc_rot) % 6, 0)
            out = _rotate60_count(out, cnt, ccw=True)
    m_pp = ~moved & origin_on_pent & index_on_pent
    if m_pp.any():
        olead = bits.first_axe(origins)
        ilead = bits.first_axe(out)
        r = PENTAGON_ROTATIONS_REVERSE[olead, ilead]
        ok &= ~(m_pp & (r < 0))
        out = _rotate60_count(out, np.where(m_pp, np.maximum(r, 0), 0),
                              ccw=True)

    ok &= ~(index_on_pent & (bits.first_axe(out) == 1))
    ok &= base_cell != 255
    out = bits.set_base_cell(out, np.where(base_cell == 255, 0, base_cell))
    if res0.any():
        out = np.where(res0, out0, out)
    return np.where(ok, out, 0), ok


def local_ij_to_cell(origins, i, j):
    """Vectorized localIjToCell: (anchor, i, j) -> cell (localij.rs:247-257)."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    ni, nj, nk = _normalize_ijk(i, j, np.zeros_like(i))
    return local_ijk_to_cell(origins, ni, nj, nk)


def grid_distance(origins, cells):
    """Vectorized gridDistance (cell.rs:1294-1299, ijk.rs:129-133).

    Returns (dist, ok); dist is max(|di|,|dj|,|dk|) of the local-IJK delta.
    """
    ai, aj, ak, ok_a = cell_to_local_ijk(origins, origins)
    bi, bj, bk, ok_b = cell_to_local_ijk(origins, cells)
    di, dj, dk = _normalize_ijk(ai - bi, aj - bj, ak - bk)
    dist = np.maximum(np.abs(di), np.maximum(np.abs(dj), np.abs(dk)))
    return dist, ok_a & ok_b


# ---------------------------------------------------------------------------
# Grid path (cube-coordinate line rasterization)
# ---------------------------------------------------------------------------

def _cube_round(fi, fj, fk):
    """Cube rounding (src/coord/cube.rs:26-49; Rust round = half away)."""
    ri = _round_half_away(fi)
    rj = _round_half_away(fj)
    rk = _round_half_away(fk)
    di = np.abs(ri - fi)
    dj = np.abs(rj - fj)
    dk = np.abs(rk - fk)
    fix_i = (di > dj) & (di > dk)
    fix_j = ~fix_i & (dj > dk)
    fix_k = ~fix_i & ~fix_j
    ri = np.where(fix_i, -rj - rk, ri)
    rj = np.where(fix_j, -ri - rk, rj)
    rk = np.where(fix_k, -ri - rj, rk)
    return ri.astype(np.int64), rj.astype(np.int64), rk.astype(np.int64)


def grid_path_cells(origins, destinations):
    """Vectorized gridPathCells (cell.rs:1320-1363, iterator/grid_path.rs).

    Returns (row, cell, ok_rows): flat expansion where `row` indexes the input
    pair and cells are ordered origin->destination. Rows with ok=False emit
    nothing (undefined path, e.g. across a pentagon).
    """
    origins = bits.as_i64(np.asarray(origins))
    destinations = bits.as_i64(np.asarray(destinations))
    n = origins.shape[0]
    dist, ok = grid_distance(origins, destinations)

    si, sj, sk, ok_s = cell_to_local_ijk(origins, origins)
    ei, ej, ek, ok_e = cell_to_local_ijk(origins, destinations)
    ok &= ok_s & ok_e
    # IJK -> cube coords (i=-i, j, k ignored -> reconstruct): cube.rs uses
    # (i, j, k) = (-(i - k), j - k, ...) with i + j + k = 0.
    ci0 = -(si - sk).astype(np.float64)
    cj0 = (sj - sk).astype(np.float64)
    ci1 = -(ei - ek).astype(np.float64)
    cj1 = (ej - ek).astype(np.float64)
    ck0 = -ci0 - cj0
    ck1 = -ci1 - cj1

    rows_out = []
    cells_out = []
    # Exact step arithmetic as GridPathCells (grid_path.rs:44-52, 71-76):
    # step = (end-start) * (1/distance); coord = start + step * n.
    inv_d = np.where(dist > 0, 1.0 / np.maximum(dist, 1), 0.0)
    step_i = (ci1 - ci0) * inv_d
    step_j = (cj1 - cj0) * inv_d
    step_k = (ck1 - ck0) * inv_d
    max_d = int(dist[ok].max()) if ok.any() else 0
    for step in range(0, max_d + 1):
        m = ok & (step <= dist)
        if not m.any():
            continue
        fi = ci0 + step_i * step
        fj = cj0 + step_j * step
        fk = ck0 + step_k * step
        ri, rj, rk = _cube_round(fi, fj, fk)
        # Cube -> IJK: i=-ri, j=rj, k=0, then normalize.
        ii, jj, kk = _normalize_ijk(-ri, rj, np.zeros_like(ri))
        cell, ok_c = local_ijk_to_cell(origins, ii, jj, kk)
        m &= ok_c
        rows_out.append(np.where(m)[0])
        cells_out.append(cell[m])
        ok &= ~((step <= dist) & ~ok_c)

    if not rows_out:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.zeros(n, dtype=bool))
    row = np.concatenate(rows_out)
    cell = np.concatenate(cells_out)
    order = np.argsort(row, kind="stable")
    # argsort(stable) keeps per-row step order because we appended step-major;
    # re-sort by (row, step) via stable sort on row only.
    return row[order], cell[order], ok


def grid_path_cells_size(origins, destinations):
    """Vectorized gridPathCellsSize (cell.rs:1320-1363): number of cells in
    the origin->destination line, i.e. gridDistance + 1. Returns (size, ok);
    size is undefined (left as dist+1) where ok is False."""
    dist, ok = grid_distance(origins, destinations)
    return dist + 1, ok
