"""Vectorized H3 grid traversal: neighbors, disks, rings.

Core primitive is `neighbor_rotations` (reference: src/grid/algo.rs:26-169),
vectorized over arrays of origins. The k-ring spiral walk (grid disk / ring,
reference: src/grid/iterator.rs) uses the *same* deterministic move sequence
for every origin, so a batch of N origins expands with ~3k(k+1) whole-array
neighbor steps; the rare pentagon-distorted origins fall back to a per-row
BFS (safe algorithm), mirroring the reference's try-fast-then-safe pattern
(src/index/cell.rs:1043-1050).
"""

from __future__ import annotations

import numpy as np

from . import bits
from ._tables import (
    BC_CW_OFFSET,
    BC_HOME_FACE,
    BC_IS_PENTAGON,
    BC_NEIGHBOR_60CCW_ROTS,
    BC_NEIGHBORS,
    NEW_ADJUSTMENT_II,
    NEW_ADJUSTMENT_III,
    NEW_DIRECTION_II,
    NEW_DIRECTION_III,
)

# Ring traversal directions, CCW around {1, 0, 0} (grid/iterator.rs:19-36).
RING_DIRECTIONS = np.array([2, 3, 1, 5, 4, 6], dtype=np.int64)  # J JK K IK I IJ
NEXT_RING_DIRECTION = 4  # I


def max_grid_disk_size(k: int) -> int:
    """3k(k+1)+1 (lib.rs:314-326)."""
    return 3 * k * (k + 1) + 1


def max_grid_ring_size(k: int) -> int:
    return 6 * k if k > 0 else 1


# Digit-move tables indexed by resolution parity: [res & 1, from, direction].
_NEW_DIRECTION = np.stack([NEW_DIRECTION_III, NEW_DIRECTION_II])
_NEW_ADJUSTMENT = np.stack([NEW_ADJUSTMENT_III, NEW_ADJUSTMENT_II])


def neighbor_rotations(cells, direction, rotations):
    """Vectorized neighbor-in-direction with rotation tracking.

    Args:
        cells: (n,) int64 cell bits.
        direction: scalar or (n,) direction 1..6.
        rotations: scalar or (n,) number of CCW rotations of the direction.

    Returns:
        (neighbor_bits, new_rotations, valid) — `valid` is False where the
        move crosses a pentagon's deleted K axis (result undefined).

    Fast path: a move that resolves at the finest digit (no carry into the
    parent) of a cell outside the pentagon base cells is one digit write
    with the rotations unchanged. Only the remaining rows take the full
    digit walk (`_neighbor_rotations_walk`), which agrees with the fast
    path on every row it covers.
    """
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    rotations = np.broadcast_to(np.asarray(rotations, dtype=np.int64), (n,))
    direction = np.broadcast_to(np.asarray(direction, dtype=np.int64), (n,))
    res = bits.get_resolution(cells)
    fine = np.maximum(res, 1)  # res-0 cells have no digit; never fast
    parity = fine & 1
    frm = np.where(res > 0, bits.get_direction(cells, fine), 0)
    cur_dir = bits.ROTATE60_CCW_N[rotations % 6, direction]
    fast = (_NEW_ADJUSTMENT[parity, frm, cur_dir] == 0) & (res > 0) & \
        ~BC_IS_PENTAGON[bits.get_base_cell(cells)]
    current = bits.set_direction(cells, _NEW_DIRECTION[parity, frm, cur_dir],
                                 fine)
    new_rot = rotations % 6
    valid = np.ones(n, dtype=bool)
    slow = np.flatnonzero(~fast)
    if slow.size:
        current[slow], new_rot[slow], valid[slow] = _neighbor_rotations_walk(
            cells[slow], direction[slow], rotations[slow])
    return current, new_rot, valid


def _neighbor_rotations_walk(cells, direction, rotations):
    """Full digit walk of `neighbor_rotations` (src/grid/algo.rs:26-169):
    finest-to-coarsest digit adjustment, base-cell hop, pentagon fixups.
    Same arguments and returns; correct for every row."""
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    rotations = np.broadcast_to(np.asarray(rotations, dtype=np.int64), (n,)).copy()
    direction = np.broadcast_to(np.asarray(direction, dtype=np.int64), (n,))

    current = cells.copy()
    cur_dir = bits.ROTATE60_CCW_N[rotations % 6, direction]
    res = bits.get_resolution(cells)
    valid = np.ones(n, dtype=bool)

    # Adjust indexing digits from finest to coarsest.
    adjusting = np.ones(n, dtype=bool)
    res_var = res.copy()
    max_res = int(res.max()) if n else 0
    for resolution in range(max_res, 0, -1):
        m = adjusting & (resolution <= res)
        if not m.any():
            continue
        frm = np.where(m, bits.get_direction(current, resolution), 0)
        odd = (resolution % 2) == 1
        tbl_dir = NEW_DIRECTION_II if odd else NEW_DIRECTION_III
        tbl_adj = NEW_ADJUSTMENT_II if odd else NEW_ADJUSTMENT_III
        nd = tbl_dir[frm, cur_dir]
        na = tbl_adj[frm, cur_dir]
        current = np.where(m, bits.set_direction(current, nd, resolution), current)
        done = m & (na == 0)
        adjusting &= ~done
        cont = m & ~done
        cur_dir = np.where(cont, na, cur_dir)
        res_var = np.where(cont, resolution - 1, res_var)

    # Base-cell hop for rows that adjusted all the way down.
    old_base = bits.get_base_cell(cells)
    new_rotations = np.zeros(n, dtype=np.int64)
    base_hop = res_var == 0
    if base_hop.any():
        safe_dir = np.where(base_hop, cur_dir, 1)
        nbr = BC_NEIGHBORS[old_base, safe_dir]
        invalid_k = base_hop & (nbr == 255)
        nbr_ik = BC_NEIGHBORS[old_base, 5]  # IK
        target = np.where(invalid_k, nbr_ik, nbr)
        current = np.where(base_hop, bits.set_base_cell(current, target), current)
        if invalid_k.any():
            current = np.where(invalid_k, bits.rotate60(current, 1, ccw=True),
                               current)
            rotations += invalid_k
        new_rotations = np.where(
            base_hop,
            np.where(invalid_k, BC_NEIGHBOR_60CCW_ROTS[old_base, 5],
                     BC_NEIGHBOR_60CCW_ROTS[old_base, safe_dir]),
            0)

    # Pentagon fixups (algo.rs:92-160).
    new_base = bits.get_base_cell(current)
    pent = BC_IS_PENTAGON[new_base]
    if pent.any():
        adjusted_k = np.zeros(n, dtype=bool)
        leading_k = bits.first_axe(current) == 1
        m1 = pent & leading_k
        same_base = old_base == new_base

        m_same = m1 & same_base
        if m_same.any():
            old_lead = bits.first_axe(cells)
            valid &= ~(m_same & (old_lead == 0))
            mjk = m_same & (old_lead == 3)
            if mjk.any():
                current = np.where(mjk, bits.rotate60(current, 1, ccw=True),
                                   current)
                rotations += mjk
            mik = m_same & (old_lead == 5)
            if mik.any():
                current = np.where(mik, bits.rotate60(current, 1, ccw=False),
                                   current)
                rotations += 5 * mik

        m_diff = m1 & ~same_base
        if m_diff.any():
            old_home = BC_HOME_FACE[old_base]
            cw_off = (BC_CW_OFFSET[new_base, 0] == old_home) | (
                BC_CW_OFFSET[new_base, 1] == old_home)
            mcw = m_diff & cw_off
            if mcw.any():
                current = np.where(mcw, bits.rotate60(current, 1, ccw=False),
                                   current)
            adjusted_k = m_diff

        todo = np.where(pent, new_rotations, 0)
        while (todo > 0).any():
            m = todo > 0
            current = np.where(m, bits.pentagon_rotate60(current, ccw=True),
                               current)
            todo -= m

        m_o = pent & (old_base != new_base)
        if m_o.any():
            dir_now = bits.first_axe(current)
            polar = (new_base == 4) | (new_base == 117)
            rotations += (m_o & polar & (old_base != 118) & (old_base != 8)
                          & (dir_now != 3))
            rotations += (m_o & ~polar & ~adjusted_k & (dir_now == 5))

    hex_rot = ~pent & (new_rotations != 0)
    for count in range(1, 6):
        m = np.flatnonzero(hex_rot & (new_rotations == count))
        if m.size:
            current[m] = bits.rotate60(current[m], count, ccw=True)

    return current, (rotations + new_rotations) % 6, valid


# ---------------------------------------------------------------------------
# Grid disk / ring — batch spiral walk with safe BFS fallback
# ---------------------------------------------------------------------------

def _spiral_moves(k: int):
    """The deterministic unsafe-disk move sequence for rings 1..k.

    Yields (direction, ring_distance, is_new_ring_move). The first move of
    each ring (direction I) lands on a cell of the *previous* position; its
    output is produced by the subsequent side moves — mirroring
    DiskDistancesUnsafe (grid/iterator.rs:102-207): each `next()` first
    optionally hops ring (no emit), then moves one side-step and emits.
    """
    for ring in range(1, k + 1):
        yield NEXT_RING_DIRECTION, ring, True
        for side in range(6):
            for _ in range(ring):
                yield int(RING_DIRECTIONS[side]), ring, False


def grid_disk_fast_batch(cells, k: int):
    """Batch unsafe grid disk.

    Returns (out, dist, failed): out is (n, 3k(k+1)+1) int64 (0-filled after
    failure), dist the matching ring distances, failed the rows that hit a
    pentagon and need the safe fallback.
    """
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    size = max_grid_disk_size(k)
    out = np.zeros((n, size), dtype=np.int64)
    dist = np.zeros((n, size), dtype=np.int64)
    failed = bits.is_pentagon(cells).copy()

    out[:, 0] = cells
    col = 1
    origin = cells.copy()
    rot = np.zeros(n, dtype=np.int64)
    for direction, ring, is_hop in _spiral_moves(k):
        origin, rot, valid = neighbor_rotations(origin, direction, rot)
        failed |= ~valid
        failed |= bits.is_pentagon(origin)
        if not is_hop:
            out[:, col] = origin
            dist[:, col] = ring
            col += 1
    assert col == size
    out[failed] = 0
    return out, dist, failed


def grid_disk_safe_single(cell: int, k: int):
    """Per-origin BFS (safe) disk with distances (grid/iterator.rs:40-97)."""
    from collections import deque
    seen = {}
    q = deque([(int(cell), 0)])
    while q:
        c, ring = q.popleft()
        if ring > k or c in seen:
            continue
        seen[c] = ring
        if ring < k:
            arr = np.full(6, c, dtype=np.int64)
            nbrs, _, valid = neighbor_rotations(arr, RING_DIRECTIONS, 0)
            for nb, ok in zip(nbrs, valid):
                if ok:
                    q.append((int(nb), ring + 1))
    cells = np.fromiter(seen.keys(), dtype=np.int64, count=len(seen))
    dists = np.fromiter(seen.values(), dtype=np.int64, count=len(seen))
    return cells, dists


def grid_disk_distances(cells, k: int):
    """Batch grid disk with distances (fast path + safe fallback).

    Returns (origin_row, cell, distance) flat int64 arrays, where origin_row
    indexes into the input array.
    """
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    if k == 0:
        return np.arange(n, dtype=np.int64), cells.copy(), np.zeros(n, np.int64)
    out, dist, failed = grid_disk_fast_batch(cells, k)
    ok_rows = np.where(~failed)[0]
    size = out.shape[1]
    parts_o = [np.repeat(ok_rows, size)]
    parts_c = [out[ok_rows].ravel()]
    parts_d = [dist[ok_rows].ravel()]
    for row in np.where(failed)[0]:
        c, d = grid_disk_safe_single(cells[row], k)
        parts_o.append(np.full(c.shape[0], row, dtype=np.int64))
        parts_c.append(c)
        parts_d.append(d)
    return (np.concatenate(parts_o), np.concatenate(parts_c),
            np.concatenate(parts_d))


def grid_ring(cells, k: int):
    """Batch hollow ring at exactly distance k.

    Returns (origin_row, cell) flat arrays. Uses the fast ring walk with safe
    fallback (grid/iterator.rs:212-304, cell.rs:1233-1269).
    """
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    if k == 0:
        return np.arange(n, dtype=np.int64), cells.copy()

    failed = bits.is_pentagon(cells).copy()
    origin = cells.copy()
    rot = np.zeros(n, dtype=np.int64)
    for _ in range(k):
        origin, rot, valid = neighbor_rotations(origin, NEXT_RING_DIRECTION, rot)
        failed |= ~valid | bits.is_pentagon(origin)

    size = 6 * k
    out = np.zeros((n, size), dtype=np.int64)
    first = origin.copy()
    col = 0
    for side in range(6):
        for _ in range(k):
            out[:, col] = origin
            origin, rot, valid = neighbor_rotations(
                origin, int(RING_DIRECTIONS[side]), rot)
            failed |= ~valid | bits.is_pentagon(origin)
            col += 1
    # Pentagon distortion check: the walk must close the loop.
    failed |= origin != first
    out[failed] = 0

    ok_rows = np.where(~failed)[0]
    parts_o = [np.repeat(ok_rows, size)]
    parts_c = [out[ok_rows].ravel()]
    for row in np.where(failed)[0]:
        c, d = grid_disk_safe_single(cells[row], k)
        sel = d == k
        parts_o.append(np.full(int(sel.sum()), row, dtype=np.int64))
        parts_c.append(c[sel])
    return np.concatenate(parts_o), np.concatenate(parts_c)


def are_neighbor_cells(origins, destinations):
    """Vectorized areNeighborCells (cell.rs:1386-1445 semantics via disk-1)."""
    origins = bits.as_i64(np.asarray(origins))
    destinations = bits.as_i64(np.asarray(destinations))
    same = origins == destinations
    res_a = bits.get_resolution(origins)
    res_b = bits.get_resolution(destinations)
    out = np.zeros(origins.shape[0], dtype=bool)
    for d in range(6):
        nbrs, _, valid = neighbor_rotations(origins, int(RING_DIRECTIONS[d]), 0)
        out |= valid & (nbrs == destinations)
    return out & ~same & (res_a == res_b)
