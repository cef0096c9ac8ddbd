"""Vectorized H3 grid traversal: neighbors, disks, rings.

Core primitive is `neighbor_rotations` (reference: src/grid/algo.rs:26-169),
vectorized over arrays of origins: one table lookup for the moves that stay
inside their parent, and a digit walk for the rest in which each res level,
the base-cell hop and the pentagon fix-ups run on their own rows only. The
k-ring spiral walk (grid disk / ring, reference: src/grid/iterator.rs)
uses the *same* deterministic move sequence for every origin, so a batch of
N origins expands with ~3k(k+1) whole-array neighbor steps; the rare
pentagon-distorted origins fall back to the safe BFS, all of them together
one ring at a time (`grid_disk_safe`), mirroring the reference's
try-fast-then-safe pattern (src/index/cell.rs:1043-1050).
"""

from __future__ import annotations

import functools

import numpy as np

from . import bits
from .latlng import res_groups
from .constants import BASE_OFFSET, MAX_RESOLUTION, RES_OFFSET
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


@functools.lru_cache(maxsize=None)
def _group_moves(odd: int, size: int) -> np.ndarray:
    """One digit-move lookup for `size` adjacent digits (algo.rs:42-66),
    [field * 7 + direction], where the field holds the digits with the
    finest in bits 0-2 and that finest digit's res has parity `odd`: the
    new field, plus above bit 3·size the direction the move carries into
    the next coarser digit, 0 when it stops inside the field. (An unused
    digit 7 never occurs in a valid cell; the move stops there.)"""
    field = np.repeat(np.arange(8 ** size), 7)
    cd = np.tile(np.arange(7), 8 ** size)
    new = field.copy()
    live = np.ones(field.shape[0], dtype=bool)
    for pos in range(size):
        digit = (field >> 3 * pos) & 7
        live &= digit < 7
        par = odd ^ (pos & 1)
        nd = _NEW_DIRECTION[par][np.minimum(digit, 6), cd]
        na = _NEW_ADJUSTMENT[par][np.minimum(digit, 6), cd]
        new = np.where(live, (new & ~(7 << 3 * pos)) | (nd << 3 * pos), new)
        cd = np.where(live, na, 0)
        live &= na != 0
    return new | (cd << 3 * size)


# The fast path's lookup, [res & 1][field of the finest 3 digits * 7 +
# direction]: the new field where the move stops inside it, else -1.
_FAST = np.stack([np.where(m >> 9 == 0, m, -1)
                  for m in (_group_moves(0, 3), _group_moves(1, 3))])
_ROTATE_CCW = bits.ROTATE60_CCW_N.ravel()  # [rotations * 7 + direction]


def neighbor_rotations(cells, direction, rotations):
    """Vectorized neighbor-in-direction with rotation tracking.

    Args:
        cells: (n,) int64 cell bits.
        direction: scalar or (n,) direction 1..6.
        rotations: scalar or (n,) number of CCW rotations of the direction.

    Returns:
        (neighbor_bits, new_rotations, valid) — `valid` is False where the
        move crosses a pentagon's deleted K axis (result undefined).

    Fast path: a move that resolves within the finest three digits (no
    carry past them) of a res >= 3 cell outside the pentagon base cells is
    one table lookup and one 9-bit write, with the rotations unchanged.
    Only the remaining rows (~8% of a random batch) take the full digit
    walk (`_neighbor_rotations_walk`), which agrees with the fast path on
    every row it covers.
    """
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    rotations = np.broadcast_to(np.asarray(rotations, dtype=np.int64), (n,))
    direction = np.broadcast_to(np.asarray(direction, dtype=np.int64), (n,))
    res = (cells >> RES_OFFSET) & 0xF
    off = 3 * (MAX_RESOLUTION - res)
    new_rot = rotations % 6
    idx = ((cells >> off) & 0o777) * 7 + np.take(_ROTATE_CCW, new_rot * 7
                                                 + direction)
    odd = res & 1
    if odd.all() or not odd.any():
        key = np.take(_FAST[int(odd[0]) if n else 0], idx)
    else:
        key = np.take(_FAST.ravel(), idx + _FAST.shape[1] * odd)
    key[BC_IS_PENTAGON[(cells >> BASE_OFFSET) & 0x7F] | (res < 3)] = -1
    current = (cells & ~(np.int64(0o777) << off)) | (key.clip(0) << off)
    valid = np.ones(n, dtype=bool)
    slow = np.flatnonzero(key < 0)
    if slow.size:
        current[slow], new_rot[slow], valid[slow] = _neighbor_rotations_walk(
            cells[slow], direction[slow], rotations[slow])
    return current, new_rot, valid


def _carry(cells, cur_dir, res: int):
    """Digit adjustment of a move from res-`res` cells (algo.rs:42-66),
    finest digit to coarsest, three digits per lookup, each on the rows
    still carrying into them.
    Returns (cells, cur_dir, hop): the adjusted cells, each row's
    direction at its last step, and the rows that carried past res 1 and
    so hop base cells."""
    out = cells.copy()
    out_dir = cur_dir.copy()
    sel = np.arange(cells.shape[0])
    cur, cd = cells, cur_dir
    for top in range(res, 0, -3):
        size = min(3, top)
        off = 3 * (MAX_RESOLUTION - top)
        mask = (1 << 3 * size) - 1
        move = np.take(_group_moves(top & 1, size),
                       ((cur >> off) & mask) * 7 + cd)
        cur = (cur & ~np.int64(mask << off)) | ((move & mask) << off)
        cd = move >> 3 * size
        carry = cd != 0
        if carry.all():
            continue
        out[sel[~carry]] = cur[~carry]
        sel, cur, cd = sel[carry], cur[carry], cd[carry]
        if sel.size == 0:
            return out, out_dir, sel
    out[sel] = cur
    out_dir[sel] = cd
    return out, out_dir, sel


def _neighbor_rotations_walk(cells, direction, rotations):
    """Full digit walk of `neighbor_rotations` (src/grid/algo.rs:26-169):
    finest-to-coarsest digit adjustment, base-cell hop, pentagon fixups.
    Same arguments and returns; correct for every row. Each step runs on
    its own rows only: three digits at a time on the rows still carrying
    into them (`_carry`), the hop on the rows that carried past res 1, the
    fixups on the rows that land on a pentagon base cell."""
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    rotations = np.broadcast_to(np.asarray(rotations, dtype=np.int64), (n,)).copy()
    direction = np.broadcast_to(np.asarray(direction, dtype=np.int64), (n,))

    cur_dir = np.take(_ROTATE_CCW, rotations % 6 * 7 + direction)
    res = bits.get_resolution(cells)
    valid = np.ones(n, dtype=bool)

    # Adjust indexing digits from finest to coarsest, one pass per res.
    current = np.empty_like(cells)
    hops = []
    for r, rows in res_groups(res):
        if rows is None:
            current, cur_dir, act = _carry(cells, cur_dir, r)
        else:
            current[rows], cur_dir[rows], act = _carry(cells[rows],
                                                       cur_dir[rows], r)
            hops.append(rows[act])
    if hops:
        act = np.concatenate(hops)

    # Base-cell hop for rows that adjusted all the way down.
    old_base = bits.get_base_cell(cells)
    new_rotations = np.zeros(n, dtype=np.int64)
    if act.size:
        ob = old_base[act]
        d = cur_dir[act]
        nbr = BC_NEIGHBORS[ob, d]
        invalid_k = nbr == 255
        hop = bits.set_base_cell(current[act],
                                 np.where(invalid_k, BC_NEIGHBORS[ob, 5], nbr))
        if invalid_k.any():
            hop = np.where(invalid_k, bits.rotate60(hop, 1, ccw=True), hop)
            rotations[act] += invalid_k
        current[act] = hop
        new_rotations[act] = np.where(invalid_k,
                                      BC_NEIGHBOR_60CCW_ROTS[ob, 5],
                                      BC_NEIGHBOR_60CCW_ROTS[ob, d])

    # Pentagon fixups (algo.rs:92-160).
    new_base = bits.get_base_cell(current)
    pent = BC_IS_PENTAGON[new_base]
    rows = np.flatnonzero(pent)
    if rows.size:
        cur = current[rows]
        rot = rotations[rows]
        ob = old_base[rows]
        nb = new_base[rows]
        adjusted_k = np.zeros(rows.size, dtype=bool)
        leading_k = bits.first_axe(cur) == 1
        same_base = ob == nb

        m_same = leading_k & same_base
        if m_same.any():
            old_lead = bits.first_axe(cells[rows])
            valid[rows] &= ~(m_same & (old_lead == 0))
            mjk = m_same & (old_lead == 3)
            if mjk.any():
                cur = np.where(mjk, bits.rotate60(cur, 1, ccw=True), cur)
                rot += mjk
            mik = m_same & (old_lead == 5)
            if mik.any():
                cur = np.where(mik, bits.rotate60(cur, 1, ccw=False), cur)
                rot += 5 * mik

        m_diff = leading_k & ~same_base
        if m_diff.any():
            old_home = BC_HOME_FACE[ob]
            cw_off = (BC_CW_OFFSET[nb, 0] == old_home) | (
                BC_CW_OFFSET[nb, 1] == old_home)
            mcw = m_diff & cw_off
            if mcw.any():
                cur = np.where(mcw, bits.rotate60(cur, 1, ccw=False), cur)
            adjusted_k = m_diff

        todo = new_rotations[rows]
        for step in range(1, int(todo.max()) + 1):
            m = todo >= step
            cur = np.where(m, bits.pentagon_rotate60(cur, ccw=True), cur)

        m_o = ob != nb
        if m_o.any():
            dir_now = bits.first_axe(cur)
            polar = (nb == 4) | (nb == 117)
            rot += (m_o & polar & (ob != 118) & (ob != 8) & (dir_now != 3))
            rot += (m_o & ~polar & ~adjusted_k & (dir_now == 5))
        current[rows] = cur
        rotations[rows] = rot

    act = act[~pent[act] & (new_rotations[act] != 0)]
    for count in np.unique(new_rotations[act]):
        m = act[new_rotations[act] == count]
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
    pentagon and need the safe fallback. Every visited cell, the ring hops
    included, is tested for a pentagon once, after the walk.
    """
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    size = max_grid_disk_size(k)
    # Columns 0..size-1 are the disk in walk order, the last k the hops.
    seen = np.empty((size + k, n), dtype=np.int64)
    seen[0] = cells
    col, hop = 1, size
    origin = cells
    rot = np.zeros(n, dtype=np.int64)
    valid = np.empty((size + k - 1, n), dtype=bool)
    dist = np.empty(size, dtype=np.int64)
    dist[0] = 0
    for step, (direction, ring, is_hop) in enumerate(_spiral_moves(k)):
        origin, rot, valid[step] = neighbor_rotations(origin, direction, rot)
        if is_hop:
            seen[hop] = origin
            hop += 1
        else:
            seen[col] = origin
            dist[col] = ring
            col += 1
    assert col == size
    failed = ~valid.all(axis=0) | bits.is_pentagon(seen).any(axis=0)
    out = seen[:size].T.copy()
    out[failed] = 0
    return out, np.broadcast_to(dist, (n, size)), failed


def grid_disk_safe(cells, k: int):
    """Safe (BFS) grid disk with distances of every origin at once
    (grid/iterator.rs:40-97), one ring step at a time: the next ring is
    the valid neighbours of the current ring's cells, in ring order and
    `RING_DIRECTIONS` order, less the cells seen before, first occurrence
    kept. So each origin's cells come in the order of a per-origin FIFO
    BFS, and each ring step is one `neighbor_rotations` call.

    Returns (origin_row, cell, distance) flat int64 arrays, grouped by
    origin row in input order.
    """
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    rows = [np.arange(n, dtype=np.int64)]
    out = [cells]
    dist = [np.zeros(n, dtype=np.int64)]
    seen_row, seen_cell = rows[0], cells
    f_row, f_cell = rows[0], cells
    for ring in range(1, k + 1):
        if f_row.size == 0:
            break
        nbr, _, valid = neighbor_rotations(
            np.repeat(f_cell, 6), np.tile(RING_DIRECTIONS, f_cell.size), 0)
        c_row = np.repeat(f_row, 6)[valid]
        c_cell = nbr[valid]
        # First occurrence of each (row, cell) among the seen cells, then
        # the candidates in order; keep the candidates that come first.
        all_row = np.concatenate([seen_row, c_row])
        all_cell = np.concatenate([seen_cell, c_cell])
        order = np.lexsort((np.arange(all_row.size), all_cell, all_row))
        first = np.ones(order.size, dtype=bool)
        first[1:] = (all_row[order[1:]] != all_row[order[:-1]]) | \
            (all_cell[order[1:]] != all_cell[order[:-1]])
        keep = np.sort(order[first & (order >= seen_row.size)]) - \
            seen_row.size
        f_row, f_cell = c_row[keep], c_cell[keep]
        rows.append(f_row)
        out.append(f_cell)
        dist.append(np.full(f_row.size, ring, dtype=np.int64))
        seen_row = np.concatenate([seen_row, f_row])
        seen_cell = np.concatenate([seen_cell, f_cell])
    row = np.concatenate(rows)
    order = np.argsort(row, kind="stable")
    return row[order], np.concatenate(out)[order], np.concatenate(dist)[order]


def grid_disk_distances(cells, k: int):
    """Batch grid disk with distances (fast path + safe fallback).

    Returns (origin_row, cell, distance) flat int64 arrays, where origin_row
    indexes into the input array: the fast-path rows first, in input order,
    then the rows that met a pentagon, each in BFS order (`grid_disk_safe`).
    """
    cells = bits.as_i64(np.asarray(cells))
    n = cells.shape[0]
    if k == 0:
        return np.arange(n, dtype=np.int64), cells.copy(), np.zeros(n, np.int64)
    out, dist, failed = grid_disk_fast_batch(cells, k)
    ok_rows = np.flatnonzero(~failed)
    bad_rows = np.flatnonzero(failed)
    size = out.shape[1]
    if bad_rows.size == 0:
        return np.repeat(ok_rows, size), out.ravel(), dist.ravel()
    row, cell, d = grid_disk_safe(cells[bad_rows], k)
    return (np.concatenate([np.repeat(ok_rows, size), bad_rows[row]]),
            np.concatenate([out[ok_rows].ravel(), cell]),
            np.concatenate([dist[ok_rows].ravel(), d]))


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

    ok_rows = np.flatnonzero(~failed)
    bad_rows = np.flatnonzero(failed)
    row, cell, d = grid_disk_safe(cells[bad_rows], k)
    sel = d == k
    return (np.concatenate([np.repeat(ok_rows, size), bad_rows[row[sel]]]),
            np.concatenate([out[ok_rows].ravel(), cell[sel]]))


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
