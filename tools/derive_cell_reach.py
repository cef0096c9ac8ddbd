#!/usr/bin/env python3
"""Derive `kernels.measures.CELL_REACH_RADS`, the descendant-reach bound.

For each res r the bound is the farthest great-circle distance from a
res-r cell's centre to any boundary vertex of any of its descendants, at
any finer res. Descendants are not nested in their parent (their union is
a Gosper-island shape), so this reaches past the cell's own boundary.

The sample at res r is the cell under each of POINTS stratified points
(the centres of every res-1 cell, jittered) plus all 12 pentagons. For
each sampled cell the script walks its descendants down DEPTH levels
and measures two maxima per depth k: the reach to any descendant vertex,
and the offset to any descendant centre. Descendants deeper than
r + DEPTH are bounded by recursion from res 15 upward:

    reach(r) = max(direct(r), offset(r, DEPTH) + reach(r + DEPTH))

The committed table is that bound times PAD, rounded up. The constants
below produced the committed table, so every run reproduces it.

Usage: python tools/derive_cell_reach.py
Prints the padded table as a Python literal.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from h3ray.kernels import hierarchy, latlng, measures  # noqa: E402
from h3ray.kernels.boundary import _cell_to_boundary_rads  # noqa: E402

POINTS = 1024  # stratified sample cells per res
DEPTH = 3      # descendant levels walked directly
SEED = 0
PAD = 1.1      # 10% margin over the derived bound


def sample_cells(res: int, points: int, seed: int) -> np.ndarray:
    """Cells under `points` stratified points (res-1 centres, jittered by
    up to half a res-1 edge) plus the 12 pentagons of `res`."""
    rng = np.random.default_rng(seed + res)
    _, res1 = hierarchy.cell_to_children(measures.res0_cells(), 1)
    lat, lng = latlng.cell_to_latlng_rads(res1)
    pick = rng.integers(0, res1.shape[0], points)
    jitter = 0.5 * measures.HEX_EDGE_RADS[1]
    lat = np.clip(lat[pick] + rng.uniform(-jitter, jitter, points),
                  -math.pi / 2, math.pi / 2)
    lng = lng[pick] + rng.uniform(-jitter, jitter, points)
    lng = (lng + math.pi) % (2 * math.pi) - math.pi
    cells = latlng.latlng_rads_to_cell(lat, lng, res)
    return np.unique(np.concatenate([cells, measures.pentagons(res)]))


def descendant_reach(cells: np.ndarray, depth: int):
    """(reach[k], offset[k]) for k = 0..depth: the farthest distance from a
    cell's centre to a vertex, and to the centre, of a res+k descendant."""
    res = int(measures.bits.get_resolution(cells[:1])[0])
    clat, clng = latlng.cell_to_latlng_rads(cells)
    reach, offset = [], []
    for k in range(depth + 1):
        row, kids = hierarchy.cell_to_children(cells, res + k)
        klat, klng = latlng.cell_to_latlng_rads(kids)
        offset.append(float(measures.great_circle_distance_rads(
            clat[row], clng[row], klat, klng).max()))
        off, vlat, vlng = _cell_to_boundary_rads(kids)
        owner = row[np.repeat(np.arange(kids.shape[0]), np.diff(off))]
        reach.append(float(measures.great_circle_distance_rads(
            clat[owner], clng[owner], vlat, vlng).max()))
    return reach, offset


def derive(points: int, depth: int, seed: int):
    """(direct, bound): per res, the largest sampled reach down `depth`
    levels, and the recursive bound over every finer res."""
    direct = np.zeros(16)
    bound = np.zeros(16)
    for r in range(15, -1, -1):
        k = min(depth, 15 - r)
        reach, offset = descendant_reach(sample_cells(r, points, seed), k)
        direct[r] = max(reach)
        bound[r] = direct[r]
        if r + k < 15:
            bound[r] = max(bound[r], offset[k] + bound[r + k])
    return direct, bound


def main() -> int:
    direct, bound = derive(POINTS, DEPTH, SEED)
    for r in range(16):
        print(f"# res {r:2d}: direct {direct[r]:.6e}  bound {bound[r]:.6e}"
              f"  bound/edge {bound[r] / measures.HEX_EDGE_RADS[r]:.3f}")
    padded = [float(f"{b * PAD:.4e}") for b in bound]
    # Rounding to 5 significant digits must not drop below the padding.
    padded = [p if p >= b * PAD else float(f"{p * 1.0001:.4e}")
              for p, b in zip(padded, bound)]
    print("CELL_REACH_RADS = np.array([")
    for i in range(0, 16, 4):
        print("    " + ", ".join(f"{p!r}" for p in padded[i:i + 4]) + ",")
    print("])")
    return 0


if __name__ == "__main__":
    sys.exit(main())
