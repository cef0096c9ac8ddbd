#!/usr/bin/env python3
"""Bit-identity check of the decode and grid kernels against a git revision.

Exports <git-rev> with `git archive` into a temporary directory, runs
`cell_to_latlng_rads`, `cell_to_boundary`, `grid_disk_distances` (k = 1,
2, 3), `cell_to_local_ij` and `grid_distance` there and in this working
tree on the same cells, and prints the number of differing output rows
per kernel and input case (a row is one cell, one disk origin or one
local-IJ pair).

The inputs are the case builders of `tests/test_decode_golden.py` scaled
up: the encode golden's point cases at --points (about 1.9 x --points
points, so up to ~2M distinct cells per res) for the two decode kernels,
and the same builders at --grid-points for the disks and the local-IJ
pairs. Ragged outputs (boundaries, disks) are reduced to one 64-bit
digest per row of their values in order. This process builds the inputs
once; each side loads them in its own process and writes its outputs as
.npy files, which are compared memory-mapped.

Usage: python tools/decode_identity.py <git-rev> [--points N]
       [--grid-points M]
Exit status 0 when every count is 0.
"""

from __future__ import annotations

import argparse
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CHUNK = 65_536
DISK_K = (1, 2, 3)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def build_inputs(n: int, n_grid: int, path: Path) -> None:
    """Pickle {"decode": {case: cells}, "grid": {case: cells}} built from
    the golden test's case builders."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_decode_golden as golden

    with open(path, "wb") as f:
        pickle.dump({"decode": golden.cell_cases(n),
                     "grid": golden.cell_cases(n_grid),
                     "shifts": golden.PAIR_SHIFTS}, f)


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise (uint64 wraps)."""
    h = h ^ (h >> np.uint64(30))
    h = h * _M1
    h = h ^ (h >> np.uint64(27))
    h = h * _M2
    return h ^ (h >> np.uint64(31))


def row_digest(row: np.ndarray, n: int, *cols) -> np.ndarray:
    """One uint64 per row 0..n-1 over the values of `cols` in order; `row`
    names each value's row, and a row's values are contiguous."""
    h = np.zeros(row.shape[0], np.uint64)
    for c in cols:
        h = _mix(h ^ np.ascontiguousarray(c, "<i8").view(np.uint64))
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    run = np.repeat(starts, np.diff(np.append(starts, row.shape[0])))
    h = _mix(h ^ (np.arange(row.shape[0]) - run).astype(np.uint64))
    out = np.zeros(n, np.uint64)
    if starts.size:
        out[row[starts]] = np.add.reduceat(h, starts)
    return out ^ _mix(np.bincount(row, minlength=n).astype(np.uint64))


def _columns(*arrays) -> np.ndarray:
    """Stack per-row outputs as an (n, k) 8-byte array."""
    return np.stack([np.asarray(a).astype("<i8", copy=False)
                     if a.dtype != np.float64 else a.view("<i8")
                     for a in arrays], axis=1)


def compute(tree: Path, inputs: Path, out: Path) -> None:
    """Run the kernels of the h3ray package in `tree`; write .npy files."""
    sys.path.insert(0, str(tree))
    from h3ray.kernels import boundary, grid, latlng, localij

    with open(inputs, "rb") as f:
        cases = pickle.load(f)
    for case, cells in cases["decode"].items():
        tag = case.replace("/", "_")
        parts_ll, parts_bd = [], []
        for o in range(0, cells.shape[0], CHUNK):
            c = cells[o:o + CHUNK]
            parts_ll.append(_columns(*latlng.cell_to_latlng_rads(c)))
            off, lat, lng = boundary.cell_to_boundary(c)
            row = np.repeat(np.arange(c.shape[0]), np.diff(off))
            parts_bd.append(row_digest(row, c.shape[0], lat, lng)[:, None])
        np.save(out / f"cell_to_latlng_rads_{tag}.npy",
                np.concatenate(parts_ll))
        np.save(out / f"cell_to_boundary_{tag}.npy", np.concatenate(parts_bd))
    shifts = cases["shifts"]
    for case, cells in cases["grid"].items():
        tag = case.replace("/", "_")
        for k in DISK_K:
            parts = []
            for o in range(0, cells.shape[0], CHUNK):
                c = cells[o:o + CHUNK]
                row, disk, dist = grid.grid_disk_distances(c, k)
                parts.append(row_digest(row, c.shape[0], disk, dist)[:, None])
            np.save(out / f"grid_disk_distances_k{k}_{tag}.npy",
                    np.concatenate(parts))
        origins = np.tile(cells, len(shifts))
        targets = np.concatenate([np.roll(cells, -s) for s in shifts])
        lij, gd = [], []
        for o in range(0, origins.shape[0], CHUNK):
            a, b = origins[o:o + CHUNK], targets[o:o + CHUNK]
            lij.append(_columns(*localij.cell_to_local_ij(a, b)))
            gd.append(_columns(*localij.grid_distance(a, b)))
        np.save(out / f"cell_to_local_ij_{tag}.npy", np.concatenate(lij))
        np.save(out / f"grid_distance_{tag}.npy", np.concatenate(gd))


def diff_rows(a: Path, b: Path) -> int:
    x = np.load(a, mmap_mode="r")
    y = np.load(b, mmap_mode="r")
    if x.shape != y.shape:
        return max(x.shape[0], y.shape[0])
    return int((np.asarray(x) != np.asarray(y)).any(axis=1).sum())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", nargs="?")
    ap.add_argument("--points", type=int, default=1_000_000)
    ap.add_argument("--grid-points", type=int, default=50_000)
    ap.add_argument("--compute", nargs=3, metavar=("TREE", "INPUTS", "OUT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.compute:
        compute(*map(Path, args.compute))
        return 0
    if not args.rev:
        ap.error("a git revision is required")

    with tempfile.TemporaryDirectory(prefix="decode_identity_") as tmp:
        tmp = Path(tmp)
        old_tree, old_out, new_out = tmp / "tree", tmp / "old", tmp / "new"
        for d in (old_tree, old_out, new_out):
            d.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(old_tree)], input=archive,
                       check=True)
        inputs = tmp / "inputs.pkl"
        build_inputs(args.points, args.grid_points, inputs)
        for tree, out in ((old_tree, old_out), (ROOT, new_out)):
            subprocess.run([sys.executable, __file__, "--compute", str(tree),
                            str(inputs), str(out)], check=True)

        total = 0
        print(f"{args.rev} vs working tree, --points {args.points}, "
              f"--grid-points {args.grid_points}")
        for f in sorted(old_out.glob("*.npy"),
                        key=lambda p: p.stat().st_mtime_ns):
            n = diff_rows(f, new_out / f.name)
            total += n
            rows = np.load(f, mmap_mode="r").shape[0]
            print(f"{f.stem}: {n} diffs of {rows}")
        print(f"total: {total} diffs")
    return 0 if total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
