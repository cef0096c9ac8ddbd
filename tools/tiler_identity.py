#!/usr/bin/env python3
"""Differential check of the polygon tiler against another git revision.

Exports <git-rev> with `git archive` into a temporary directory, runs
`region.polygons_to_cells` there and in this working tree over the same
prepared geometries, and prints, per case, res and containment mode, the
number of (polygon_id, cell) rows in one output and not the other (or, if
the row sets agree but the arrays differ, the differing positions).

The cases: the bench's city polygons at radii 0.05, 0.15, 0.3 and 0.75
degrees, 40 star polygons from `tests/test_fuzz.star_geometry`, and the
four shapes of `tests/test_tiler_golden.special_geometries` (antimeridian,
hole, multipolygon, pentagon), each at res 3-10 under all five modes. A
case whose `coverage_size_hint` total (3-12x the flat coverage) would
exceed --budget keeps only its first geometries that fit, at least one; a
single geometry over the budget is skipped, and the skips are listed. This
process pickles the geometries once; each side tiles them in its own
process and writes .npy files.

Usage: python tools/tiler_identity.py <git-rev> [--budget N]
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
RESOLUTIONS = range(3, 11)
MODES = ("centroid", "boundary", "intersects", "covers", "candidates")


def build_cases(budget: int) -> tuple[dict, list]:
    """({"<set>/res<r>": geometries}, skipped case names)."""
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(ROOT / "tests"))
    from test_fuzz import star_geometry
    from test_tiler_golden import special_geometries

    from h3ray.kernels import region
    from h3ray.pipelines import pip

    sets = {f"city_r{r}": pip.city_polygons(32, r)
            for r in (0.05, 0.15, 0.3, 0.75)}
    sets["star"] = [star_geometry(seed, 3 + seed % 7) for seed in range(40)]
    sets.update(special_geometries())
    cases, skipped = {}, []
    for name, geoms in sets.items():
        geoms = geoms if isinstance(geoms, list) else [geoms]
        for res in RESOLUTIONS:
            hints = np.cumsum([region.coverage_size_hint(g, res)
                               for g in geoms])
            keep = max(int((hints <= budget).sum()), 1)
            if hints[0] > budget:
                skipped.append(f"{name}/res{res}")
                continue
            cases[f"{name}/res{res}"] = (geoms[:keep], res)
    return cases, skipped


def compute(tree: Path, inputs: Path, out: Path) -> None:
    """Tile every case with the h3ray package in `tree`; write .npy."""
    sys.path.insert(0, str(tree))
    from h3ray.kernels import region

    with open(inputs, "rb") as f:
        cases = pickle.load(f)
    for name, (geoms, res) in cases.items():
        for mode in MODES:
            pid, cell = region.polygons_to_cells(geoms, res, mode)
            np.save(out / f"{name.replace('/', '_')}_{mode}.npy",
                    np.stack([pid, cell], axis=1))


def diff_rows(a: Path, b: Path) -> int:
    x, y = np.load(a), np.load(b)
    if x.shape == y.shape and np.array_equal(x, y):
        return 0
    rows = [np.unique(np.ascontiguousarray(v).view([("p", "<i8"),
                                                    ("c", "<i8")]))
            for v in (x, y)]
    n = np.setxor1d(*rows).shape[0]
    if n == 0:  # same rows, other order
        n = int((x != y).any(axis=1).sum()) if x.shape == y.shape else 1
    return n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", nargs="?")
    ap.add_argument("--budget", type=int, default=3_000_000)
    ap.add_argument("--compute", nargs=3, metavar=("TREE", "INPUTS", "OUT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.compute:
        compute(*map(Path, args.compute))
        return 0
    if not args.rev:
        ap.error("a git revision is required")

    with tempfile.TemporaryDirectory(prefix="tiler_identity_") as tmp:
        tmp = Path(tmp)
        old_tree, old_out, new_out = tmp / "tree", tmp / "old", tmp / "new"
        for d in (old_tree, old_out, new_out):
            d.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(old_tree)], input=archive,
                       check=True)
        cases, skipped = build_cases(args.budget)
        inputs = tmp / "inputs.pkl"
        with open(inputs, "wb") as f:
            pickle.dump(cases, f)
        for tree, out in ((old_tree, old_out), (ROOT, new_out)):
            subprocess.run([sys.executable, __file__, "--compute", str(tree),
                            str(inputs), str(out)], check=True)

        total = 0
        print(f"{args.rev} vs working tree, --budget {args.budget}")
        for name, (geoms, res) in cases.items():
            counts = []
            for mode in MODES:
                f = f"{name.replace('/', '_')}_{mode}.npy"
                n = diff_rows(old_out / f, new_out / f)
                total += n
                rows = np.load(old_out / f, mmap_mode="r").shape[0]
                counts.append(f"{mode} {n}/{rows}")
            print(f"{name} ({len(geoms)} geometries): " + ", ".join(counts))
        if skipped:
            print(f"skipped (one geometry over the budget): "
                  f"{' '.join(skipped)}")
        print(f"total: {total} diffs")
    return 0 if total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
