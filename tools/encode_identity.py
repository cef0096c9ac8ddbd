#!/usr/bin/env python3
"""Bit-identity check of the encode kernels against another git revision.

Exports <git-rev> with `git archive` into a temporary directory, runs the
three encode-path kernels there and in this working tree on the same
inputs, and prints the number of differing output rows per kernel (per
res for `latlng_to_cell`, per input layout for `url_hash64`).

The inputs are the case builders of `tests/test_encode_golden.py` scaled
to --points: about 1.9 x --points points (uniform on the sphere plus
pentagon neighbourhoods, the antimeridian and near-pole points) at res
0-15, 1.25 x --points hashes for `geotag_from_hash`, and for `url_hash64`
--points page urls plus --points / 10 random strings in every Arrow layout
the golden covers, with image-sized binary payloads. This process builds
them once; each side loads them in its own process and writes its outputs
as .npy files, which are compared memory-mapped.

Usage: python tools/encode_identity.py <git-rev> [--points N]
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
RESOLUTIONS = range(16)
CHUNK = 65_536


def build_inputs(n: int, path: Path) -> None:
    """Pickle {lat, lng, hashes, urls: {name: input}} built from the golden
    test's case builders at size `n`."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_encode_golden as golden

    pts = golden.latlng_cases(n).values()
    with open(path, "wb") as f:
        pickle.dump({
            "lat": np.concatenate([p[0] for p in pts]),
            "lng": np.concatenate([p[1] for p in pts]),
            "hashes": np.concatenate(list(golden.hash_cases(n).values())),
            "urls": golden.url_cases(n // 10)}, f)


def compute(tree: Path, inputs: Path, out: Path) -> None:
    """Run the kernels of the h3ray package in `tree`; write .npy files."""
    sys.path.insert(0, str(tree))
    from h3ray.io import pages
    from h3ray.kernels import latlng

    with open(inputs, "rb") as f:
        cases = pickle.load(f)
    lat, lng = cases["lat"], cases["lng"]
    for res in RESOLUTIONS:
        np.save(out / f"latlng_to_cell_r{res}.npy", np.concatenate([
            latlng.latlng_to_cell(lat[o:o + CHUNK], lng[o:o + CHUNK], res)
            for o in range(0, lat.shape[0], CHUNK)]))
    h = cases["hashes"]
    glat, glng = zip(*(pages.geotag_from_hash(h[o:o + CHUNK])
                       for o in range(0, h.shape[0], CHUNK)))
    np.save(out / "geotag_from_hash_lat.npy", np.concatenate(glat))
    np.save(out / "geotag_from_hash_lng.npy", np.concatenate(glng))
    for name, urls in cases["urls"].items():
        np.save(out / f"url_hash64_{name}.npy", pages.url_hash64(urls))


def diff_rows(a: Path, b: Path) -> int:
    x = np.load(a, mmap_mode="r")
    y = np.load(b, mmap_mode="r")
    if x.shape != y.shape:
        return max(x.shape[0], y.shape[0])
    shape = (x.shape[0], x.dtype.itemsize)
    return int(np.count_nonzero(x.view(np.uint8).reshape(shape)
                                != y.view(np.uint8).reshape(shape),
                                axis=1).astype(bool).sum())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", nargs="?")
    ap.add_argument("--points", type=int, default=1_000_000)
    ap.add_argument("--compute", nargs=3, metavar=("TREE", "INPUTS", "OUT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.compute:
        compute(*map(Path, args.compute))
        return 0
    if not args.rev:
        ap.error("a git revision is required")

    with tempfile.TemporaryDirectory(prefix="encode_identity_") as tmp:
        tmp = Path(tmp)
        old_tree, old_out, new_out = tmp / "tree", tmp / "old", tmp / "new"
        for d in (old_tree, old_out, new_out):
            d.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(old_tree)], input=archive,
                       check=True)
        inputs = tmp / "inputs.pkl"
        build_inputs(args.points, inputs)
        for tree, out in ((old_tree, old_out), (ROOT, new_out)):
            subprocess.run([sys.executable, __file__, "--compute", str(tree),
                            str(inputs), str(out)], check=True)

        total = 0
        print(f"{args.rev} vs working tree, --points {args.points}")
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
