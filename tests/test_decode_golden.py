"""Golden digests of the decode and grid kernels, no corpus needed.

`tests/data/decode_golden.json` holds the sha256 of the output bytes of
`cell_to_latlng_rads`, `cell_to_boundary`, `grid_disk_distances` at
k = 1, 2, 3, and `cell_to_local_ij` and `grid_distance` over the fixed
cells built below. Its `provenance` field names the build the digests were
recorded from. Any rewrite of these kernels must reproduce them bit for
bit: the tiler, the PIP probe and the kNN join all run on them.

The cells are the encode golden's point cases (uniform, pentagon
neighbourhoods, the antimeridian and the poles) encoded at res 0-15 and
deduplicated, every cell at res 0-2, and one mixed-res set (4 n of the
uniform cells of every res, shuffled). The local-IJ pairs match each cell with
itself and with the cells 1, 2 and 7 places on in index order, which are
mostly its siblings or cousins. The builders take a size, so
`tools/decode_identity.py` can run the same kinds of input at scale; the
defaults build the pinned inputs.

Re-record (only when an output change is intended and explained):

    python tests/test_decode_golden.py "<why the outputs changed>"

which writes the commit and that reason to `provenance` and keeps the
file's static `note`.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import test_encode_golden as encode_golden  # noqa: E402
from h3ray.kernels import (  # noqa: E402
    bits, boundary, grid, hierarchy, latlng, localij)
from h3ray.kernels.constants import DEFAULT_CELL_INDEX  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "data" / "decode_golden.json"
RESOLUTIONS = range(16)
DISK_K = (1, 2, 3)
PAIR_SHIFTS = (0, 1, 2, 7)


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def all_cells(res: int) -> np.ndarray:
    """Every cell at `res`, sorted."""
    base = bits.set_base_cell(np.full(122, DEFAULT_CELL_INDEX, np.int64),
                              np.arange(122))
    return np.sort(hierarchy.cell_to_children(base, res)[1])


def cell_cases(n: int = 4_000) -> dict:
    """name -> sorted unique int64 cells: "<point case>/res<r>" for the
    encode golden's point cases at size `n`, "all/res<r>" for res 0-2, and
    "mixed" (4 n of the uniform cells of every res, in a fixed shuffled
    order)."""
    out = {}
    for name, (lat, lng) in encode_golden.latlng_cases(n).items():
        for res in RESOLUTIONS:
            out[f"{name}/res{res}"] = np.unique(
                latlng.latlng_to_cell(lat, lng, res))
    for res in range(3):
        out[f"all/res{res}"] = all_cells(res)
    mixed = np.concatenate([out[f"uniform/res{r}"] for r in RESOLUTIONS])
    out["mixed"] = np.random.default_rng(0xDEC0DE).permutation(mixed)[:4 * n]
    return out


def pairs(cells: np.ndarray):
    """(origin, cell) pairs for the local-IJ kernels."""
    return (np.tile(cells, len(PAIR_SHIFTS)),
            np.concatenate([np.roll(cells, -s) for s in PAIR_SHIFTS]))


def outputs(cells: np.ndarray) -> dict:
    """kernel -> tuple of output arrays for one cell set."""
    out = {"cell_to_latlng_rads": latlng.cell_to_latlng_rads(cells),
           "cell_to_boundary": boundary.cell_to_boundary(cells)}
    for k in DISK_K:
        out[f"grid_disk_distances_k{k}"] = grid.grid_disk_distances(cells, k)
    origins, targets = pairs(cells)
    out["cell_to_local_ij"] = localij.cell_to_local_ij(origins, targets)
    out["grid_distance"] = localij.grid_distance(origins, targets)
    return out


def compute() -> dict:
    digests = {}
    for case, cells in cell_cases().items():
        for kernel, arrays in outputs(cells).items():
            digests[f"{kernel}/{case}"] = sha(*arrays)
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["entries"]


@pytest.fixture(scope="module")
def computed():
    return compute()


def test_golden_covers_every_case(golden, computed):
    assert set(golden) == set(computed)


@pytest.mark.parametrize("kernel", [
    "cell_to_latlng_rads", "cell_to_boundary", "grid_disk_distances_k1",
    "grid_disk_distances_k2", "grid_disk_distances_k3", "cell_to_local_ij",
    "grid_distance"])
def test_kernel_matches_golden(golden, computed, kernel):
    bad = sorted(k for k in computed
                 if k.startswith(kernel + "/") and computed[k] != golden[k])
    assert not bad, bad


def test_cases_reach_pentagons_and_faces():
    """The inputs hold pentagons at every res and cells on every face."""
    cases = cell_cases()
    for res in RESOLUTIONS:
        assert bits.is_pentagon(cases[f"pentagon/res{res}"]).sum() == 12
    face = latlng.cell_to_faceijk(cases["uniform/res5"])[0]
    assert np.unique(face).size == 20


if __name__ == "__main__":
    import argparse
    import subprocess

    ap = argparse.ArgumentParser(description="Re-record the decode goldens.")
    ap.add_argument("reason", help="why the outputs changed")
    reason = ap.parse_args().reason
    rev = subprocess.run(["git", "describe", "--always", "--dirty"],
                         capture_output=True, text=True, check=True,
                         cwd=GOLDEN.parent).stdout.strip()
    note = json.loads(GOLDEN.read_text()).get("note") \
        if GOLDEN.exists() else None
    GOLDEN.write_text(json.dumps({
        "note": note,
        "provenance": f"recorded from commit {rev}: {reason}",
        "entries": compute()}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
