"""Golden digests of the encode path's three kernels, no corpus needed.

`tests/data/encode_golden.json` holds the sha256 of the output bytes of
`latlng_to_cell` (res 0-15), `geotag_from_hash` and `url_hash64` over the
fixed inputs built below. Its `provenance` field names the build the
digests were recorded from. Any rewrite of these kernels must reproduce
them bit for bit: the cells feed every join and count, and the url hash
also feeds dedup and curation.

The case builders take a size, so `tools/encode_identity.py` can run the
same kinds of input at scale; the defaults build the pinned inputs.

Re-record (only when an output change is intended and explained):

    python tests/test_encode_golden.py "<why the outputs changed>"

which writes the commit and that reason to `provenance` and keeps the
file's static `note`.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from h3ray.io import pages  # noqa: E402
from h3ray.kernels import bits, latlng  # noqa: E402
from h3ray.kernels._tables import PENTAGON_BASE_CELLS  # noqa: E402
from h3ray.kernels.constants import DEFAULT_CELL_INDEX  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "data" / "encode_golden.json"
RESOLUTIONS = range(16)


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def latlng_cases(n: int = 20_000) -> dict:
    """name -> (lat_deg, lng_deg) point sets: `n` uniform points and about
    0.9 n more near the pentagons, the antimeridian and the poles."""
    rng = np.random.default_rng(0x60_1DE9)
    uniform = (np.rad2deg(np.arcsin(rng.uniform(-1.0, 1.0, n))),
               rng.uniform(-180.0, 180.0, n))

    # Pentagon neighbourhoods: jitter around the 12 res-0 pentagon centres
    # at scales from sub-metre to a few degrees (reaches the deleted-K
    # subsequences and the cw-offset faces at every res).
    centres = bits.set_base_cell(
        np.full(12, DEFAULT_CELL_INDEX, dtype=np.int64), PENTAGON_BASE_CELLS)
    plat, plng = latlng.cell_to_latlng(centres)
    scales = np.array([1e-7, 1e-5, 1e-3, 1e-1, 1.0, 3.0])
    per = n * 3 // 400
    idx = np.repeat(np.arange(12), scales.size * per)
    scale = np.tile(np.repeat(scales, per), 12)
    pent = (np.clip(plat[idx] + scale * rng.uniform(-1, 1, idx.size),
                    -90.0, 90.0),
            plng[idx] + scale * rng.uniform(-1, 1, idx.size))

    # The antimeridian, approached from both sides, plus wrapped longitudes.
    m = n // 5
    side = rng.choice([-180.0, 180.0], m)
    eps = 10.0 ** rng.uniform(-12, 0, m)
    anti_lng = np.concatenate([side - np.sign(side) * eps,
                               np.array([-180.0, 180.0, 540.0, -540.0,
                                         181.5, -181.5, 359.9, -359.9])])
    anti_lat = rng.uniform(-89.0, 89.0, anti_lng.size)
    antimeridian = (anti_lat, anti_lng)

    # Near the poles, including the poles themselves.
    k = n // 5
    pole_lat = np.concatenate([
        rng.choice([-1.0, 1.0], k) * (90.0 - 10.0 ** rng.uniform(-12, 0.5, k)),
        np.array([90.0, -90.0, 90.0, -90.0])])
    pole_lng = np.concatenate([rng.uniform(-180.0, 180.0, k),
                               np.array([0.0, 0.0, 123.4, -77.7])])
    return {"uniform": uniform, "pentagon": pent,
            "antimeridian": antimeridian, "pole": (pole_lat, pole_lng)}


def page_urls(lo: int, hi: int) -> pa.ChunkedArray:
    """The `url` column of pages lo..hi-1, built 32K pages at a time."""
    return pa.chunked_array([
        pages.make_pages_batch(np.arange(o, min(o + 32_768, hi)))["url"]
        .combine_chunks() for o in range(lo, hi, 32_768)])


def hash_cases(n: int = 200_000) -> dict:
    """name -> uint64 hashes for geotag_from_hash."""
    rng = np.random.default_rng(0xC0FFEE)
    return {
        "seeded_urls": pages.url_hash64(page_urls(5_000, 5_000 + n // 4)),
        # At the default 200k random hashes the 0.1% distortion slice
        # gets ~200 rows, covering every pentagon and both antimeridian
        # sides.
        "random": rng.integers(0, 2**64, n, dtype=np.uint64,
                               endpoint=False),
        "edges": np.array([0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15],
                          dtype=np.uint64),
    }


def _random_strings(rng, n: int, max_len: int) -> list:
    alphabet = list("abcdefghijklmnopqrstuvwxyz0123456789/:.-_?=&") + \
        ["é", "ß", "中", "文", "ж", "😀", "\x00"]
    lens = rng.integers(0, max_len, n)
    return ["".join(rng.choice(alphabet, size=L)) for L in lens]


def url_cases(n: int = 2_000) -> dict:
    """name -> input accepted by url_hash64: `n` random strings in several
    Arrow layouts, 10 n page urls and image-sized binary payloads."""
    rng = np.random.default_rng(0xBEEF)
    mixed = ["", "a", "https://site00001.example/0000001",
             "x" * 96, "y" * 97, "z" * 300, "", "héllo wörld", "中文网页",
             "emoji 😀 url", ""] + _random_strings(rng, n, 260)
    arr = pa.array(mixed, type=pa.string())
    # Payloads up to 1 MB, far past the 96-byte power table.
    lens = np.array([0, 94, 95, 96, 97, 300, 5_000, 1 << 20, 1, 70_000])
    raw = np.random.default_rng(0x1A96E).integers(
        0, 256, int(lens.sum()), dtype=np.uint8).tobytes()
    ends = np.cumsum(lens)
    payloads = pa.array([raw[e - L:e] for e, L in zip(ends, lens)],
                        type=pa.binary())
    return {
        "empty_only": pa.array([""], type=pa.string()),
        "empty_array": pa.array([], type=pa.string()),
        "mixed": arr,
        "sliced": arr.slice(5, 1_000),
        "sliced_tail": arr.slice(1_900),
        "large_string": arr.cast(pa.large_string()),
        "large_string_sliced": arr.cast(pa.large_string()).slice(7, 500),
        "binary": arr.cast(pa.binary()),
        "large_binary": arr.cast(pa.large_binary()),
        "chunked": pa.chunked_array([arr.slice(0, 700), arr.slice(700)]),
        "object": np.array(mixed, dtype=object),
        "object_ints": np.array([1, 22, 333, "", "abc"], dtype=object),
        "page_urls": page_urls(0, 10 * n),
        "payloads": payloads,
        "payloads_sliced": payloads.slice(3, 6),
    }


def compute() -> dict:
    out = {}
    for name, (lat, lng) in latlng_cases().items():
        for res in RESOLUTIONS:
            cells = latlng.latlng_to_cell(lat, lng, res)
            out[f"latlng_to_cell/{name}/res{res}"] = \
                sha(np.asarray(cells, dtype="<i8"))
    for name, h in hash_cases().items():
        lat, lng = pages.geotag_from_hash(h)
        out[f"geotag_from_hash/{name}"] = sha(np.asarray(lat, "<f8"),
                                              np.asarray(lng, "<f8"))
    for name, urls in url_cases().items():
        out[f"url_hash64/{name}"] = sha(np.asarray(pages.url_hash64(urls),
                                                   "<u8"))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["entries"]


@pytest.fixture(scope="module")
def computed():
    return compute()


def test_golden_covers_every_case(golden, computed):
    assert set(golden) == set(computed)


@pytest.mark.parametrize("kernel", ["latlng_to_cell", "geotag_from_hash",
                                    "url_hash64"])
def test_kernel_matches_golden(golden, computed, kernel):
    bad = sorted(k for k in computed
                 if k.startswith(kernel + "/") and computed[k] != golden[k])
    assert not bad, bad


if __name__ == "__main__":
    import argparse
    import subprocess

    ap = argparse.ArgumentParser(description="Re-record the encode goldens.")
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
