"""Golden coverage hashes for the polygon tiler, no corpus download needed.

`tests/data/tiler_golden.json` holds, per (geometry, res, mode), the size
and sha256 of the sorted unique int64 coverage. Its `provenance` field
names the tiler build the hashes were recorded from. The geometries are
the bench's city polygons, the driver contract's city polygons, and four
shapes that exercise the tiler's special cases: the antimeridian, a hole,
a multipolygon and a pentagon.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from h3ray.kernels import hierarchy, region
from h3ray.pipelines import pip

GOLDEN = Path(__file__).resolve().parent / "data" / "tiler_golden.json"
MODES = ("centroid", "boundary", "intersects", "covers")


def _square(lng0, lat0, half):
    return [[lng0 - half, lat0 - half], [lng0 + half, lat0 - half],
            [lng0 + half, lat0 + half], [lng0 - half, lat0 + half],
            [lng0 - half, lat0 - half]]


def special_geometries() -> dict:
    """Shapes that reach the tiler's special cases."""
    return {
        "transmeridian": region.prepare_geometry([[
            [[179.0, 10.0], [-179.2, 10.3], [-179.0, 12.0], [179.4, 12.2],
             [179.0, 10.0]]]]),
        "hole": region.prepare_geometry([[
            _square(2.5, 48.5, 0.5), _square(2.45, 48.55, 0.2)]]),
        "multipolygon": region.prepare_geometry([
            [_square(-3.7, 40.4, 0.3)], [_square(-3.0, 40.9, 0.2)]]),
        # Base cell 58 is a pentagon centred at (2.30°, -5.25°).
        "pentagon": region.prepare_geometry([[
            _square(-5.2453903, 2.30088211, 1.5)]]),
    }


def golden_cases():
    """(set name, geometries, [(res, mode)]) for every recorded coverage."""
    yield ("city32_r0.15", pip.city_polygons(32, 0.15),
           [(r, m) for r in (7, 8, 9) for m in ("centroid", "candidates")])
    yield ("city8", pip.city_polygons(8),
           [(r, m) for r in (6, 7) for m in MODES])
    special = special_geometries()
    for name, res_list in (("transmeridian", (5, 6)), ("hole", (6, 7)),
                           ("multipolygon", (6, 7)), ("pentagon", (3, 4))):
        yield name, [special[name]], [(r, m) for r in res_list for m in MODES]


def entry_key(set_name, idx, res, mode) -> str:
    return f"{set_name}/{idx}/res{res}/{mode}"


def digest(cells: np.ndarray) -> dict:
    cells = np.unique(np.asarray(cells, dtype=np.int64))
    return {"n": int(cells.size),
            "sha256": hashlib.sha256(cells.astype("<i8").tobytes())
            .hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["entries"]


def test_golden_covers_every_case(golden):
    keys = {entry_key(s, i, r, m) for s, geoms, settings in golden_cases()
            for i in range(len(geoms)) for r, m in settings}
    assert keys == set(golden)


@pytest.mark.parametrize("set_name", [c[0] for c in golden_cases()])
def test_batched_tiling_matches_golden(golden, set_name):
    """All polygons of a set tiled in one batched flood fill."""
    _, geoms, settings = next(c for c in golden_cases() if c[0] == set_name)
    for res, mode in settings:
        pid, cells = region.polygons_to_cells(geoms, res, mode)
        for idx in range(len(geoms)):
            got = digest(cells[pid == idx])
            assert got == golden[entry_key(set_name, idx, res, mode)], \
                (set_name, idx, res, mode)


@pytest.mark.parametrize("name", ["transmeridian", "hole", "multipolygon",
                                  "pentagon"])
def test_single_geometry_tiling_matches_golden(golden, name):
    """The one-geometry entry points agree with the batched fill."""
    _, geoms, settings = next(c for c in golden_cases() if c[0] == name)
    for res, mode in settings:
        cells = region.polygon_to_cells(geoms[0], res, mode)
        assert np.unique(cells).size == cells.size
        assert digest(cells) == golden[entry_key(name, 0, res, mode)], \
            (name, res, mode)
    assert digest(region.candidate_cells(geoms[0], 6)) == digest(
        region.polygons_to_cells(geoms, 6, "candidates")[1])


@pytest.mark.parametrize("set_name", [c[0] for c in golden_cases()])
def test_compact_coverage_is_compacted_flat(set_name):
    """The tiler's native compacted output is, per geometry, exactly
    `hierarchy.compact` of its flat coverage, sorted by cell."""
    _, geoms, settings = next(c for c in golden_cases() if c[0] == set_name)
    for res, mode in settings:
        pid, cells = region.polygons_to_cells(geoms, res, mode)
        cpid, ccells = region.polygons_to_compact_cells(geoms, res, mode)
        assert (np.diff(cpid) >= 0).all()
        for idx in range(len(geoms)):
            flat = cells[pid == idx]
            want = hierarchy.compact(flat) if flat.size else flat
            np.testing.assert_array_equal(ccells[cpid == idx], want,
                                          err_msg=str((set_name, idx, res,
                                                       mode)))
