"""An oracle for the polygon tiler built from other kernels: a grid disk
in place of the descent, and the one-geometry `contains_points`. The
latter shares the descent's winding predicate, but not its reach bound,
outline tracing, splitting or compaction.

For random star polygons, star polygons with a hole, polygons across the
antimeridian and polygons around a pentagon, at res 3-9:

- `polygon_to_cells(g, res, "centroid")` is exactly the set of cells of a
  padded cover of the geometry (a `grid_disk` around its centre, wide
  enough that its outer ring holds no match) whose centroid passes
  `contains_points`;
- the containment modes nest: boundary <= centroid <= intersects <=
  candidates.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from h3ray.kernels import grid, latlng, measures, region
from h3ray.kernels.constants import HEX_EDGE_RADS

KINDS = ("star", "hole", "transmeridian", "pentagon")


def _ring(lat0, lng0, ang, radii):
    """Closed [lng, lat] ring (degrees) of points `radii` degrees from the
    centre at angles `ang`, longitudes wrapped into [-180, 180)."""
    lat = lat0 + radii * np.sin(ang)
    lng = lng0 + radii * np.cos(ang) / math.cos(math.radians(lat0))
    lng = (lng + 180.0) % 360.0 - 180.0
    return np.stack([np.append(lng, lng[0]), np.append(lat, lat[0])], axis=1)


def shape(kind: str, seed: int, n_verts: int, res: int):
    """(prepared geometry, centre lat, centre lng, radius), degrees; the
    radius is 3-15 res-`res` edges."""
    rng = np.random.default_rng(seed)
    radius = math.degrees(HEX_EDGE_RADS[res]) * rng.uniform(3.0, 15.0)
    lat0 = rng.uniform(-60.0, 60.0)
    lng0 = rng.uniform(-170.0, 170.0)
    if kind == "transmeridian":
        lng0 = 180.0 + rng.uniform(-0.5, 0.5) * radius
    elif kind == "pentagon":
        plat, plng = latlng.cell_to_latlng(
            measures.pentagons(res)[rng.integers(12):][:1])
        lat0 = plat[0] + rng.uniform(-0.25, 0.25) * radius
        lng0 = plng[0] + rng.uniform(-0.25, 0.25) * radius
    # Angle gaps below pi keep the ring star-shaped around the centre.
    ang = np.linspace(0.0, 2.0 * np.pi, n_verts, endpoint=False) + \
        rng.uniform(0.0, 0.8 * 2.0 * np.pi / n_verts, n_verts)
    rings = [_ring(lat0, lng0, ang, radius * rng.uniform(0.5, 1.0, n_verts))]
    if kind == "hole":
        # Inside 0.35 radius; the outer ring stays beyond 0.5 cos(pi/5).
        hole = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
        rings.append(_ring(lat0, lng0, hole,
                           radius * rng.uniform(0.1, 0.35, 5)))
    lng0 = (lng0 + 180.0) % 360.0 - 180.0
    return region.prepare_geometry([rings]), lat0, lng0, radius


def centroid_oracle(geom, lat0, lng0, radius, res):
    """Cells of a grid disk around the centre whose centroid is inside."""
    k = int(math.ceil(math.radians(radius) / HEX_EDGE_RADS[res])) + 3
    centre = latlng.latlng_to_cell(np.array([lat0]), np.array([lng0]), res)
    _, cells, dist = grid.grid_disk_distances(centre, k)
    inside = region.contains_points(geom, *latlng.cell_to_latlng_rads(cells))
    assert not inside[dist == k].any(), "cover too small"
    return set(cells[inside].tolist())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 2 ** 31), st.integers(3, 9),
       st.integers(3, 9))
def test_tiling_matches_centroid_oracle(kind, seed, n_verts, res):
    geom, lat0, lng0, radius = shape(kind, seed, n_verts, res)
    out = {m: set(region.polygon_to_cells(geom, res, m).tolist())
           for m in ("boundary", "centroid", "intersects", "candidates")}
    assert out["centroid"] == centroid_oracle(geom, lat0, lng0, radius, res)
    assert out["boundary"] <= out["centroid"] <= out["intersects"] \
        <= out["candidates"]


def test_shapes_reach_their_special_cases():
    """The transmeridian shapes cross the antimeridian, the pentagon
    shapes hold a pentagon, and the hole shapes have a hole."""
    for seed in range(5):
        g = shape("transmeridian", seed, 6, 5)[0]
        assert g["shifted"] == [True]
        g = shape("hole", seed, 6, 5)[0]
        assert len(g["polys"][0]) == 2
        g, lat0, lng0, radius = shape("pentagon", seed, 6, 5)
        cells = region.polygon_to_cells(g, 5, "intersects")
        assert np.isin(measures.pentagons(5), cells).any()


def test_chunked_pair_steps_match_one_step(monkeypatch):
    """Many-vertex rings next to small ones split the (row, segment) pair
    predicates into many steps when `_PAIRS_PER_STEP` is small; every
    mode's coverage and `contains_points` stay what one step gives."""
    geoms = [shape("hole", 3, 2000, 7)[0], shape("star", 4, 6, 7)[0],
             shape("star", 5, 6, 7)[0],
             shape("transmeridian", 6, 500, 7)[0]]
    rng = np.random.default_rng(0)
    pts = [(np.deg2rad(lat0 + rng.uniform(-r, r, 3000)),
            np.deg2rad(lng0 + rng.uniform(-r, r, 3000)))
           for _, lat0, lng0, r in (shape("hole", 3, 2000, 7),
                                    shape("transmeridian", 6, 500, 7))]

    def run():
        cover = {m: region.polygons_to_cells(geoms, 7, m)
                 for m in region.TILING_MODES}
        inside = [region.contains_points(g, *p)
                  for g, p in zip((geoms[0], geoms[3]), pts)]
        return cover, inside

    one_cover, one_inside = run()
    monkeypatch.setattr(region, "_PAIRS_PER_STEP", 3000)
    cover, inside = run()
    for m in region.TILING_MODES:
        for a, b in zip(one_cover[m], cover[m]):
            np.testing.assert_array_equal(a, b, err_msg=m)
    for a, b in zip(one_inside, inside):
        assert a.any() and not a.all()
        np.testing.assert_array_equal(a, b)
