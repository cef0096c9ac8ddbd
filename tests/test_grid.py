"""Grid traversal tests: fast-vs-safe agreement, counts, geometry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h3ray.kernels import bits, grid, hierarchy, latlng
from h3ray.kernels.constants import DEFAULT_CELL_INDEX, HEX_EDGE_RADS


@pytest.fixture(scope="module")
def base_cells():
    return bits.set_base_cell(
        np.full(122, DEFAULT_CELL_INDEX, dtype=np.int64), np.arange(122))


def test_doctest_neighbors():
    a = np.array([0x8A1FB46622DFFFF], dtype=np.int64)
    b = np.array([0x8A1FB46622D7FFF], dtype=np.int64)
    assert grid.are_neighbor_cells(a, b)[0]
    assert not grid.are_neighbor_cells(a, a)[0]


@pytest.mark.parametrize("res,k", [(0, 1), (0, 3), (1, 2), (2, 1)])
def test_disk_fast_matches_safe(base_cells, res, k):
    cells = base_cells
    for _ in range(res):
        _, cells = hierarchy.cell_to_children(cells, bits.get_resolution(cells[:1])[0] + 1)
    o, c, d = grid.grid_disk_distances(cells, k)
    pent_idx = np.where(bits.is_pentagon(cells))[0]
    sample = np.unique(np.concatenate(
        [pent_idx, np.arange(0, len(cells), max(1, len(cells) // 25))]))
    so, sc, sd = grid.grid_disk_safe(cells[sample], k)
    for i, s in enumerate(sample):
        mine = set(zip(c[o == s].tolist(), d[o == s].tolist()))
        assert mine == set(zip(sc[so == i].tolist(), sd[so == i].tolist()))


def test_disk_counts_hexagons():
    cells = latlng.latlng_to_cell(
        np.array([48.8, 37.7, -33.8]), np.array([2.3, -122.4, 151.2]), 8)
    for k in (1, 2, 5):
        o, c, d = grid.grid_disk_distances(cells, k)
        counts = np.bincount(o, minlength=3)
        assert (counts == grid.max_grid_disk_size(k)).all()
        assert bits.is_valid_cell(c).all()


def test_ring_counts_and_closure():
    cells = latlng.latlng_to_cell(
        np.array([48.8, 37.7]), np.array([2.3, -122.4]), 8)
    for k in (1, 2, 4):
        o, c = grid.grid_ring(cells, k)
        assert (np.bincount(o, minlength=2) == 6 * k).all()
        # ring k == disk distance-k subset
        od, cd, dd = grid.grid_disk_distances(cells, k)
        for s in (0, 1):
            assert set(c[o == s].tolist()) == set(cd[(od == s) & (dd == k)].tolist())


def test_disk_geometric_sanity():
    rng = np.random.default_rng(7)
    cells = np.unique(latlng.latlng_to_cell(
        rng.uniform(-85, 85, 500), rng.uniform(-180, 180, 500), 6))
    o, c = grid.grid_ring(cells, 1)
    lat0, lng0 = latlng.cell_to_latlng_rads(cells[o])
    lat1, lng1 = latlng.cell_to_latlng_rads(c)
    sl = np.sin((lat1 - lat0) / 2)
    sg = np.sin((lng1 - lng0) / 2)
    d = 2 * np.arcsin(np.sqrt(sl * sl + np.cos(lat0) * np.cos(lat1) * sg * sg))
    ratio = d / (HEX_EDGE_RADS[6] * np.sqrt(3))
    assert ratio.min() > 0.6 and ratio.max() < 1.3


def test_pentagon_disk_size(base_cells):
    pent = base_cells[bits.is_pentagon(base_cells)]
    o, c, d = grid.grid_disk_distances(pent, 1)
    # A pentagon disk-1 has 6 cells (5 neighbors + itself).
    assert (np.bincount(o, minlength=12) == 6).all()


def _pentagon_neighborhood_cells(rng, res):
    """Cells on and around the 12 pentagons at `res`: each pentagon's
    2-disk plus random valid cells of the pentagon base cells whose digits
    are mostly center (0), so moves land next to the deleted K axis."""
    from h3ray.kernels._tables import PENTAGON_BASE_CELLS

    base = bits.set_base_cell(np.full(12, DEFAULT_CELL_INDEX, dtype=np.int64),
                              np.asarray(PENTAGON_BASE_CELLS))
    pents = bits.cell_to_center_child(base, res) if res else base
    _, disk, _ = grid.grid_disk_distances(pents, 2)
    n = 400
    cells = bits.set_resolution(bits.set_base_cell(
        np.full(n, DEFAULT_CELL_INDEX, dtype=np.int64),
        rng.choice(np.asarray(PENTAGON_BASE_CELLS), n)), res)
    for r in range(1, res + 1):
        digit = np.where(rng.random(n) < 0.7, 0, rng.integers(0, 7, n))
        cells = bits.set_direction(cells, digit, r)
    return np.concatenate([disk, cells[bits.is_valid_cell(cells)]])


@pytest.mark.parametrize("res", range(16))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 31))
def test_neighbor_fast_path_matches_full_walk(res, seed):
    """neighbor_rotations (fast path + walk on the rest) equals the full
    digit walk applied to every row: random cells and pentagon
    neighborhoods, all 6 directions, input rotations 0-5."""
    rng = np.random.default_rng(seed)
    cells = np.concatenate([
        latlng.latlng_rads_to_cell(rng.uniform(-1.57, 1.57, 200),
                                   rng.uniform(-3.14, 3.14, 200), res),
        _pentagon_neighborhood_cells(rng, res)])
    direction = np.tile(np.repeat(grid.RING_DIRECTIONS, 6), cells.shape[0])
    rotations = np.tile(np.arange(6), 6 * cells.shape[0])
    cells = np.repeat(cells, 36)
    got = grid.neighbor_rotations(cells, direction, rotations)
    want = grid._neighbor_rotations_walk(cells, direction, rotations)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
