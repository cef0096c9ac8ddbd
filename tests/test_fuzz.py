"""Property-based tests (hypothesis) mirroring the reference fuzz targets
(fuzz/fuzz_targets/: cell_index, compact, uncompact, local_ij, grid,
index_io, polygon_to_cells) plus the vectorized distributed-op cores."""

import numpy as np
from hypothesis import given, settings, strategies as st

from h3ray.kernels import bits, edgevertex as ev, hierarchy, latlng, localij


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 8), st.integers(1, 12))
def test_segmented_top_k_matches_pandas(seed, k, n_keys):
    """ops.skew segmented top-k == pandas groupby head under random ties."""
    import pandas as pd
    import pyarrow as pa

    from h3ray.ops.skew import _segmented_top_k

    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 200))
    keys = rng.integers(0, n_keys, n)
    vals = rng.integers(0, 5, n).astype(np.float64)  # many ties
    tb = rng.permutation(n).astype(np.int64) if n else np.empty(0, np.int64)
    t = pa.Table.from_arrays(
        [pa.array(keys), pa.array(vals), pa.array(tb)],
        names=["key", "value", "tiebreak"])
    got = _segmented_top_k(t, "key", "value", k, "tiebreak").to_pandas()
    df = pd.DataFrame({"key": keys, "value": vals, "tiebreak": tb})
    exp = df.sort_values(["key", "value", "tiebreak"],
                         ascending=[True, False, True]) \
        .groupby("key").head(k)
    assert sorted(map(tuple, got.to_numpy().tolist())) == \
        sorted(map(tuple, exp.to_numpy().tolist()))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_ragged_take_matches_loop(seed):
    from h3ray.ops.join import _ragged_take

    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 50))
    starts = rng.integers(0, 100, n)
    lengths = rng.integers(0, 6, n)
    got = _ragged_take(starts, lengths)
    exp = [s + j for s, ln in zip(starts, lengths) for j in range(ln)]
    assert got.tolist() == exp


valid_res = st.integers(min_value=0, max_value=15)
raw_u64 = st.integers(min_value=0, max_value=2 ** 64 - 1)


def random_cells(seed: int, res: int, n: int = 64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lat = rng.uniform(-89, 89, n)
    lng = rng.uniform(-180, 180, n)
    return latlng.latlng_to_cell(lat, lng, res)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), valid_res)
def test_encode_decode_roundtrip(seed, res):
    """fuzz: latlng <-> cell (cell_index.rs target analogue)."""
    cells = random_cells(seed, res)
    assert bits.is_valid_cell(cells).all()
    lat, lng = latlng.cell_to_latlng(cells)
    back = latlng.latlng_to_cell(lat, lng, res)
    assert (back == cells).all()


@settings(max_examples=40, deadline=None)
@given(st.lists(raw_u64, min_size=1, max_size=64))
def test_validity_never_crashes(values):
    """fuzz: arbitrary u64 through every validator (index_io target)."""
    arr = np.array(values, dtype=np.uint64).view(np.int64)
    v_cell = bits.is_valid_cell(arr)
    v_idx = ev.is_valid_index(arr)
    # A valid cell is a valid index; a valid index with mode 1 is a cell.
    assert not (v_cell & ~v_idx).any()
    # Validators agree with field invariants where they claim validity.
    ok = np.flatnonzero(v_cell)
    if ok.size:
        assert (bits.get_mode(arr[ok]) == 1).all()
        assert (bits.get_base_cell(arr[ok]) <= 121).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 8), st.integers(0, 4))
def test_compact_uncompact_roundtrip(seed, res, drop):
    """fuzz: compact target — compact(uncompact(S)) stability and
    uncompact(compact(S)) == S on arbitrary unique cell sets."""
    cells = np.unique(random_cells(seed, res, 128))
    if drop and cells.shape[0] > drop:
        cells = cells[drop:]
    comp = hierarchy.compact(cells)
    # Compacted set must be non-overlapping and uncompact back exactly.
    _, expanded = hierarchy.cell_to_children(comp, res)
    assert np.array_equal(np.sort(expanded), np.sort(cells))
    # Idempotent: compacting an already-compact mixed set changes nothing.
    assert np.array_equal(hierarchy.compact_mixed(comp), np.sort(comp))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 6))
def test_local_ij_fuzz(seed, res):
    """fuzz: local_ij target — round-trip wherever defined; arbitrary
    (i, j) inputs never crash."""
    cells = random_cells(seed, res, 32)
    anchors = np.roll(cells, 1)
    i, j, ok = localij.cell_to_local_ij(anchors, cells)
    back, ok2 = localij.local_ij_to_cell(anchors[ok], i[ok], j[ok])
    assert (back[ok2] == cells[ok][ok2]).all()
    # Garbage coordinates must not crash.
    rng = np.random.default_rng(seed)
    gi = rng.integers(-50, 50, 16)
    gj = rng.integers(-50, 50, 16)
    localij.local_ij_to_cell(cells[:16], gi, gj)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 3), st.integers(1, 3))
def test_grid_disk_contains_ring(seed, res, k):
    """fuzz: grid target — ring(k) is exactly disk(k) minus disk(k-1)."""
    from h3ray.kernels import grid

    cells = random_cells(seed, res, 16)
    row_d, disk, dist = grid.grid_disk_distances(cells, k)
    row_r, ring = grid.grid_ring(cells, k)
    for idx in range(cells.shape[0]):
        dset = set(disk[(row_d == idx) & (dist == k)].tolist())
        rset = set(ring[row_r == idx].tolist())
        assert dset == rset


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 8), st.integers(0, 15))
def test_parent_child_positions(seed, res, child_res):
    if child_res < res:
        return
    cells = random_cells(seed, res, 32)
    pos, ok = hierarchy.child_position(
        bits.cell_to_center_child(cells, child_res), res)
    assert ok.all() and (pos == 0).all()  # center child is rank 0


def star_geometry(seed: int, n_verts: int) -> dict:
    """A random star-shaped polygon: `n_verts` vertices at random angles
    and radii (0.05 to 1.5 degrees) around a random centre."""
    from h3ray.kernels import region

    rng = np.random.default_rng(seed)
    lat0 = rng.uniform(-60, 60)
    lng0 = rng.uniform(-170, 170)
    ang = np.sort(rng.uniform(0, 2 * np.pi, n_verts))
    rad = rng.uniform(0.05, 1.5, n_verts)
    lat = lat0 + rad * np.sin(ang)
    lng = lng0 + rad * np.cos(ang)
    ring = np.stack([np.append(lng, lng[0]), np.append(lat, lat[0])], axis=1)
    return region.prepare_geometry([[ring]])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(3, 9), st.integers(4, 9))
def test_polygon_to_cells_fuzz(seed, n_verts, res):
    """fuzz: polygon_to_cells target — random star-shaped polygons: size
    hint bounds the coverage, outputs are valid cells at the target res,
    and the containment modes nest (boundary <= centroid <= intersects <=
    covers + 1)."""
    from h3ray.kernels import region

    g = star_geometry(seed, n_verts)

    hint = region.coverage_size_hint(g, res)
    out = {m: set(np.unique(region.polygon_to_cells(g, res, m)).tolist())
           for m in ("centroid", "boundary", "intersects", "covers")}
    assert len(out["centroid"]) <= hint
    for m, cells in out.items():
        arr = np.array(sorted(cells), dtype=np.int64)
        if arr.size:
            assert bits.is_valid_cell(arr).all(), m
            assert (bits.get_resolution(arr) == res).all(), m
    assert out["boundary"] <= out["centroid"] <= out["intersects"]
    # Covers == intersects except the geometry-within-one-cell case.
    assert out["intersects"] <= out["covers"] or \
        len(out["covers"]) == len(out["intersects"])
