"""Direct unit tests for the map_batches stage wrappers (ops/stages.py)."""

import numpy as np
import pyarrow as pa

from h3ray.kernels import bits, latlng, measures
from h3ray.ops import stages


def make_batch(n=200, res=6, seed=3):
    rng = np.random.default_rng(seed)
    lat = rng.uniform(-70, 70, n)
    lng = rng.uniform(-180, 180, n)
    cells = latlng.latlng_to_cell(lat, lng, res)
    return pa.Table.from_arrays(
        [pa.array([f"u{i}" for i in range(n)]), pa.array(lat), pa.array(lng),
         pa.array(bits.as_u64(cells))],
        names=["url", "lat", "lng", "cell"]), cells


def test_encode_parent_stages():
    batch, cells = make_batch()
    out = stages.encode_stage(6)(batch)
    assert (out["cell_r6"].to_numpy(zero_copy_only=False).view(np.int64)
            == cells).all()
    out = stages.parent_stage(2, cell_col="cell")(batch)
    exp = bits.cell_to_parent(cells, 2)
    assert (out["parent_r2"].to_numpy(zero_copy_only=False).view(np.int64)
            == exp).all()


def test_area_stage_matches_kernel():
    batch, cells = make_batch()
    out = stages.area_stage("cell", unit="km2")(batch)
    assert np.allclose(out["area_km2"].to_numpy(),
                       measures.cell_area_km2(cells))


def test_path_expand_stage_endpoints():
    batch, cells = make_batch(n=30, res=7)
    near = latlng.latlng_to_cell(
        batch["lat"].to_numpy() + 0.2, batch["lng"].to_numpy() + 0.2, 7)
    b = batch.append_column("dest", pa.array(bits.as_u64(near)))
    out = stages.path_expand_stage("cell", "dest", ["url"])(b)
    path_cells = out["path_cell"].to_numpy(zero_copy_only=False).view(np.int64)
    # Every emitted path starts at its origin (first row per url).
    import collections
    first = {}
    for u, c in zip(out["url"].to_pylist(), path_cells):
        first.setdefault(u, c)
    urls = batch["url"].to_pylist()
    for i, u in enumerate(urls):
        if u in first:
            assert first[u] == cells[i]


def test_local_ij_stage_self_origin():
    batch, cells = make_batch()
    b = batch.append_column("origin", batch["cell"])
    out = stages.local_ij_stage("origin", "cell")(b)
    ok = out["local_ok"].to_numpy(zero_copy_only=False)
    assert ok.all()
    # Anchor-relative coordinates of the anchor itself round-trip to (i, j)
    # of the origin's own local frame -> reconstructing gives the origin.
    from h3ray.kernels import localij

    i = out["local_i"].to_numpy()
    j = out["local_j"].to_numpy()
    back, back_ok = localij.local_ij_to_cell(cells, i, j)
    assert back_ok.all() and (back == cells).all()


def test_trivia_kernels():
    from h3ray.kernels import localij, measures

    assert measures.pentagon_count() == 12
    assert measures.res0_cell_count() == 122
    assert measures.res0_cells().shape[0] == measures.res0_cell_count()
    assert measures.pentagons(9).shape[0] == measures.pentagon_count()
    assert (bits.is_res_class3(np.arange(16))
            == (np.arange(16) % 2 == 1)).all()
    # gridPathCellsSize == number of cells gridPathCells emits.
    batch, cells = make_batch(n=40, res=7)
    near = latlng.latlng_to_cell(
        batch["lat"].to_numpy() + 0.3, batch["lng"].to_numpy() + 0.3, 7)
    size, ok = localij.grid_path_cells_size(cells, near)
    rows, _, ok_rows = localij.grid_path_cells(cells, near)
    emitted = np.bincount(rows, minlength=cells.shape[0])
    assert (size[ok & ok_rows] == emitted[ok & ok_rows]).all()
    assert (size >= 1).all()


def test_edges_expand_stage():
    from h3ray.kernels import edgevertex as ev

    batch, cells = make_batch(n=60)
    out = stages.edges_expand_stage("cell", ["url"])(batch)
    pent = bits.is_pentagon(cells)
    assert out.num_rows == int(np.where(pent, 5, 6).sum())
    edges = out["edge"].to_numpy(zero_copy_only=False).view(np.int64)
    assert ev.is_valid_directed_edge(edges).all()
    assert (ev.edge_origin(edges)
            == out["cell"].to_numpy(zero_copy_only=False)
            .view(np.int64)).all()
    assert np.allclose(out["edge_len_m"].to_numpy(),
                       ev.edge_length_m(edges))
    assert (out["edge_len_m"].to_numpy() > 0).all()


def test_boundary_expand_stage():
    from h3ray.kernels.boundary import cell_to_boundary

    batch, cells = make_batch(n=50)
    out = stages.boundary_expand_stage("cell", ["url"])(batch)
    off, elat, elng = cell_to_boundary(cells)
    assert out.num_rows == int(off[-1])
    assert np.allclose(out["vert_lat"].to_numpy(), elat)
    assert np.allclose(out["vert_lng"].to_numpy(), elng)
    # vert_idx restarts at 0 per cell and counts each cell's vertices.
    vidx = out["vert_idx"].to_numpy()
    counts = np.diff(off)
    assert (vidx[np.cumsum(counts)[:-1]] == 0).all() and vidx[0] == 0


def test_vertexes_expand_stage():
    from h3ray.kernels import edgevertex as ev

    batch, cells = make_batch(n=60)
    out = stages.vertexes_expand_stage("cell", ["url"])(batch)
    pent = bits.is_pentagon(cells)
    assert out.num_rows == int(np.where(pent, 5, 6).sum())
    verts = out["vertex"].to_numpy(zero_copy_only=False).view(np.int64)
    assert ev.is_valid_vertex(verts).all()
    vlat = out["vertex_lat"].to_numpy()
    vlng = out["vertex_lng"].to_numpy()
    elat, elng = ev.vertex_to_latlng(verts)
    assert np.allclose(vlat, elat) and np.allclose(vlng, elng)
