"""PIP join pipeline: exactness vs brute-force point-in-polygon."""

import numpy as np
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

from h3ray.io import pages as pages_io
from h3ray.kernels import bits, latlng, region
from h3ray.pipelines import pip

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def page_points():
    tbl = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
    ds = pages_io.pages_from_documents(SF)
    urls = ds.to_pandas()["url"].to_numpy()
    import pyarrow as pa
    lat, lng = pages_io.geotag(pa.array(urls.tolist()))
    return urls, lat, lng


def brute_force(geoms, urls, lat, lng):
    exp = set()
    for pid, g in enumerate(geoms):
        inside = region.contains_points(g, np.deg2rad(lat), np.deg2rad(lng))
        for u in urls[inside]:
            exp.add((u, pid))
    return exp


def test_exact_pip_join_matches_brute_force(ray_session, page_points):
    urls, lat, lng = page_points
    geoms = pip.city_polygons(6)
    ds = pages_io.pages_from_documents(SF)
    out = pip.pip_join(ds, geoms, res=8, exact=True).to_pandas()
    got = set(zip(out["url"], out["polygon_id"]))
    exp = brute_force(geoms, urls, lat, lng)
    assert got == exp
    assert len(exp) > 20  # cities are hot spots; polygons must hit pages


def test_centroid_pip_join_matches_coverage(ray_session, page_points):
    urls, lat, lng = page_points
    geoms = pip.city_polygons(4)
    res = 7
    ds = pages_io.pages_from_documents(SF)
    out = pip.pip_join(ds, geoms, res=res, mode="centroid").to_pandas()
    got = set(zip(out["url"], out["polygon_id"]))

    cells = latlng.latlng_to_cell(lat, lng, res)
    exp = set()
    for pid, g in enumerate(geoms):
        cov = set(np.unique(region.polygon_to_cells(g, res)).tolist())
        for u, c in zip(urls, cells):
            if int(c) in cov:
                exp.add((u, pid))
    assert got == exp


def test_compact_probe_equals_flat_probe():
    geoms = pip.city_polygons(3)
    res = 8
    flat = pip.cell_probe(*pip._tile(geoms, res, "centroid"), res)
    comp = pip.build_probe(geoms, res)
    # Compacted probe must be strictly smaller but match identically.
    n_flat = flat["ids"].shape[0]
    n_comp = comp["ids"].shape[0]
    assert n_comp < n_flat

    rng = np.random.default_rng(3)
    lat = rng.uniform(-60, 60, 5000)
    lng = rng.uniform(-180, 180, 5000)
    for i in range(3):
        lat[i::50] = pages_io.CITY_LAT[i] + rng.normal(0, 0.5, lat[i::50].size)
        lng[i::50] = pages_io.CITY_LNG[i] + rng.normal(0, 0.5, lng[i::50].size)
    cells = latlng.latlng_to_cell(lat, lng, res)
    r1, p1 = pip.probe_cells(flat, cells)
    r2, p2 = pip.probe_cells(comp, cells)
    assert set(zip(r1, p1)) == set(zip(r2, p2))
    assert r1.size > 0


def test_pip_join_shuffle_equals_broadcast(ray_session, page_points):
    """The hash-join variant returns the broadcast join's rows, columns
    and dtypes (cell as uint64)."""
    import pandas as pd

    geoms = pip.city_polygons(5)
    ds = pages_io.pages_from_documents(SF)
    a = pip.pip_join(ds, geoms, res=7, mode="centroid").to_pandas()
    ds2 = pages_io.pages_from_documents(SF)
    b = pip.pip_join_shuffle(ds2, geoms, res=7, mode="centroid").to_pandas()
    key = ["url", "polygon_id", "cell"]
    assert list(b.columns) == key and len(a) > 20
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True))


def test_probe_batch_recheck_matches_contains_points(monkeypatch):
    """The batched exact recheck (one `region._contains` call over every
    (candidate, polygon_id) pair) keeps exactly what per-polygon
    `contains_points` keeps, on the tiler's special shapes (hole,
    multipolygon, antimeridian, pentagon) with points sampled in each
    polygon's bbox plus every ring vertex (the on-boundary case)."""
    import pyarrow as pa
    from test_tiler_golden import special_geometries

    geoms = list(special_geometries().values())
    rng = np.random.default_rng(17)
    lat, lng = [], []
    for g in geoms:
        edges = region._edge_table([g])
        for x0, y0, x1, y1 in edges["p_bbox"]:
            pad = 0.1 * max(x1 - x0, y1 - y0)
            lat.append(rng.uniform(y0 - pad, y1 + pad, 1500))
            lng.append(rng.uniform(x0 - pad, x1 + pad, 1500))
        lat.append(np.r_[edges["ay"], edges["by"]])
        lng.append(np.r_[edges["ax"], edges["bx"]])
    lat = np.rad2deg(np.concatenate(lat))
    lng = np.rad2deg((np.concatenate(lng) + np.pi) % (2 * np.pi) - np.pi)
    res = 6
    cells = latlng.latlng_to_cell(lat, lng, res)
    urls = pa.array([f"p{i}" for i in range(lat.shape[0])])
    monkeypatch.setattr(pip.pages_io, "geotag_encode",
                        lambda u, r: (urls, lat, lng, cells))

    data = {"probe": pip.build_probe(geoms, res, "candidates"),
            "edges": region._edge_table(geoms)}
    batch = pa.table({"url": urls})
    got = pip._probe_batch(data, batch, res, exact=True)

    row, pid = pip.probe_cells(data["probe"], cells)
    keep = np.zeros(row.shape[0], dtype=bool)
    for p in np.unique(pid):
        m = pid == p
        keep[m] = region.contains_points(
            geoms[p], np.deg2rad(lat[row[m]]), np.deg2rad(lng[row[m]]))
    exp = pa.Table.from_arrays(
        [urls.take(pa.array(row[keep])), pa.array(pid[keep]),
         pa.array(cells[row[keep]].view(np.uint64))],
        names=["url", "polygon_id", "cell"])
    assert got.equals(exp)
    # every shape keeps some candidates and drops others
    kept = set(pid[keep].tolist())
    assert kept == set(range(len(geoms)))
    assert 0 < keep.sum() < keep.shape[0]


def _per_level_probe(pid, cell, cells):
    """Reference probe: for every res r in the coverage, each page cell's
    res-r ancestor looked up in the sorted res-r coverage cells; returns
    every (row, polygon_id) match."""
    rows, pids = [], []
    rs = bits.get_resolution(cell)
    for r in np.unique(rs):
        order = np.argsort(cell[rs == r], kind="stable")
        c_r, p_r = cell[rs == r][order], pid[rs == r][order]
        anc = bits.cell_to_parent(cells, r)
        lo = np.searchsorted(c_r, anc, side="left")
        n = np.searchsorted(c_r, anc, side="right") - lo
        row = np.repeat(np.arange(cells.shape[0]), n)
        rows.append(row)
        pids.append(p_r[lo[row] + np.arange(row.shape[0])
                        - np.repeat(np.cumsum(n) - n, n)])
    return np.concatenate(rows), np.concatenate(pids)


def _pairs(row, pid):
    order = np.lexsort((pid, row))
    return np.stack([row[order], pid[order]])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 31), res=st.integers(4, 6),
       compact=st.booleans(), mode=st.sampled_from(["centroid",
                                                   "candidates"]))
def test_interval_probe_matches_per_level_probe(seed, res, compact, mode):
    """The one-lookup interval probe finds the same (row, polygon_id)
    multiset as a per-level ancestor probe over the same coverage: three
    overlapping squares at a random place plus the tiler's special shapes
    (transmeridian, hole, multipolygon, pentagon), compacted or flat, with
    pages drawn over every polygon's bbox."""
    from test_tiler_golden import _square, special_geometries

    rng = np.random.default_rng(seed)
    lat0, lng0 = rng.uniform(-60, 60), rng.uniform(-170, 170)
    geoms = [region.prepare_geometry([[_square(
        lng0 + dx, lat0 + dy, half)]]) for dx, dy, half in
        rng.uniform([-0.3, -0.3, 0.4], [0.3, 0.3, 0.8], (3, 3))]
    geoms += list(special_geometries().values())
    lat, lng = [], []
    for x0, y0, x1, y1 in region._edge_table(geoms)["p_bbox"]:
        lat.append(rng.uniform(y0, y1, 2000))
        lng.append(rng.uniform(x0, x1, 2000))
    lat = np.rad2deg(np.concatenate(lat))
    lng = np.rad2deg((np.concatenate(lng) + np.pi) % (2 * np.pi) - np.pi)
    cells = latlng.latlng_to_cell(lat, lng, res)

    coverage = pip._tile(geoms, res, mode, compact)
    probe = (pip.build_probe(geoms, res, mode) if compact
             else pip.cell_probe(*coverage, res))
    got = pip.probe_cells(probe, cells)
    want = _per_level_probe(*coverage, cells)
    np.testing.assert_array_equal(_pairs(*got), _pairs(*want))
    assert np.unique(got[1]).size >= 5
