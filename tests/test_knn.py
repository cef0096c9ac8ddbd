"""kNN join pipeline vs brute-force oracle."""

import numpy as np
import pandas as pd
import pyarrow as pa

from h3ray.io import pages as pages_io
from h3ray.kernels import grid, latlng
from h3ray.pipelines import knn

SF = "/root/testdata/sf0.001"


def test_knn_join_matches_brute_force(ray_session):
    n_q, k_ring, k, res = 8, 2, 5, 5
    qlat = pages_io.CITY_LAT[:n_q]
    qlng = pages_io.CITY_LNG[:n_q]
    ds = pages_io.pages_from_documents(SF)
    out = knn.knn_join(ds, qlat, qlng, res=res, k_ring=k_ring,
                       k_nearest=k).to_pandas()

    # Brute force: pages whose cell is within gridDisk(k_ring) of the query
    # cell, ranked by haversine, top k.
    urls = pages_io.pages_from_documents(SF).to_pandas()["url"].to_numpy()
    lat, lng = pages_io.geotag(pa.array(urls.tolist()))
    cells = latlng.latlng_to_cell(lat, lng, res)
    qcells = latlng.latlng_to_cell(qlat, qlng, res)
    qrow, disk, _ = grid.grid_disk_distances(qcells, k_ring)
    for q in range(n_q):
        dcells = set(disk[qrow == q].tolist())
        mask = np.array([int(c) in dcells for c in cells])
        d = knn.haversine_km(np.deg2rad(lat[mask]), np.deg2rad(lng[mask]),
                             np.deg2rad(qlat[q]), np.deg2rad(qlng[q]))
        order = np.argsort(d, kind="stable")[:k]
        exp_urls = set(urls[mask][order])
        got = out[out.query_id == q]
        assert set(got.url) == exp_urls, f"query {q}"
        # Haversine values must match to float precision.
        assert np.allclose(np.sort(got.distance_km.to_numpy()),
                           np.sort(d[order]), atol=1e-9)
        assert (got.grid_dist <= k_ring).all()
        assert (got.grid_dist >= -1).all()


def test_knn_join_distributed_merge_equals_driver(ray_session, monkeypatch):
    """The bucketed-groupby final ranking (the scale path past
    DRIVER_MERGE_MAX_ROWS, reached here by lowering it) must reproduce the
    driver tree-root exactly."""
    n_q, k_ring, k, res = 6, 2, 4, 5
    qlat = pages_io.CITY_LAT[:n_q]
    qlng = pages_io.CITY_LNG[:n_q]
    a = knn.knn_join(pages_io.pages_from_documents(SF), qlat, qlng,
                     res=res, k_ring=k_ring, k_nearest=k).to_pandas()
    monkeypatch.setattr(knn, "DRIVER_MERGE_MAX_ROWS", 0)
    b = knn.knn_join(pages_io.pages_from_documents(SF), qlat, qlng,
                     res=res, k_ring=k_ring, k_nearest=k).to_pandas()
    key = ["query_id", "url", "distance_km", "grid_dist"]
    assert len(a) > n_q
    assert set(map(tuple, a[key].itertuples(index=False))) == \
        set(map(tuple, b[key].itertuples(index=False)))


def test_knn_join_shuffle_equals_broadcast(ray_session):
    n_q, k_ring, k, res = 6, 2, 4, 5
    qlat = pages_io.CITY_LAT[:n_q]
    qlng = pages_io.CITY_LNG[:n_q]
    a = knn.knn_join(pages_io.pages_from_documents(SF), qlat, qlng,
                     res=res, k_ring=k_ring, k_nearest=k).to_pandas()
    b = knn.knn_join_shuffle(pages_io.pages_from_documents(SF), qlat, qlng,
                             res=res, k_ring=k_ring,
                             k_nearest=k).to_pandas()
    key = ["query_id", "url", "distance_km", "grid_dist"]
    a = a[key].sort_values(key).reset_index(drop=True)
    b = b[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
