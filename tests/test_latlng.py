"""Conformance tests for encode/decode against the H3 C-library vectors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h3ray.kernels import bits, latlng


@pytest.fixture(scope="module")
def encode_corpus(reference_dataset):
    cells, lats, lngs = [], [], []
    with open(reference_dataset / "latLngToCell.txt") as f:
        for line in f:
            parts = line.split()
            if len(parts) == 3:
                cells.append(int(parts[0], 16))
                lats.append(float(parts[1]))
                lngs.append(float(parts[2]))
    return (np.array(cells, dtype=np.int64), np.array(lats), np.array(lngs))


@pytest.fixture(scope="module")
def boundary_corpus(reference_dataset):
    with open(reference_dataset / "cellToBoundary.txt") as f:
        return np.array([int(l, 16) for l in f.read().split()], dtype=np.int64)


def test_encode_conformance_bit_exact(encode_corpus):
    cells, lat, lng = encode_corpus
    res = bits.get_resolution(cells)
    out = np.empty_like(cells)
    for r in np.unique(res):
        m = res == r
        out[m] = latlng.latlng_to_cell(lat[m], lng[m], int(r))
    assert (out == cells).all(), f"{(out != cells).sum()} mismatches"


def test_decode_roundtrip_full_corpus(boundary_corpus):
    cells = boundary_corpus
    res = bits.get_resolution(cells)
    lat, lng = latlng.cell_to_latlng_rads(cells)
    out = np.empty_like(cells)
    for r in np.unique(res):
        m = res == r
        out[m] = latlng.latlng_rads_to_cell(lat[m], lng[m], int(r))
    assert (out == cells).all(), f"{(out != cells).sum()} mismatches"


def test_paris_doctest():
    # LatLng::new(48.864716, 2.349014).to_cell(Five) (src/coord/latlng.rs doc)
    cell = latlng.latlng_to_cell(np.array([48.864716]), np.array([2.349014]), 5)
    assert bits.is_valid_cell(cell)[0]
    assert bits.get_resolution(cell)[0] == 5
    lat, lng = latlng.cell_to_latlng(cell)
    assert abs(lat[0] - 48.864716) < 0.2 and abs(lng[0] - 2.349014) < 0.2


def test_pentagon_decode():
    from h3ray.kernels._tables import PENTAGON_BASE_CELLS
    from h3ray.kernels.constants import DEFAULT_CELL_INDEX
    pents = bits.set_base_cell(
        np.full(12, DEFAULT_CELL_INDEX, dtype=np.int64), PENTAGON_BASE_CELLS)
    for r in range(1, 6):
        cells = bits.cell_to_center_child(pents, r)
        lat, lng = latlng.cell_to_latlng_rads(cells)
        back = latlng.latlng_rads_to_cell(lat, lng, r)
        assert (back == cells).all()


def test_regression_coords_longitude_periodicity():
    """Reference regression coordinates (tests/h3/latlng_to_cell.rs:44-52):
    longitudes beyond 180 must encode identically to lng-360, and the
    results must be valid cells that round-trip."""
    cases = [(-79.704099298, 209.043753147, 11),
             (-60.693672001, 187.742078304, 11)]
    for lat, lng, res in cases:
        a = latlng.latlng_to_cell(np.array([lat]), np.array([lng]), res)
        b = latlng.latlng_to_cell(np.array([lat]), np.array([lng - 360.0]),
                                  res)
        assert a[0] == b[0]
        assert bits.is_valid_cell(a).all()
        clat, clng = latlng.cell_to_latlng(a)
        back = latlng.latlng_to_cell(clat, clng, res)
        assert back[0] == a[0]


def test_paris_point_all_resolutions():
    """The reference's per-res macro point: every res encodes to a valid
    cell at that res; parent of the res-r encode is within one grid step of
    the res-(r-1) encode (exact nesting does NOT hold in H3 — children
    overhang their parents — but the drift is bounded to adjacency)."""
    from h3ray.kernels import grid

    lat, lng = 48.854501508844095, 2.3729695423293613
    cells = [latlng.latlng_to_cell(np.array([lat]), np.array([lng]), r)[0]
             for r in range(16)]
    for r in range(16):
        arr = np.array([cells[r]], dtype=np.int64)
        assert bits.is_valid_cell(arr).all()
        assert bits.get_resolution(arr)[0] == r
    for r in range(1, 16):
        par = bits.cell_to_parent(np.array([cells[r]], dtype=np.int64), r - 1)
        prev = np.array([cells[r - 1]], dtype=np.int64)
        same = par[0] == prev[0]
        adjacent = grid.are_neighbor_cells(par, prev)[0]
        assert same or adjacent, r


def test_cell_to_latlng_pinned_coordinate_goldens():
    """Coordinate-level decode goldens (the round-trip re-encode test
    proves cell-exactness, not coordinates). Values are the canonical
    public H3 documentation examples — the SF res-9 cell from the Uber H3
    quickstart and the res-5 cell from the h3-py docs — decoded by every
    H3 implementation to these centers; the encodes are the documented
    inverse pairs (reference example coords: README.md:35)."""
    goldens = [
        # (cell, center_lat_deg, center_lng_deg)
        (0x8928308280fffff, 37.77670234943567, -122.41845932318311),
        (0x85283473fffffff, 37.34579337536848, -121.97637597255124),
    ]
    cells = np.array([g[0] for g in goldens], dtype=np.uint64)
    lat, lng = latlng.cell_to_latlng(cells)
    for i, (_, glat, glng) in enumerate(goldens):
        assert abs(lat[i] - glat) < 1e-9, (hex(goldens[i][0]), lat[i])
        assert abs(lng[i] - glng) < 1e-9, (hex(goldens[i][0]), lng[i])
    # The documented inverse encodes land exactly on the same cells.
    enc9 = latlng.latlng_to_cell(np.array([37.7752702151959257]),
                                 np.array([-122.418307270836384]), 9)
    assert enc9[0] == np.int64(0x8928308280fffff)
    enc5 = latlng.latlng_to_cell(np.array([37.3615593]),
                                 np.array([-122.0553238]), 5)
    assert enc5[0] == np.int64(0x85283473fffffff)


def test_great_circle_distance_doctest_goldens():
    """Exact doubles from the reference's doctests
    (src/coord/latlng.rs:166,192,208 — Paris->Shanghai), same haversine
    formulation, so the kernel must reproduce them to float64 ulps."""
    from h3ray.kernels import measures

    src = np.radians([48.864716, 2.349014])
    dst = np.radians([31.224361, 121.469170])
    rads = measures.great_circle_distance_rads(src[0], src[1],
                                               dst[0], dst[1])
    km = measures.great_circle_distance_km(src[0], src[1], dst[0], dst[1])
    m = measures.great_circle_distance_m(src[0], src[1], dst[0], dst[1])
    assert abs(rads - 1.453859220532047) < 1e-14
    assert abs(km - 9262.547534054209) < 1e-8
    assert abs(m - 9262547.534054209) < 1e-5
    # Radian<->degree pins (src/coord/latlng.rs:128,143).
    assert abs(np.radians(48.864716) - 0.8528501822519535) < 1e-16
    assert abs(np.radians(2.349014) - 0.04099802847544208) < 1e-17


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["lat", "lng"])
def test_non_finite_input_raises_typed_error(bad, column):
    """NaN or +-inf raises InvalidLatLng (a ValueError) naming the first
    bad row and the count, before any table lookup; no RuntimeWarning."""
    import warnings

    lat = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    lng = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    (lat if column == "lat" else lng)[[1, 3]] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(latlng.InvalidLatLng) as err:
            latlng.latlng_to_cell(lat, lng, 9)
    assert isinstance(err.value, ValueError)
    assert (err.value.row, err.value.count) == (1, 2)
    assert "first at row 1" in str(err.value)
    # Finite rows alone still encode.
    ok = np.isfinite(lat) & np.isfinite(lng)
    assert latlng.latlng_to_cell(lat[ok], lng[ok], 9).shape == (3,)


def _hostile_cells(draw_u64, n_valid, seed):
    """Valid cells at random res with hostile values mixed in: 0, -1,
    2^63 - 1, random u64 bits, and cells with the mode set to a directed
    edge (2) or a vertex (4)."""
    rng = np.random.default_rng(seed)
    res = rng.integers(0, 16)
    valid = latlng.latlng_to_cell(rng.uniform(-89, 89, n_valid),
                                  rng.uniform(-180, 180, n_valid), res)
    mode = bits.get_mode(valid[:2])
    edge_vertex = (valid[:2] & ~(np.int64(0xF) << 59)) | (
        np.array([2, 4], dtype=np.int64) << 59)
    assert (mode == 1).all()
    hostile = np.concatenate([
        np.array([0, -1, 2 ** 63 - 1], dtype=np.int64),
        np.asarray(draw_u64, dtype=np.uint64).view(np.int64), edge_vertex])
    hostile = hostile[~bits.is_valid_cell(hostile)]
    cells = np.concatenate([valid, hostile])
    return rng.permutation(cells)


@settings(max_examples=40, deadline=None)
@given(u64=st.lists(st.integers(0, 2 ** 64 - 1), max_size=6),
       n_valid=st.integers(2, 20), seed=st.integers(0, 2 ** 31))
def test_decode_entries_raise_typed_invalid_cell(u64, n_valid, seed):
    """cell_to_latlng, cell_to_latlng_rads, cell_to_boundary and
    cell_to_boundary_rads raise InvalidCell (a ValueError) naming the
    first bad row and the count whenever a row is not a valid cell, and
    never an IndexError; the valid rows alone decode."""
    import warnings

    from h3ray.kernels import boundary

    cells = _hostile_cells(u64, n_valid, seed)
    bad = ~bits.is_valid_cell(cells)
    for fn in (latlng.cell_to_latlng, latlng.cell_to_latlng_rads,
               boundary.cell_to_boundary, boundary.cell_to_boundary_rads):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if bad.any():
                with pytest.raises(latlng.InvalidCell) as err:
                    fn(cells)
                assert isinstance(err.value, ValueError)
                assert (err.value.row, err.value.count) == (
                    int(np.argmax(bad)), int(bad.sum()))
            fn(cells[~bad])
            fn(cells[~bad].view(np.uint64))
