"""Dissolve (cellsToLinkedMultiPolygon) tests vs reference goldens.

Structural and coordinate goldens from tests/api/geom/solvent.rs; ring
sequences compare as rotation-invariant vertex cycles at 1e-6 like the
reference's assert_multipolygon_equivalent.
"""

import numpy as np
import pytest

from h3ray.kernels import (
    bits,
    grid,
    hierarchy,
    latlng,
    measures,
    region,
    solvent,
)


def ring_cycle_equal(ring, expected, tol=1e-6):
    """Compare closed rings as cyclic sequences (any rotation/direction)."""
    a = ring[:-1]
    b = np.asarray(expected)
    if a.shape[0] != b.shape[0]:
        return False
    for direction in (a, a[::-1]):
        for shift in range(a.shape[0]):
            if np.allclose(np.roll(direction, shift, axis=0), b, atol=tol):
                return True
    return False


def test_single_hexagon():
    c = np.array([0x890dab6220bffff], dtype=np.int64)
    polys = solvent.dissolve(c)
    assert len(polys) == 1 and len(polys[0]) == 1
    assert polys[0][0].shape[0] - 1 == 6


def test_two_contiguous_cells():
    s = np.array([0x8928308291bffff, 0x89283082957ffff], dtype=np.int64)
    if not grid.are_neighbor_cells(s[:1], s[1:])[0]:
        pytest.skip("fixture cells not adjacent")
    polys = solvent.dissolve(np.sort(s))
    assert len(polys) == 1
    assert polys[0][0].shape[0] - 1 == 10


def test_three_contiguous_cells():
    s = np.sort(np.array([0x8928308288bffff, 0x892830828d7ffff,
                          0x8928308289bffff], dtype=np.int64))
    polys = solvent.dissolve(s)
    assert len(polys) == 1 and len(polys[0]) == 1
    assert polys[0][0].shape[0] - 1 == 12


def test_two_non_contiguous_cells():
    s = np.sort(np.array([0x8928308291bffff, 0x89283082943ffff],
                         dtype=np.int64))
    polys = solvent.dissolve(s)
    assert len(polys) == 2
    for p in polys:
        assert len(p) == 1 and p[0].shape[0] - 1 == 6


def test_hole():
    s = np.sort(np.array([
        0x892830828c7ffff, 0x892830828d7ffff, 0x8928308289bffff,
        0x89283082813ffff, 0x8928308288fffff, 0x89283082883ffff,
    ], dtype=np.int64))
    polys = solvent.dissolve(s)
    assert len(polys) == 1
    assert len(polys[0]) == 2  # outer + hole
    assert polys[0][0].shape[0] - 1 == 18
    assert polys[0][1].shape[0] - 1 == 6


EXPECTED_OUTER = [
    (-122.02796455348616, 37.38525281604115),
    (-122.02732437374608, 37.385758270113065),
    (-122.02648011977477, 37.38558967035685),
    (-122.02583992481574, 37.38609511818443),
    (-122.02604398797318, 37.386769168218684),
    (-122.02540378194031, 37.38727461225182),
    (-122.02560784515092, 37.38794865717242),
    (-122.02645212137664, 37.38811725429045),
    (-122.02665619162275, 37.38879129032762),
    (-122.02750047073862, 37.38895987611164),
    (-122.02814066848063, 37.38845442717775),
    (-122.02898493935817, 37.38862300294707),
    (-122.0296251218798, 37.38811754776844),
    (-122.02942103767036, 37.38744351927073),
    (-122.03006120911812, 37.38693806029814),
    (-122.02985712496266, 37.386264026686845),
    (-122.0290128763404, 37.38609544827806),
    (-122.02880879921976, 37.38542140578344),
]
EXPECTED_HOLE = [
    (-122.02752844388534, 37.386432316377665),
    (-122.02837270074619, 37.38660090480038),
    (-122.02857677792056, 37.38727494218174),
    (-122.0279365912526, 37.38778039491016),
    (-122.02709232326434, 37.387611807806856),
    (-122.0268882530716, 37.386937766655734),
]


def test_hole_in_center_golden_coords():
    """Exact coordinate golden from solvent.rs:11-56."""
    index = np.array([0x89283470803ffff], dtype=np.int64)
    _, cells = hierarchy.cell_to_children(index, 10)
    center = bits.cell_to_center_child(index, 10)[0]
    cells = np.sort(cells[cells != center])
    polys = solvent.dissolve(cells)
    assert len(polys) == 1 and len(polys[0]) == 2
    assert ring_cycle_equal(polys[0][0], EXPECTED_OUTER)
    assert ring_cycle_equal(polys[0][1], EXPECTED_HOLE)


def test_duplicate_rejected():
    with pytest.raises(ValueError):
        solvent.dissolve(np.array([0x8928308291bffff, 0x8928308291bffff],
                                  dtype=np.int64))


def test_heterogeneous_needs_resolution():
    mixed = np.array([0x8928308291bffff,
                      bits.cell_to_parent(
                          np.array([0x89283082943ffff], dtype=np.int64),
                          7)[0]], dtype=np.int64)
    with pytest.raises(ValueError):
        solvent.dissolve(mixed)
    polys = solvent.dissolve(np.sort(mixed), resolution=9)
    assert len(polys) >= 1


def test_world_coverage():
    polys = solvent.dissolve(measures.res0_cells())
    assert len(polys) == 8  # the 8-triangle world polygon


def test_dissolve_tiler_roundtrip():
    """polygonToCells(dissolve(cells)) == cells in centroid mode."""
    c = latlng.latlng_to_cell(np.array([12.0]), np.array([77.0]), 6)
    _, disk, _ = grid.grid_disk_distances(c, 3)
    disk = np.sort(disk)
    polys = solvent.dissolve(disk)
    g = region.prepare_geometry(polys, degrees=True)
    back = np.unique(region.polygon_to_cells(g, 6, "centroid"))
    assert set(back.tolist()) == set(disk.tolist())


def test_paris_corpus_roundtrip(reference_dataset):
    """Dissolve the Paris res-8 cell corpus and recover it by tiling."""
    with open(reference_dataset / "Paris" / "cells-res8.txt") as f:
        cells = np.sort(np.array([int(l, 16) for l in f.read().split()],
                                 dtype=np.int64))
    polys = solvent.dissolve(cells)
    g = region.prepare_geometry(polys, degrees=True)
    back = np.unique(region.polygon_to_cells(g, 8, "centroid"))
    assert set(back.tolist()) == set(cells.tolist())


def ring_vertex_set(polys):
    out = set()
    for poly in polys:
        for ring in poly:
            for lng, lat in np.round(ring[:-1], 9):
                out.add((lng, lat))
    return out


def poly_structure(polys):
    return sorted((len(p), tuple(sorted(r.shape[0] for r in p)))
                  for p in polys)


def test_boundary_edge_dissolve_equals_local():
    """dissolve_boundary_edges on the cancelled edge set == full dissolve."""
    from h3ray.kernels import edgevertex as ev

    c = latlng.latlng_to_cell(np.array([40.0]), np.array([-3.7]), 6)
    _, disk, _ = grid.grid_disk_distances(c, 3)
    rr, ring = grid.grid_ring(c, 5)
    cells = np.sort(np.unique(np.concatenate([disk, ring])))

    local = solvent.dissolve(cells)
    _, edges = ev.origin_to_directed_edges(cells)
    rev = ev.edge_reverse(edges)
    alive = edges[~np.isin(rev, edges)]
    from_edges = solvent.dissolve_boundary_edges(alive)

    assert ring_vertex_set(local) == ring_vertex_set(from_edges)
    assert poly_structure(local) == poly_structure(from_edges)


def test_dissolve_compact_equals_uncompact():
    """O(perimeter) compact-set dissolve == uncompact + dissolve."""
    c = latlng.latlng_to_cell(np.array([48.0]), np.array([2.0]), 5)
    _, kids = hierarchy.cell_to_children(c, 8)
    # Mixed-res compacted input: drop some children then compact.
    subset = np.sort(kids[kids % 7 != 3])
    comp = hierarchy.compact_mixed(np.unique(subset))
    a = solvent.dissolve(subset)
    b = solvent.dissolve_compact(comp, 8)
    assert ring_vertex_set(a) == ring_vertex_set(b)
    assert poly_structure(a) == poly_structure(b)


def test_outline_edges_single_cell():
    """outline_edges of a cell at its own res = its boundary edges."""
    from h3ray.kernels import edgevertex as ev

    c = int(latlng.latlng_to_cell(np.array([10.0]), np.array([10.0]), 6)[0])
    edges = solvent.outline_edges(c, 6)
    _, exp = ev.origin_to_directed_edges(np.array([c], dtype=np.int64))
    assert set(edges.tolist()) == set(exp.tolist())
