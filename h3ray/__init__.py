"""h3ray: a Ray-Data-native H3 spatial-join + tiling engine.

Pure NumPy H3 kernels (h3ray.kernels) + Ray Data pipeline stages
(h3ray.ops, h3ray.pipelines). Library code never calls ray.init().

The flat namespace below re-exports the H3 API surface (vectorized over
NumPy arrays of int64 cell bits / float64 coordinates); pipelines and
stages stay in their submodules.
"""

__version__ = "0.1.0"

from .kernels.bits import (  # noqa: F401
    cell_to_center_child,
    cell_to_parent,
    children_count,
    from_strings,
    get_base_cell,
    get_resolution,
    is_pentagon,
    is_res_class3,
    is_valid_cell,
    to_strings,
)
from .kernels.boundary import cell_to_boundary, cell_to_boundary_rads  # noqa: F401
from .kernels.edgevertex import (  # noqa: F401
    cell_to_vertex,
    cell_to_vertexes,
    cells_to_directed_edge,
    edge_boundary_rads,
    edge_destination,
    edge_length_km,
    edge_length_m,
    edge_length_rads,
    edge_origin,
    edge_reverse,
    is_valid_directed_edge,
    is_valid_index,
    is_valid_vertex,
    origin_to_directed_edges,
    vertex_to_latlng,
)
from .kernels.grid import (  # noqa: F401
    are_neighbor_cells,
    grid_disk_distances,
    grid_ring,
    max_grid_disk_size,
    max_grid_ring_size,
)
from .kernels.hierarchy import (  # noqa: F401
    cell_to_children,
    child_at,
    child_position,
    compact,
    first_cell,
    last_cell,
    pred,
    succ,
    uncompact,
)
from .kernels.latlng import cell_to_latlng, latlng_to_cell  # noqa: F401
from .kernels.localij import (  # noqa: F401
    cell_to_local_ij,
    grid_distance,
    grid_path_cells,
    grid_path_cells_size,
    local_ij_to_cell,
)
from .kernels.measures import (  # noqa: F401
    cell_area_km2,
    cell_area_m2,
    cell_area_rads2,
    degs_to_rads,
    get_num_cells,
    great_circle_distance_km,
    great_circle_distance_m,
    great_circle_distance_rads,
    hexagon_area_avg,
    hexagon_edge_length_avg,
    icosahedron_faces,
    max_face_count,
    pentagon_count,
    pentagons,
    rads_to_degs,
    res0_cell_count,
    res0_cells,
)
from .kernels.region import (  # noqa: F401
    coverage_size_hint,
    geometry_from_geojson,
    plot_linestring,
    polygon_to_cells,
    polygons_to_cells,
    polygons_to_compact_cells,
    prepare_geometry,
)
from .kernels.solvent import cell_to_multipolygon, dissolve  # noqa: F401
