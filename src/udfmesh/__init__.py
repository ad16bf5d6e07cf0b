"""udfmesh: open-surface meshing of unsigned distance fields.

Triangulates the zero set of a UDF by assigning gradient-anchored
pseudo-signs inside near-surface grid cells, makes the resulting vertices
differentiable with respect to field parameters, and scores
reconstructions with Chamfer distance, normal consistency and image
consistency.
"""

from .diffgeom import (VertexJacobian, assemble_jacobian,
                       border_vertex_derivative, directional_gradcheck,
                       fit_point_cloud, interior_vertex_derivative,
                       outward_vectors, vertex_normals)
from .extract import (ExtractStats, PseudoSignedCell, extract_mesh,
                      extract_mesh_detailed, mesh_signed_grid,
                      pseudo_sign_cell, triangulate_cell)
from .fields import (MeshUdf, OpenCylinderUdf, RectanglePatchUdf,
                     SphereShellUdf, TranslatedMeshUdf, TranslatedPlaneUdf,
                     UdfField, parametric_field)
from .grid import (GridSamples, GridSpec, candidate_cells, dump_grid,
                   load_grid_dump, sample_grid, sample_grid_values)
from .io import (read_mesh, read_obj, read_ply, read_xyz, write_mesh,
                 write_obj, write_ply, write_xyz)
from .mesh import TriMesh, empty_mesh
from .metrics import (MetricsReport, chamfer, evaluate_pair, image_consistency,
                      inflate_mesh, normal_consistency, sample_surface)
from .mlp import MlpUdf, WeightFileError, positional_encoding, random_mlp
from .postprocess import remove_spurious_facets, smooth_borders
from . import primitives

__version__ = "0.1.0"

__all__ = [
    "ExtractStats", "GridSamples", "GridSpec", "MeshUdf", "MetricsReport",
    "MlpUdf", "OpenCylinderUdf", "PseudoSignedCell", "RectanglePatchUdf",
    "SphereShellUdf", "TranslatedMeshUdf", "TranslatedPlaneUdf", "TriMesh",
    "UdfField", "VertexJacobian", "WeightFileError", "assemble_jacobian",
    "border_vertex_derivative", "candidate_cells", "chamfer",
    "directional_gradcheck", "dump_grid", "empty_mesh", "evaluate_pair",
    "extract_mesh", "extract_mesh_detailed", "fit_point_cloud",
    "image_consistency", "inflate_mesh", "interior_vertex_derivative",
    "load_grid_dump", "mesh_signed_grid", "normal_consistency",
    "outward_vectors", "parametric_field", "positional_encoding",
    "primitives", "pseudo_sign_cell", "random_mlp", "read_mesh", "read_obj",
    "read_ply", "read_xyz", "remove_spurious_facets", "sample_grid",
    "sample_grid_values", "sample_surface", "smooth_borders",
    "triangulate_cell", "vertex_normals", "write_mesh", "write_obj",
    "write_ply", "write_xyz",
]
