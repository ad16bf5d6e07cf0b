"""udfmesh: open-surface meshing of unsigned distance fields.

Triangulates the zero set of a UDF by assigning gradient-anchored
pseudo-signs inside near-surface grid cells, makes the resulting vertices
differentiable with respect to field parameters, and scores
reconstructions with Chamfer distance, normal consistency and image
consistency.
"""

from .diffgeom import (VertexJacobian, assemble_jacobian, directional_gradcheck,
                       fit_point_cloud, outward_vectors, vertex_normals)
from .extract import (ExtractStats, extract_mesh, extract_mesh_detailed,
                      mesh_signed_grid)
from .fields import (MeshUdf, OpenCylinderUdf, RectanglePatchUdf,
                     SphereShellUdf, TranslatedMeshUdf, TranslatedPlaneUdf,
                     UdfField, parametric_field)
from .grid import GridSpec, dump_grid, load_grid_dump, sample_grid
from .io import (read_mesh, read_obj, read_ply, read_xyz, write_mesh,
                 write_obj, write_ply, write_xyz)
from .mesh import TriMesh, empty_mesh
from .metrics import (MetricsReport, chamfer, evaluate_pair, image_consistency,
                      inflate_mesh, normal_consistency, sample_surface)
from .mlp import MlpUdf, WeightFileError, random_mlp
from .postprocess import remove_spurious_facets, smooth_borders
from . import primitives

__version__ = "0.1.0"

__all__ = [
    "ExtractStats", "GridSpec", "MeshUdf", "MetricsReport", "MlpUdf",
    "OpenCylinderUdf", "RectanglePatchUdf", "SphereShellUdf",
    "TranslatedMeshUdf", "TranslatedPlaneUdf", "TriMesh", "UdfField",
    "VertexJacobian", "WeightFileError", "assemble_jacobian", "chamfer",
    "directional_gradcheck", "dump_grid", "empty_mesh", "evaluate_pair",
    "extract_mesh", "extract_mesh_detailed", "fit_point_cloud",
    "image_consistency", "inflate_mesh", "load_grid_dump", "mesh_signed_grid",
    "normal_consistency", "outward_vectors", "parametric_field",
    "primitives", "random_mlp", "read_mesh", "read_obj", "read_ply",
    "read_xyz", "remove_spurious_facets", "sample_grid", "sample_surface",
    "smooth_borders", "vertex_normals", "write_mesh", "write_obj", "write_ply",
    "write_xyz",
]
