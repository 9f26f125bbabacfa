"""Mesh substrate — the "MS3D mesh splitter" substitute.

2-D/3-D unstructured meshes, generators, element partitioners, overlap
construction per overlapping pattern, and halo communication schedules.
"""

from .generate import (
    random_delaunay_mesh,
    structured_tet_mesh,
    structured_tri_mesh,
    two_triangle_mesh,
)
from .io import (
    read_mesh,
    read_triangle,
    write_mesh,
)
from .mesh2d import TriMesh
from .mesh3d import TetMesh
from .migrate import (
    RebalancePolicy,
    build_migration_schedule,
    migrate,
    rebalance_elem_ranks,
    repartition,
)
from .overlap import MeshPartition, SubMesh, build_partition, \
    permute_partition
from .packedid import (
    EntityPacking,
    PackedIDSpace,
    build_entity_packing,
)
from .partition import (
    element_dual_edges,
    partition_elements,
    partition_greedy,
    partition_rcb,
    partition_spectral,
    refine_partition,
)
from .quality import PartitionQuality, measure_partition
from .schedule import (
    HaloSchedule,
    WaveSide,
    build_combine_schedule,
    build_halo_schedule,
    build_overlap_schedule,
    moved_entity_gids,
    schedule_dirty_ranks,
)

__all__ = [
    "EntityPacking", "HaloSchedule", "MeshPartition", "RebalancePolicy",
    "PackedIDSpace", "WaveSide",
    "PartitionQuality", "SubMesh", "TetMesh", "TriMesh",
    "build_combine_schedule", "build_entity_packing",
    "build_halo_schedule", "build_overlap_schedule", "build_partition",
    "build_migration_schedule", "element_dual_edges", "measure_partition",
    "migrate", "moved_entity_gids", "partition_elements",
    "partition_greedy", "partition_rcb", "partition_spectral",
    "permute_partition", "random_delaunay_mesh", "read_mesh",
    "read_triangle", "rebalance_elem_ranks", "refine_partition",
    "repartition", "schedule_dirty_ranks", "structured_tet_mesh",
    "structured_tri_mesh", "two_triangle_mesh", "write_mesh",
]
