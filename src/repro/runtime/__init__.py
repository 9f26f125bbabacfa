"""SPMD runtime — SimMPI message passing, halo collectives, executor, timing."""

from .checkpoint import (
    Checkpoint,
    CheckpointManager,
    RankSnapshot,
    restore_rank_snapshot,
    snapshot_digest,
)
from .executor import (
    RECOVERY_GLOBAL,
    RECOVERY_LOCAL,
    RECOVERY_MODES,
    SPMDExecutor,
    SPMDResult,
)
from .flatstore import FlatField, build_flat_store
from .faults import (
    FaultComm,
    FaultPlan,
    FaultRule,
    KillRule,
    adversarial_check,
    envs_bit_identical,
    make_comm,
)
from .halos import (
    REDUCE_OPS,
    PendingWave,
    allreduce_scalar,
    combine_complete,
    combine_post,
    combine_update,
    overlap_complete,
    overlap_post,
    overlap_update,
)
from .msglog import MessageLog, ReplayFilter
from .perfmodel import (
    MachineModel,
    TimeBreakdown,
    parallel_time,
    sequential_time,
)
from .ringbuf import RingTransport
from .simmpi import CollectiveRecord, CommStats, RankComm, SimComm
from .trace import (
    Timeline,
    render_fault_report,
    render_timeline,
    timeline_report,
)

__all__ = [
    "Checkpoint", "CheckpointManager", "CollectiveRecord", "CommStats",
    "FaultComm", "FaultPlan", "FaultRule", "FlatField", "KillRule",
    "MachineModel",
    "MessageLog", "build_flat_store", "PendingWave",
    "RECOVERY_GLOBAL", "RECOVERY_LOCAL", "RECOVERY_MODES",
    "REDUCE_OPS", "RankComm", "RankSnapshot", "ReplayFilter",
    "RingTransport", "SPMDExecutor", "SPMDResult", "SimComm",
    "TimeBreakdown", "adversarial_check", "allreduce_scalar",
    "Timeline", "combine_complete", "combine_post",
    "combine_update", "envs_bit_identical", "make_comm",
    "overlap_complete", "overlap_post", "overlap_update",
    "parallel_time", "render_fault_report", "render_timeline",
    "restore_rank_snapshot", "sequential_time", "snapshot_digest",
    "timeline_report",
]
