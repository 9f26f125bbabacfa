"""SPMD runtime — SimMPI message passing, halo collectives, executor, timing."""

from .checkpoint import (
    Checkpoint,
    CheckpointManager,
    RankSnapshot,
    snapshot_digest,
)
from .executor import (
    RECOVERY_GLOBAL,
    RECOVERY_LOCAL,
    RECOVERY_MODES,
    SPMDExecutor,
    SPMDResult,
)
from .faults import (
    FaultComm,
    FaultPlan,
    FaultRule,
    KillRule,
    make_comm,
)
from .halos import (
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
    "FaultComm", "FaultPlan", "FaultRule", "KillRule",
    "MachineModel", "MessageLog", "PendingWave",
    "RECOVERY_GLOBAL", "RECOVERY_LOCAL", "RECOVERY_MODES",
    "RankComm", "RankSnapshot", "ReplayFilter",
    "RingTransport", "SPMDExecutor", "SPMDResult", "SimComm",
    "TimeBreakdown", "allreduce_scalar",
    "Timeline", "combine_complete", "combine_post",
    "combine_update", "make_comm",
    "overlap_complete", "overlap_post", "overlap_update",
    "parallel_time", "render_fault_report", "render_timeline",
    "sequential_time", "snapshot_digest",
    "timeline_report",
]
