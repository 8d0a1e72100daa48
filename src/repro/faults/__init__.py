"""repro.faults: deterministic fault injection and checkpointed failover.

The paper's Schooner/NPSS system ran across the 1993 Internet, where
hosts died and links failed; this package makes those failures *part of
the simulation*.  A :class:`FaultPlan` schedules seeded failure events
on the virtual clock; a :class:`FaultInjector` applies them to the
network and machine layers; and a :class:`FailoverSupervisor` — one per
executive — gives the Schooner Manager failure detection (by the call
that meets a dead instance), checkpoints of a stateful procedure's
declared state taken by each call that changes it, and automatic failover
of crashed instances onto surviving machines — layered on the same
generation-bumped rebind machinery that §4.2 migration uses.

Everything is deterministic: the same plan and seed replayed twice
produce byte-identical call traces and failure logs.
"""

from .checkpoint import Checkpoint, CheckpointStore
from .injector import FaultInjector
from .plan import (
    CrashMachine,
    CrashProcess,
    DerateHost,
    FaultEvent,
    FaultPlan,
    GatewayOutage,
    GatewayRestore,
    HealLink,
    KillShardWorker,
    LatencySpike,
    PacketLoss,
    PartitionLink,
    RestoreMachine,
)
from .recovery import FailoverSupervisor, RecoveryEvent

__all__ = [
    "FaultPlan",
    "FaultEvent",
    "PartitionLink",
    "HealLink",
    "PacketLoss",
    "LatencySpike",
    "GatewayOutage",
    "GatewayRestore",
    "CrashProcess",
    "CrashMachine",
    "RestoreMachine",
    "KillShardWorker",
    "DerateHost",
    "FaultInjector",
    "Checkpoint",
    "CheckpointStore",
    "FailoverSupervisor",
    "RecoveryEvent",
]
