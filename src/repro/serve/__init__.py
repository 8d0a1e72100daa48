"""repro.serve — multi-session serving over one shared installation.

The serving layer multiplexes N concurrent engine sessions (steady
points and transients, mixed) over a single simulated machine park.
Each session owns its clock, transport, traces, and solver state —
per-session virtual times are deterministic and identical to a solo run
— while the expensive shared pieces (machines, topology, installed
executables, workload cache) are built once.  See
docs/PERFORMANCE.md, "Serving many sessions".
"""

from .installation import SessionRecord, SharedInstallation, WorkloadCache
from .opcache import OpPointCache, OpSolution, WarmStart
from .scheduler import (
    AdmissionPolicy,
    Arrival,
    ServeReport,
    serve_arrivals,
    serve_sessions,
)
from .failover import build_kill_plan
from .session import TABLE2_PLACEMENT, SessionContext, SessionResult, SessionSpec
from .shards import (
    NotShardSafe,
    ShardCrashed,
    ShardPool,
    ShardProtocolError,
    ShardTimeout,
    serve_sessions_sharded,
)

__all__ = [
    "NotShardSafe",
    "ShardCrashed",
    "ShardTimeout",
    "ShardPool",
    "ShardProtocolError",
    "build_kill_plan",
    "serve_sessions_sharded",
    "AdmissionPolicy",
    "Arrival",
    "serve_arrivals",
    "SharedInstallation",
    "WorkloadCache",
    "OpPointCache",
    "OpSolution",
    "WarmStart",
    "SessionRecord",
    "ServeReport",
    "serve_sessions",
    "TABLE2_PLACEMENT",
    "SessionContext",
    "SessionResult",
    "SessionSpec",
]
