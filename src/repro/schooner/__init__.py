"""Schooner: the heterogeneous RPC facility.

The paper's interconnection system [Homer92a, Homer92b], rebuilt: the UTS
type system is in :mod:`repro.uts`; this package provides the stub
compiler, the runtime (communication library + call engine), the Manager
and Servers, and the section-4 extensions — the dynamic startup protocol,
lines, procedure migration, and shared procedures.
"""

from .api import ModuleContext
from .errors import (
    BreakerOpen,
    CallFailed,
    CallTimeout,
    DeadlineExceeded,
    DuplicateName,
    HostDown,
    InstanceGone,
    LineTerminated,
    ManagerError,
    MigrationError,
    NameNotFound,
    SchoonerError,
    StaleBinding,
    StaleRebind,
    StateLost,
    TypeCheckError,
)
from .lines import InstanceRecord, Line, LineState
from .manager import Manager, ManagerMode, SharedRegistry
from .procedure import STATE_ARG, Executable, Procedure
from .program import SchoonerProgram
from .runtime import (
    CallBatch,
    CallerContext,
    CallFuture,
    CallTrace,
    CostModel,
    RetryPolicy,
    SchoonerEnvironment,
    execute_call,
)
from .server import SchoonerServer
from .tracing import ProcedureSummary, render_summary, summarize
from .stubs import ClientStub

__all__ = [
    "SchoonerEnvironment",
    "CostModel",
    "RetryPolicy",
    "CallTrace",
    "CallerContext",
    "CallFuture",
    "CallBatch",
    "execute_call",
    "Manager",
    "ManagerMode",
    "SharedRegistry",
    "SchoonerServer",
    "Procedure",
    "Executable",
    "STATE_ARG",
    "Line",
    "LineState",
    "InstanceRecord",
    "ClientStub",
    "ModuleContext",
    "SchoonerProgram",
    "ProcedureSummary",
    "summarize",
    "render_summary",
    # errors
    "SchoonerError",
    "NameNotFound",
    "DuplicateName",
    "TypeCheckError",
    "CallFailed",
    "CallTimeout",
    "DeadlineExceeded",
    "BreakerOpen",
    "StaleBinding",
    "StaleRebind",
    "StateLost",
    "LineTerminated",
    "ManagerError",
    "HostDown",
    "MigrationError",
    "InstanceGone",
]
