"""Schooner's failure modes.

Each exception corresponds to a failure the paper discusses: duplicate
procedure names (the single-program restriction of §4.2), failed lookups,
type-check rejections by the Manager, dead remote processes (which drive
the migration failover path), and machine/manager unavailability.
"""

from __future__ import annotations

__all__ = [
    "SchoonerError",
    "NameNotFound",
    "DuplicateName",
    "TypeCheckError",
    "CallFailed",
    "CallTimeout",
    "DeadlineExceeded",
    "BreakerOpen",
    "StaleBinding",
    "StateLost",
    "LineTerminated",
    "ManagerError",
    "HostDown",
    "MigrationError",
    "InstanceGone",
    "StaleRebind",
]


class SchoonerError(Exception):
    """Base class for Schooner runtime failures."""


class NameNotFound(SchoonerError):
    """No exported procedure with the requested name is visible (searched
    the caller's line database, then the shared database)."""


class DuplicateName(SchoonerError):
    """A procedure name is already bound in the relevant namespace.

    Under the original single-program model this fires whenever two
    instances of the same module are configured — the restriction that
    motivated the lines extension."""


class TypeCheckError(SchoonerError):
    """The Manager's runtime type check rejected a call: the import
    specification is not a subset of the export specification."""


class CallFailed(SchoonerError):
    """A remote procedure call could not complete."""


class CallTimeout(CallFailed):
    """The call's request or reply never arrived within the per-call
    timeout — a lost message, a partitioned link, or a dead host; the
    caller cannot tell which.

    ``retry_safe`` records whether the failure happened before the remote
    procedure could have executed (lost request: safe to retry even for
    stateful procedures) or after (lost reply: only *stateless*
    procedures may be retried without risking double execution).

    The exception carries its context rather than discarding it:
    ``trace`` is the originating
    :class:`~repro.schooner.runtime.CallTrace` of the attempt that timed
    out (so the handler knows which caller/callee pair and which
    instant), ``hop`` names the leg that was lost (``"request"`` or
    ``"reply"``), and ``deadline_remaining_s`` is the caller's remaining
    deadline budget at the moment the timeout was declared (``None``
    when no deadline is in force).
    """

    def __init__(
        self,
        message: str,
        retry_safe: bool = True,
        trace=None,
        hop: str = "",
        deadline_remaining_s=None,
    ):
        super().__init__(message)
        self.retry_safe = retry_safe
        self.trace = trace
        self.hop = hop
        self.deadline_remaining_s = deadline_remaining_s


class DeadlineExceeded(CallFailed):
    """The work's virtual-time deadline expired — distinct from
    :class:`CallTimeout` (*lost* vs *late*): the network delivered, but
    the deadline the caller stamped into the RPC header had already
    passed, so the server refused the work (or the retry engine refused
    to spend backoff it no longer had).  Never retried.

    ``trace`` is the refused attempt's
    :class:`~repro.schooner.runtime.CallTrace` when the refusal happened
    inside a call; ``remaining_s`` is the (non-positive) budget at
    refusal time."""

    def __init__(self, message: str, trace=None, remaining_s=None):
        super().__init__(message)
        self.trace = trace
        self.remaining_s = remaining_s


class BreakerOpen(CallFailed):
    """A circuit breaker for the call's (procedure, host) pair is open:
    the host has recently eaten ``failure_threshold`` consecutive
    timeouts and the cooldown has not elapsed, so the call fast-fails
    without touching the network.  ``retry_after_s`` is the virtual
    instant at which the breaker will admit a half-open trial."""

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class StaleBinding(CallFailed):
    """The call reached a location where the procedure no longer lives
    (it was moved or its process died).  Client stubs catch this and
    re-contact the Manager for fresh mapping information — the paper's
    cache-refresh-on-failed-call protocol."""


class StateLost(CallFailed):
    """A stateful procedure read a variable its ``state_spec`` declares
    that nothing installed in its process: no ``set*`` call, move or
    checkpoint restore put it there.  The message names the procedure,
    the variable and the host; a default would have computed a
    plausible wrong answer instead."""


class LineTerminated(SchoonerError):
    """An operation was attempted on a line that has been shut down."""


class ManagerError(SchoonerError):
    """The Manager could not satisfy a protocol request."""


class HostDown(ManagerError):
    """A Manager/Server protocol message could not be delivered because
    the target machine is down (detected by heartbeat or a lost
    control message)."""


class MigrationError(SchoonerError):
    """A procedure move failed (e.g. stateful procedure without a
    state-transfer specification, or target machine down)."""


class InstanceGone(MigrationError):
    """An instance's hosting process is no longer running: a move has
    nothing left to shut down or transfer state from, and a placement
    prologue with no failover supervisor has no state to restart it
    with.  Recovery of dead instances is the supervisor's
    (:mod:`repro.faults`), not :meth:`Manager.move`'s or a cold
    restart's."""


class StaleRebind(SchoonerError):
    """A rebind carried a generation older than the mapping it would
    replace — a late, superseded update that must not clobber the
    current binding."""
