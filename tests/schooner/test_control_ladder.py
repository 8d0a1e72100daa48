"""One retry ladder for every control message a Schooner sender waits on.

``contact``, the start exchange (``start-request``/``start-ack``), the
state a restart ships (``restore:`` for a failover, ``state:`` for a
move) and a stub's ``lookup`` go through
:func:`repro.schooner.runtime.control_exchange`: each loss, a cut route
as much as a dropped message, costs ``call_timeout_s`` and then the
policy's backoff on the line, and the whole exchange is tried again
under ``env.retry`` and ``env.deadline``.  Past the ladder each site
raises the typed error it always raised, and leaves nothing running on
the park.  ``shutdown`` stays one send whose loss is tolerated.
"""

import pytest

from repro.core import REMOTE_PATHS, install_tess_executables
from repro.core.specs import DUCT_SPEC_SOURCE
from repro.faults import FailoverSupervisor
from repro.network.topology import NetworkError
from repro.network.transport import MessageDropped
from repro.resilience.deadline import Deadline
from repro.schooner import (
    CallTimeout,
    HostDown,
    Manager,
    ManagerError,
    ManagerMode,
    MigrationError,
    ModuleContext,
    SchoonerEnvironment,
)
from repro.uts import SpecFile

DUCT = SpecFile.parse(DUCT_SPEC_SOURCE).as_imports()
DUCT_ARGS = dict(w=100.0, tt=300.0, pt=2e5, far=0.0)
DUCT_PATH = REMOTE_PATHS["duct"]
MOVE_TO = "lerc-rs6000"

#: each message kind, and the error its sender raises past the ladder
KINDS = {
    "contact": HostDown,
    "start-request": HostDown,
    "start-ack": HostDown,
    "lookup": CallTimeout,
    "state:": MigrationError,
    "restore:": MessageDropped,
}


def world():
    env = SchoonerEnvironment.standard()
    install_tess_executables(env.park)
    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    FailoverSupervisor(manager=manager).attach()
    return env, manager


def drive(env, manager):
    """Every control message kind, in one line: contact and start the
    duct on the Cray, set it (the first lookup), move it (``state:``),
    crash its new host and call it (a failover's ``restore:``).
    Returns the line's instant at the end."""
    ctx = ModuleContext(manager=manager, module_name="duct", machine=manager.host)
    ctx.sch_contact_schx("lerc-cray", DUCT_PATH)
    ctx.import_proc(DUCT.import_named("setduct"))(dpqp=0.02)
    ctx.sch_move("duct", MOVE_TO)
    env.park[MOVE_TO].crash()
    out = ctx.import_proc(DUCT.import_named("duct"))(**DUCT_ARGS)
    assert out["pto"] == pytest.approx(2e5 * (1 - 0.02), rel=1e-12)
    return ctx.line.timeline.now


def is_kind(kind, message_kind):
    return message_kind == kind or (kind.endswith(":") and message_kind.startswith(kind))


def running(env):
    return [m.hostname for m in env.park if m.running_processes]


@pytest.mark.parametrize("kind", list(KINDS))
def test_one_drop_is_retried_and_charged_one_timeout_and_one_backoff(kind):
    env, manager = world()
    clean = drive(env, manager)
    processes = sum(len(m.running_processes) for m in env.park)

    env, manager = world()
    dropped = []

    def drop_first(src, dst, message_kind, total, now):
        drop = is_kind(kind, message_kind) and not dropped
        if drop:
            dropped.append(message_kind)
        return drop, 0.0

    env.transport.fault_filter = drop_first
    lossy = drive(env, manager)
    assert len(dropped) == 1 and env.transport.dropped == 1
    extra = env.costs.call_timeout_s + env.retry.backoff_s(1)
    if kind == "start-ack":
        # the whole exchange is tried again: the lost attempt's request
        # and spawn were spent before its ack went missing, as a call
        # whose reply is lost has spent its request and compute
        request = env.topology.classify(manager.host, env.park["lerc-cray"])
        extra += request.transfer_seconds(env.costs.control_message_bytes + 64)
        extra += env.costs.spawn_seconds
    assert lossy == pytest.approx(clean + extra, rel=0, abs=1e-9)
    # a retried start leaves no second process
    assert sum(len(m.running_processes) for m in env.park) == processes


def cut(kind, sent):
    """A fault filter that cuts the route of every ``kind`` message,
    counting each attempt in ``sent``."""

    def rule(src, dst, message_kind, total, now):
        if is_kind(kind, message_kind):
            sent.append(now)
            raise NetworkError(f"{message_kind}: route {src.site} -> {dst.site} cut")
        return False, 0.0

    return rule


@pytest.mark.parametrize("kind", list(KINDS))
def test_a_cut_that_outlasts_the_ladder_ends_typed_with_nothing_left_running(kind):
    """A cut route is a loss like a drop: it is retried, and past the
    ladder the sender's typed error, never a raw ``NetworkError``.  A
    ``start-ack`` that never arrives reaps the process it named on
    every attempt."""
    env, manager = world()
    sent = []
    env.transport.fault_filter = cut(kind, sent)
    with pytest.raises(KINDS[kind]) as info:
        drive(env, manager)
    assert isinstance(info.value.__cause__ or info.value.__context__, NetworkError)
    assert len(sent) == env.retry.max_attempts
    assert running(env) == []


@pytest.mark.parametrize("kind", list(KINDS))
def test_a_deadline_that_cannot_cover_another_attempt_stops_the_ladder(kind):
    """The session's deadline governs the ladder as it does a call's
    retries: with less than one backoff and one timeout left after a
    loss, no attempt follows it."""
    env, manager = world()
    sent = []
    cut_kind = cut(kind, sent)

    def rule(src, dst, message_kind, total, now):
        if is_kind(kind, message_kind) and not sent:
            # the deadline arrives with the first attempt: 3 s is one
            # timeout, and less than the backoff and timeout after it
            env.deadline = Deadline(at_s=now + 3.0)
        return cut_kind(src, dst, message_kind, total, now)

    env.transport.fault_filter = rule
    with pytest.raises(KINDS[kind]):
        drive(env, manager)
    assert len(sent) == 1
    assert running(env) == []


def test_a_lost_shutdown_is_tolerated_and_charges_no_wait():
    env, manager = world()
    ctx = ModuleContext(manager=manager, module_name="duct", machine=manager.host)
    ctx.sch_contact_schx("lerc-cray", DUCT_PATH)
    line = ctx.line
    env.transport.fault_filter = lambda src, dst, kind, total, now: (kind == "shutdown", 0.0)
    before = line.timeline.now
    ctx.sch_i_quit()
    assert line.timeline.now == before
    assert env.transport.dropped == 1
    assert running(env) == []


def test_a_start_of_something_not_a_schooner_executable_leaves_no_process():
    env, manager = world()
    env.park["lerc-cray"].install("/bin/not-schooner", object())
    line = manager.contact("m", manager.host)
    with pytest.raises(ManagerError, match="not a Schooner executable"):
        manager.start_remote(line, env.park["lerc-cray"], "/bin/not-schooner")
    assert running(env) == []
