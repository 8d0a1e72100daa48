"""Checkpoint and migration bytes against the interpretive wire oracle.

A stateful procedure on the Cray keeps one state variable of every UTS
kind.  ``CheckpointStore.take`` and ``Manager.migrate`` encode that state
with the runtime's compiled codec; the bytes must be the oracle's
``encode_value(t, conform(t, v))`` exactly, and ``restore`` must hand
back bit-identical conformed values.
"""

import copy

import pytest

from repro.faults.checkpoint import CheckpointStore
from repro.machines import Language
from repro.schooner import (
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
)
from repro.uts import (
    BOOLEAN,
    BYTE,
    DOUBLE,
    FLOAT,
    INTEGER,
    STRING,
    ArrayType,
    RecordType,
    SpecFile,
    conform,
)

from tests.uts.oracle import encode_value, identical

STATE_SPEC = {
    "count": INTEGER,
    "gain": FLOAT,
    "level": DOUBLE,
    "flags": BYTE,
    "label": STRING,
    "armed": BOOLEAN,
    "history": ArrayType(3, DOUBLE),
    "station": RecordType.of(id=INTEGER, Tt=DOUBLE, name=STRING, ok=BOOLEAN),
}
STATE = {
    "count": -(2**40),
    "gain": 0.1,  # not a binary32: conforming rounds it
    "level": -0.0,
    "flags": 200,
    "label": "café ∆",
    "armed": True,
    "history": [1 / 3, -0.0, 1e300],
    "station": {"id": 7, "Tt": 518.67, "name": "fan", "ok": False},
}
SPEC = 'export fill prog("n" val integer, "done" res boolean)'
PATH = "/bin/fill"


def expected_blob(var):
    t = STATE_SPEC[var]
    return encode_value(t, conform(t, STATE[var]))


def make_fill_exe():
    def fill(n, _state):
        _state.update(copy.deepcopy(STATE))
        return True

    return Executable("fill", (Procedure(
        name="fill",
        signature=SpecFile.parse(SPEC).export_named("fill"),
        impl=fill,
        language=Language.C,
        stateless=False,
        state_spec=STATE_SPEC,
    ),))


@pytest.fixture
def filled():
    """A ``fill`` instance on the Cray whose state holds ``STATE``."""
    env = SchoonerEnvironment.standard()
    for nick in ("lerc-cray", "ua-sparc10"):
        env.park[nick].install(PATH, make_fill_exe())
    home = env.park["ua-sparc10"]
    manager = Manager(env=env, host=home, mode=ManagerMode.LINES)
    ctx = ModuleContext(manager=manager, module_name="m", machine=home)
    ctx.sch_contact_schx("lerc-cray", PATH)
    stub = ctx.import_proc(SpecFile.parse(SPEC).as_imports(), name="fill")
    assert stub.call1(n=1) is True
    return ctx


class TestCheckpointBytes:
    def test_blobs_are_the_oracles_bytes(self, filled):
        ctx = filled
        store = CheckpointStore()
        assert store.take(ctx.line, now=0.0) == 1
        checkpoint = store.latest(ctx.line.line_id, PATH)
        assert [var for var, _ in checkpoint.blobs] == sorted(STATE_SPEC)
        for var, blob in checkpoint.blobs:
            assert blob == expected_blob(var), var
        assert checkpoint.nbytes == sum(len(expected_blob(v)) for v in STATE_SPEC)

    def test_restore_returns_the_conformed_values(self, filled):
        ctx = filled
        store = CheckpointStore()
        store.take(ctx.line, now=0.0)
        checkpoint = store.latest(ctx.line.line_id, PATH)
        record = ctx.manager.lookup(ctx.line, "fill")
        storage = record.state_storage()
        storage.clear()
        assert store.restore(checkpoint, [record]) == len(STATE_SPEC)
        for var, t in STATE_SPEC.items():
            assert identical(t, storage[var], conform(t, STATE[var])), var


class TestMigrationBytes:
    def test_state_transfer_carries_the_oracles_byte_count(self, filled, monkeypatch):
        ctx = filled
        transport = ctx.manager.env.transport
        sent = []
        send = transport.send

        def spy(*args, **kwargs):
            msg = send(*args, **kwargs)
            sent.append(msg)
            return msg

        monkeypatch.setattr(transport, "send", spy)
        moved = ctx.sch_move("fill", "ua-sparc10", PATH)
        (transfer,) = [m for m in sent if m.kind == "state:fill"]
        assert transfer.nbytes == sum(len(expected_blob(v)) for v in STATE_SPEC)
        storage = moved.state_storage()
        for var, t in STATE_SPEC.items():
            assert identical(t, storage[var], conform(t, STATE[var])), var
