"""Checkpoint, restore and migration bytes against the interpretive
wire oracle.

A stateful procedure on the Cray keeps one state variable of every UTS
kind.  ``CheckpointStore.take`` keeps that state's conformed values and
encodes nothing; ``Manager.restart`` (a restore or a move) encodes it
with the runtime's compiled codec when it ships it.  The message must
carry the oracle's ``encode_value(t, conform(t, v))`` byte count, and
the restart must install bit-identical conformed values.
"""

import copy

import pytest

from repro.uts import compiled

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


def spy_sends(transport, monkeypatch):
    sent = []
    send = transport.send

    def spy(*args, **kwargs):
        msg = send(*args, **kwargs)
        sent.append(msg)
        return msg

    monkeypatch.setattr(transport, "send", spy)
    return sent


class TestCheckpointBytes:
    def test_a_checkpoint_keeps_the_conformed_values_unencoded(self, filled, monkeypatch):
        ctx = filled
        store = CheckpointStore()
        encodes = []
        encode = compiled.CompiledCodec.encode
        monkeypatch.setattr(compiled.CompiledCodec, "encode",
                            lambda codec, value: encodes.append(codec) or encode(codec, value))
        store.take(ctx.line.line_id, ctx.line.records, now=0.0)
        assert store.taken == 1 and encodes == []
        checkpoint = store.latest(ctx.line.line_id, PATH)
        assert [var for var, _, _ in checkpoint.state] == sorted(STATE_SPEC)
        for var, t, value in checkpoint.state:
            assert t == STATE_SPEC[var]
            assert identical(t, value, conform(t, STATE[var])), var

    def test_a_checkpoint_shares_nothing_with_the_live_state(self, filled):
        ctx = filled
        store = CheckpointStore()
        store.take(ctx.line.line_id, ctx.line.records, now=0.0)
        live = ctx.line.records[0].state_storage()
        live["history"][0] = 9.0
        live["station"]["name"] = "core"
        state = {var: value for var, _, value in store.latest(ctx.line.line_id, PATH).state}
        assert state["history"][0] == 1 / 3 and state["station"]["name"] == "fan"

    def test_restore_returns_the_conformed_values(self, filled, monkeypatch):
        ctx = filled
        store = CheckpointStore()
        store.take(ctx.line.line_id, ctx.line.records, now=0.0)
        checkpoint = store.latest(ctx.line.line_id, PATH)
        old = ctx.manager.lookup(ctx.line, "fill")
        sent = spy_sends(ctx.manager.env.transport, monkeypatch)
        (new,) = ctx.manager.restart(
            ctx.line, old, ctx.machine, PATH, checkpoint.state,
            source=ctx.manager.host, kind=f"restore:{PATH}",
            timeline=ctx.line.timeline,
        )
        assert new.generation == old.generation + 1
        # encoded when shipped: the restore carries the oracle's bytes
        (restore,) = [m for m in sent if m.kind == f"restore:{PATH}"]
        assert restore.nbytes == sum(len(expected_blob(v)) for v in STATE_SPEC)
        storage = new.state_storage()
        assert sorted(storage) == sorted(STATE_SPEC)
        for var, t in STATE_SPEC.items():
            assert identical(t, storage[var], conform(t, STATE[var])), var

    def test_a_restore_onto_the_cray_keeps_the_conformed_values(self, filled):
        """Arriving state gets no native round trip (ROADMAP item 4(e)):
        restored onto the Cray, whose doubles round, every variable is
        still the conformed value that was saved, 1/3 included."""
        ctx = filled
        store = CheckpointStore()
        store.take(ctx.line.line_id, ctx.line.records, now=0.0)
        old = ctx.manager.lookup(ctx.line, "fill")
        cray = ctx.manager.env.park["lerc-cray"]
        (new,) = ctx.manager.restart(
            ctx.line, old, cray, PATH, store.latest(ctx.line.line_id, PATH).state,
            source=ctx.manager.host, kind=f"restore:{PATH}",
            timeline=ctx.line.timeline,
        )
        assert new.machine is cray
        storage = new.state_storage()
        for var, t in STATE_SPEC.items():
            assert identical(t, storage[var], conform(t, STATE[var])), var


class TestMigrationBytes:
    def test_state_transfer_carries_the_oracles_byte_count(self, filled, monkeypatch):
        ctx = filled
        sent = spy_sends(ctx.manager.env.transport, monkeypatch)
        moved = ctx.sch_move("fill", "ua-sparc10", PATH)
        (transfer,) = [m for m in sent if m.kind == "state:fill"]
        assert transfer.nbytes == sum(len(expected_blob(v)) for v in STATE_SPEC)
        storage = moved.state_storage()
        for var, t in STATE_SPEC.items():
            assert identical(t, storage[var], conform(t, STATE[var])), var
