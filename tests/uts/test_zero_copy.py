"""The zero-copy wire path (PR 4, satellite 2 + tentpole).

Encode writes straight into a fresh bytearray (``encode_conformed_into``,
and the oracle's ``encode_into`` — no intermediate per-value bytes objects
joined into a second allocation), the payload travels as a single
read-only ``memoryview`` over the sender's buffer through every hop.
"""

from __future__ import annotations

import pytest

from repro.machines import Language
from repro.schooner import (
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
)
from repro.uts import SpecFile, conform_args
from repro.uts.compiled import signature_codec
from repro.uts.types import DOUBLE, ArrayType, ParamMode, Parameter, Signature

from .oracle import encode_into, encode_value, marshal_args, marshal_args_into


# ----------------------------------------------------------- encode_into
class TestEncodeInto:
    def test_encode_into_matches_encode_value(self):
        t = ArrayType(64, DOUBLE)
        value = [float(i) * 0.5 for i in range(64)]
        buf = bytearray()
        encode_into(t, value, buf)
        assert bytes(buf) == encode_value(t, value)

    def test_encode_into_appends_without_clobbering(self):
        buf = bytearray(b"prefix")
        encode_into(DOUBLE, 2.5, buf)
        assert buf.startswith(b"prefix")
        assert bytes(buf[6:]) == encode_value(DOUBLE, 2.5)

    def test_marshal_args_into_matches_marshal_args(self):
        sig = Signature(
            "f",
            (
                Parameter("a", ParamMode.VAL, DOUBLE),
                Parameter("xs", ParamMode.VAL, ArrayType(8, DOUBLE)),
            ),
        )
        args = {"a": 1.25, "xs": [float(i) for i in range(8)]}
        buf = bytearray()
        n = marshal_args_into(sig, args, "send", buf)
        assert n == len(buf)
        assert bytes(buf) == marshal_args(sig, args, "send")

    def test_compiled_encode_conformed_into_matches_encode_conformed(self):
        sig = Signature(
            "g",
            (
                Parameter("a", ParamMode.VAL, DOUBLE),
                Parameter("xs", ParamMode.VAL, ArrayType(16, DOUBLE)),
            ),
        )
        codec = signature_codec(sig, "send")
        args = {"a": 3.5, "xs": [float(i) for i in range(16)]}
        conformed = conform_args(sig, args, "send")
        buf = bytearray()
        n = codec.encode_conformed_into(conformed, buf)
        assert n == len(buf)
        assert bytes(buf) == marshal_args(sig, args, "send")


# ------------------------------------------------- the end-to-end wire path
ARRAY_SPEC = 'export crunch prog("xs" val array[64] of double, "total" res double)'


def _remote_call_env(machine="lerc-rs6000"):
    exe = Executable(
        "crunch",
        (
            Procedure(
                name="crunch",
                signature=SpecFile.parse(ARRAY_SPEC).export_named("crunch"),
                impl=lambda xs: {"total": sum(xs)},
                language=Language.C,
            ),
        ),
    )
    env = SchoonerEnvironment.standard()
    env.park[machine].install("/bin/crunch", exe)
    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    ctx = ModuleContext(
        manager=manager, module_name="m", machine=env.park["ua-sparc10"]
    )
    ctx.sch_contact_schx(machine, "/bin/crunch")
    stub = ctx.import_proc(SpecFile.parse(ARRAY_SPEC).as_imports(), name="crunch")
    return env, stub


class TestZeroCopyWirePath:
    def test_gateway_routed_bulk_call_copies_no_payload_bytes(self):
        """The acceptance check: a bulk-array call routed across the
        internet (Arizona client, LeRC server — gateways on both
        campuses) delivers the sender's own encode buffer: what the
        server (and, for the reply, the client) receives is a read-only
        view of the ``bytearray`` the other side encoded into, not a
        copy of it, and request and reply each have their own."""
        env, stub = _remote_call_env()
        xs = [float(i) for i in range(64)]
        stub(xs=xs)  # warm up instance state
        hops = env.topology.classify(
            env.park["ua-sparc10"], env.park["lerc-rs6000"]
        ).hops
        assert hops >= 1
        delivered = []
        real_send = env.transport.send

        def spy(*args, **kwargs):
            msg = real_send(*args, **kwargs)
            body = msg.body
            delivered.append(
                (msg.kind, type(body), body.readonly, body.obj, body.nbytes, msg.nbytes)
            )
            return msg

        env.transport.send = spy
        out = stub(xs=xs)
        assert out == {"total": sum(xs)}
        assert [kind for kind, *_ in delivered] == ["call:crunch", "reply:crunch"]
        for _kind, body_type, readonly, backing, view_nbytes, nbytes in delivered:
            assert body_type is memoryview and readonly
            assert type(backing) is bytearray
            assert view_nbytes == nbytes == len(backing)  # the whole payload, one view
        request_buf, reply_buf = [backing for _, _, _, backing, *_ in delivered]
        assert request_buf is not reply_buf

    def test_message_header_is_packed_once(self):
        env, stub = _remote_call_env()
        env.transport.stats.by_kind.clear()
        stub(xs=[1.0] * 64)
        # every sent message carries a fixed-size struct-packed header
        from repro.network.transport import HEADER_STRUCT

        # 32 bytes since the deadline-propagation field (PR 5) joined
        # the call id / kind / size / src / dst fields
        assert HEADER_STRUCT.size == 32

    def test_zero_copy_reply_still_decodes_correctly(self):
        env, stub = _remote_call_env()
        for k in range(3):
            xs = [float(i + k) for i in range(64)]
            assert stub(xs=xs) == {"total": pytest.approx(sum(xs))}
